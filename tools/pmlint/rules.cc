#include "rules.hh"

#include <cstddef>
#include <set>

namespace pmlint {

namespace {

using Diags = std::vector<Diagnostic>;

void
emit(Diags &out, const SourceFile &f, int line, int col, const char *rule,
     std::string message)
{
    // Raw: suppression annotations are applied at the link stage, so
    // per-file results stay a pure function of file content (and the
    // link stage can detect annotations that suppress nothing).
    out.push_back({f.relPath, line, col, rule, std::move(message)});
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Punct && t.text == text;
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Ident && t.text == text;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Index of the token after the template argument list opening at
 * `i` (which must point at '<'). Handles nested <...> and the '>>'
 * token closing two levels. Returns tokens.size() when unbalanced.
 */
std::size_t
skipTemplateArgs(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (isPunct(toks[i], "<"))
            ++depth;
        else if (isPunct(toks[i], ">"))
            --depth;
        else if (isPunct(toks[i], ">>"))
            depth -= 2;
        else if (isPunct(toks[i], ";"))
            return toks.size(); // not a template arg list after all
        if (depth <= 0)
            return i + 1;
    }
    return toks.size();
}

// ---- R1a: banned nondeterministic identifiers. ------------------------

/** Free functions whose *call* is banned (wall clock, environment). */
const std::set<std::string> &
bannedCalls()
{
    static const std::set<std::string> k = {
        "rand",   "srand",        "rand_r",       "drand48",
        "lrand48", "time",        "getenv",       "secure_getenv",
        "gettimeofday", "clock_gettime", "timespec_get",
    };
    return k;
}

/** Types whose *mention* is banned (nondeterministic sources). */
const std::set<std::string> &
bannedTypes()
{
    static const std::set<std::string> k = {
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock", "mt19937", "mt19937_64",
        "default_random_engine", "knuth_b", "minstd_rand",
        "minstd_rand0",
    };
    return k;
}

void
checkBannedIdents(const SourceFile &f, Diags &out)
{
    // The one sanctioned randomness source may name what it wraps.
    if (f.relPath == "sim/random.hh")
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Ident)
            continue;
        if (bannedTypes().count(t.text)) {
            emit(out, f, t.line, t.col, "banned-ident",
                 "'" + t.text + "' is a nondeterminism hazard; use "
                 "sim/random.hh (SplitMix64) or a config parameter");
            continue;
        }
        if (!bannedCalls().count(t.text))
            continue;
        // Only a *call* is banned, and member calls (proc.time()) are
        // a different function entirely.
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
            continue;
        if (i > 0 &&
            (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")))
            continue;
        // A preceding identifier (other than `return`) or declarator
        // punctuation means this is a *declaration* of an unrelated
        // member — `Tick time() const` — not a call of the libc one.
        if (i > 0) {
            const Token &prev = toks[i - 1];
            if (prev.kind == Token::Kind::Ident && prev.text != "return")
                continue;
            if (isPunct(prev, ">") || isPunct(prev, ">>") ||
                isPunct(prev, "&") || isPunct(prev, "*") ||
                isPunct(prev, "~"))
                continue;
        }
        if (i > 0 && isPunct(toks[i - 1], "::")) {
            // Qualified: only std:: / :: (global) forms are the libc
            // functions; some_ns::time is someone else's.
            const bool stdQualified =
                i >= 2 && isIdent(toks[i - 2], "std");
            const bool globalQualified =
                i < 2 || toks[i - 2].kind != Token::Kind::Ident;
            if (!stdQualified && !globalQualified)
                continue;
        }
        emit(out, f, t.line, t.col, "banned-ident",
             "call to '" + t.text + "' is nondeterministic; use "
             "sim/random.hh (SplitMix64) or a config parameter");
    }
}

// ---- R1b: iteration over unordered containers. ------------------------

std::set<std::string>
unorderedNames(const std::vector<Token> &toks)
{
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Ident ||
            !kUnordered.count(toks[i].text))
            continue;
        std::size_t j = i + 1;
        if (j < toks.size() && isPunct(toks[j], "<"))
            j = skipTemplateArgs(toks, j);
        // Skip declarator decorations up to the declared name.
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isPunct(toks[j], "&&") || isIdent(toks[j], "const")))
            ++j;
        if (j < toks.size() && toks[j].kind == Token::Kind::Ident)
            names.insert(toks[j].text);
    }
    return names;
}

void
checkUnorderedIteration(const SourceFile &f, Diags &out)
{
    const auto &toks = f.tokens;
    const std::set<std::string> names = unorderedNames(toks);
    if (names.empty())
        return;
    auto flag = [&](const Token &t, const std::string &name) {
        emit(out, f, t.line, t.col, "unordered-iter",
             "iteration over unordered container '" + name +
                 "' has implementation-defined order (nondeterminism "
                 "hazard); iterate an ordered mirror or annotate "
                 "'// pmlint: unordered-ok(<reason>)'");
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Range-for: for ( ... : <expr naming an unordered var> )
        if (isIdent(toks[i], "for") && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                if (isPunct(toks[j], "(") || isPunct(toks[j], "[") ||
                    isPunct(toks[j], "{"))
                    ++depth;
                else if (isPunct(toks[j], ")") || isPunct(toks[j], "]") ||
                         isPunct(toks[j], "}")) {
                    --depth;
                    if (depth == 0) {
                        close = j;
                        break;
                    }
                } else if (depth == 1 && isPunct(toks[j], ":")) {
                    colon = j;
                }
            }
            if (colon && close) {
                for (std::size_t j = colon + 1; j < close; ++j) {
                    const bool member =
                        j > colon + 1 && (isPunct(toks[j - 1], ".") ||
                                          isPunct(toks[j - 1], "->"));
                    if (toks[j].kind == Token::Kind::Ident && !member &&
                        names.count(toks[j].text)) {
                        flag(toks[j], toks[j].text);
                        break;
                    }
                }
            }
        }
        // Explicit iterator walk: <unordered var> . begin ( / cbegin (
        if (toks[i].kind == Token::Kind::Ident &&
            names.count(toks[i].text) && i + 2 < toks.size() &&
            (isPunct(toks[i + 1], ".") || isPunct(toks[i + 1], "->")) &&
            (isIdent(toks[i + 2], "begin") ||
             isIdent(toks[i + 2], "cbegin")))
            flag(toks[i], toks[i].text);
    }
}

// ---- R2a: std::function on simulator hot paths. -----------------------

void
checkStdFunction(const SourceFile &f, Diags &out)
{
    const bool hotPath = startsWith(f.relPath, "sim/") ||
                         startsWith(f.relPath, "net/") ||
                         startsWith(f.relPath, "ni/");
    if (!hotPath)
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isIdent(toks[i], "std") && isPunct(toks[i + 1], "::") &&
            isIdent(toks[i + 2], "function")) {
            emit(out, f, toks[i].line, toks[i].col, "std-function",
                 "std::function on a simulator hot path heap-allocates "
                 "per callback; use sim::EventFn (small-buffer, "
                 "move-only) or annotate "
                 "'// pmlint: function-ok(<reason>)'");
        }
    }
}

// ---- R2b: no mutable static state. ------------------------------------

void
checkStaticMutable(const SourceFile &f, Diags &out)
{
    // Mutable static storage outlives the simulation that wrote it:
    // two Systems in one process (or two sweep points on one thread)
    // silently share state that should be per-machine. The rule flags
    // `static` / `thread_local` declarations that are not const,
    // constexpr, or constinit. Function declarations (terminator '(')
    // are fine — they declare code, not state. Known false negative:
    // a namespace-scope global written without either keyword still
    // has static storage duration but is indistinguishable from an
    // expression statement to a token scanner.
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        const bool isStatic = isIdent(t, "static");
        const bool isTls = isIdent(t, "thread_local");
        if (!isStatic && !isTls)
            continue;
        // `static thread_local` (either order) is one declaration;
        // diagnose it once at the first keyword.
        if (i > 0 && (isIdent(toks[i - 1], "static") ||
                      isIdent(toks[i - 1], "thread_local")))
            continue;
        bool immutable = false;
        std::size_t j = i + 1;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks[j], "<")) {
                const std::size_t after = skipTemplateArgs(toks, j);
                if (after >= toks.size())
                    break;
                j = after - 1;
                continue;
            }
            if (isPunct(toks[j], ";") || isPunct(toks[j], "=") ||
                isPunct(toks[j], "{") || isPunct(toks[j], "("))
                break;
            if (isIdent(toks[j], "const") ||
                isIdent(toks[j], "constexpr") ||
                isIdent(toks[j], "constinit"))
                immutable = true;
        }
        if (j >= toks.size() || isPunct(toks[j], "(") || immutable)
            continue;
        emit(out, f, t.line, t.col, "no-static-mutable",
             std::string("mutable ") + (isTls ? "thread_local" : "static") +
                 " state survives across simulations in one process; "
                 "scope it to sim::Context or the owning object, or "
                 "annotate '// pmlint: static-ok(<reason>)'");
    }
}

// ---- R3a: include-guard naming. ---------------------------------------

std::string
expectedGuard(const std::string &relPath)
{
    std::string macro = "PM_";
    for (char c : relPath) {
        if (c == '/' || c == '.' || c == '-')
            macro += '_';
        else
            macro += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
    }
    return macro;
}

void
checkIncludeGuard(const SourceFile &f, Diags &out)
{
    const bool header = f.relPath.size() > 3 &&
                        (f.relPath.rfind(".hh") == f.relPath.size() - 3 ||
                         f.relPath.rfind(".h") == f.relPath.size() - 2);
    if (!header)
        return;
    const std::string macro = expectedGuard(f.relPath);
    const auto &dirs = f.directives;
    const int line = dirs.empty() ? 1 : dirs.front().line;
    const int col = dirs.empty() ? 1 : dirs.front().col;
    const bool ok = dirs.size() >= 2 && dirs[0].name == "ifndef" &&
                    dirs[0].rest == macro && dirs[1].name == "define" &&
                    dirs[1].rest == macro;
    if (!ok)
        emit(out, f, line, col, "include-guard",
             "include guard must be '" + macro +
                 "' (#ifndef/#define pair as the first directives)");
}

// ---- R3b: no iostream. ------------------------------------------------

void
checkIostream(const SourceFile &f, Diags &out)
{
    for (const PpDirective &d : f.directives) {
        if (d.name != "include")
            continue;
        if (startsWith(d.rest, "<iostream>") ||
            startsWith(d.rest, "<iostream "))
            emit(out, f, d.line, d.col, "no-iostream",
                 "iostream is banned in src/ (static init order, "
                 "interleaving with printf logging); use "
                 "sim/logging.hh (pm_inform/pm_warn/pm_panic)");
    }
}

// ---- R3d: no raw process termination. ---------------------------------

void
checkRawAbort(const SourceFile &f, Diags &out)
{
    // The one sanctioned termination point: pm_panic/pm_fatal land
    // here after printing the tick and the System's forensic dump.
    if (f.relPath == "sim/logging.cc")
        return;
    static const std::set<std::string> kTerminators = {
        "abort", "exit", "_Exit", "quick_exit", "terminate",
    };
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Ident || !kTerminators.count(t.text))
            continue;
        // Only a call is banned; same disambiguation as banned-ident.
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
            continue;
        if (i > 0 &&
            (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")))
            continue;
        if (i > 0) {
            const Token &prev = toks[i - 1];
            if (prev.kind == Token::Kind::Ident && prev.text != "return")
                continue;
            if (isPunct(prev, ">") || isPunct(prev, ">>") ||
                isPunct(prev, "&") || isPunct(prev, "*") ||
                isPunct(prev, "~"))
                continue;
        }
        if (i > 0 && isPunct(toks[i - 1], "::")) {
            const bool stdQualified =
                i >= 2 && isIdent(toks[i - 2], "std");
            const bool globalQualified =
                i < 2 || toks[i - 2].kind != Token::Kind::Ident;
            if (!stdQualified && !globalQualified)
                continue;
        }
        emit(out, f, t.line, t.col, "no-raw-abort",
             "raw '" + t.text + "' dies without the simulation tick or "
             "the System's forensic dump; use pm_panic/pm_fatal "
             "(sim/logging.hh) or annotate "
             "'// pmlint: abort-ok(<reason>)'");
    }
}

// ---- R3c: pm_assert conditions must be side-effect free. --------------

void
checkAssertSideEffects(const SourceFile &f, Diags &out)
{
    static const std::set<std::string> kMutating = {
        "++", "--", "=",  "+=", "-=",  "*=",  "/=",
        "%=", "&=", "|=", "^=", "<<=", ">>=",
    };
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "pm_assert") || !isPunct(toks[i + 1], "("))
            continue;
        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")")) {
                if (--depth == 0)
                    break;
            } else if (depth >= 1 && toks[j].kind == Token::Kind::Punct &&
                       kMutating.count(toks[j].text)) {
                emit(out, f, toks[i].line, toks[i].col, "assert-side-effect",
                     "pm_assert condition contains mutating operator '" +
                         toks[j].text +
                         "'; assert expressions must be side-effect "
                         "free (they document invariants, they do not "
                         "implement them)");
                break;
            }
        }
    }
}

// ---- Annotation hygiene. ----------------------------------------------

void
checkAnnotations(const SourceFile &f, Diags &out)
{
    // The known-name list in the message is derived from the live
    // table so it cannot drift from what the link stage accepts.
    std::string known;
    for (const auto &[name, rule] : annotationRules()) {
        if (!known.empty())
            known += ", ";
        known += name;
    }
    for (const Annotation &a : f.annotations) {
        if (a.wellFormed)
            continue;
        out.push_back({f.relPath, a.line, a.col, "annotation",
                       "malformed pmlint annotation '" + a.name +
                           "'; expected '<name>-ok(<non-empty reason>)' "
                           "with name one of: " +
                           known});
    }
}

} // namespace

std::vector<Diagnostic>
checkFile(const SourceFile &f)
{
    Diags out;
    checkBannedIdents(f, out);
    checkUnorderedIteration(f, out);
    checkStdFunction(f, out);
    checkStaticMutable(f, out);
    checkIncludeGuard(f, out);
    checkIostream(f, out);
    checkRawAbort(f, out);
    checkAssertSideEffects(f, out);
    checkAnnotations(f, out);
    return out;
}

} // namespace pmlint
