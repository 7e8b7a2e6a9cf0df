#include "parse.hh"

#include <algorithm>
#include <cstddef>
#include <set>

namespace pmlint {

namespace {

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

/**
 * The token walk. This is not a C++ parser: it pattern-matches the
 * three constructs the link stage needs — functions whose parameter
 * list mentions EventFn, lambdas with by-reference captures passed as
 * call arguments, and functions that capture a parameter into a
 * lambda passed to a call. Unknown syntax is skipped, never fatal.
 */
class Indexer
{
  public:
    explicit Indexer(const SourceFile &f)
        : _toks(f.tokens)
    {
    }

    void
    run(TuIndex &out)
    {
        _out = &out;
        for (std::size_t i = 0; i < _toks.size(); ++i)
            i = step(i);
        std::sort(_out->sinks.begin(), _out->sinks.end());
        _out->sinks.erase(
            std::unique(_out->sinks.begin(), _out->sinks.end()),
            _out->sinks.end());
    }

  private:
    const std::vector<Token> &_toks;
    TuIndex *_out = nullptr;

    /**
     * Name of the innermost call the token at `i` is an argument of:
     * scan backward for the first unclosed '(' and take the identifier
     * before it. Empty when `i` is not inside a call's argument list.
     */
    std::string
    enclosingCallee(std::size_t i) const
    {
        int depth = 0;  // unmatched ')' while scanning backward
        int braces = 0; // balanced {...} groups (Tick{10}, lambda body)
        std::size_t steps = 0;
        for (std::size_t j = i; j-- > 0 && steps < 256; ++steps) {
            const Token &t = _toks[j];
            if (isPunct(t, "}")) {
                ++braces;
                continue;
            }
            if (isPunct(t, "{")) {
                if (braces == 0)
                    break; // crossed into an enclosing block: no call
                --braces;
                continue;
            }
            if (braces > 0)
                continue;
            if (isPunct(t, ")")) {
                ++depth;
            } else if (isPunct(t, "(")) {
                if (depth == 0) {
                    if (j > 0 &&
                        _toks[j - 1].kind == Token::Kind::Ident)
                        return _toks[j - 1].text;
                    return "";
                }
                --depth;
            } else if (isPunct(t, ";")) {
                break;
            }
        }
        return "";
    }

    std::size_t
    step(std::size_t i)
    {
        const Token &t = _toks[i];
        if (isIdent(t, "EventFn")) {
            harvestSink(i);
        } else if (isPunct(t, "[")) {
            if (i + 1 < _toks.size() && isPunct(_toks[i + 1], "["))
                return afterAttribute(i);
            if (lambdaIntro(i))
                return lambdaSite(i);
        }
        return i;
    }

    std::size_t
    afterAttribute(std::size_t i)
    {
        // [[nodiscard]] and friends: skip to the closing ]].
        for (std::size_t j = i + 2; j + 1 < _toks.size(); ++j)
            if (isPunct(_toks[j], "]") && isPunct(_toks[j + 1], "]"))
                return j + 1;
        return i + 1;
    }

    bool
    lambdaIntro(std::size_t i) const
    {
        if (i == 0)
            return true;
        const Token &prev = _toks[i - 1];
        if (isIdent(prev, "return"))
            return true;
        if (prev.kind != Token::Kind::Punct)
            return false;
        static const std::set<std::string> k = {
            "(", ",", "=", "{", ";", ":", "&&", "||", "?",
        };
        return k.count(prev.text) > 0;
    }

    std::size_t
    lambdaSite(std::size_t i)
    {
        // Parse the capture list.
        bool byRef = false;
        std::string offending;
        std::set<std::string> captured; //!< Names the captures mention.
        std::size_t close = i + 1;
        {
            int depth = 1;
            std::vector<std::size_t> entry;
            auto flush = [&]() {
                if (entry.empty())
                    return;
                for (std::size_t k : entry)
                    if (_toks[k].kind == Token::Kind::Ident)
                        captured.insert(_toks[k].text);
                const Token &first = _toks[entry[0]];
                if (isPunct(first, "&")) {
                    byRef = true;
                    if (!offending.empty())
                        offending += ",";
                    offending += "&";
                    if (entry.size() > 1 &&
                        _toks[entry[1]].kind == Token::Kind::Ident)
                        offending += _toks[entry[1]].text;
                }
                entry.clear();
            };
            for (; close < _toks.size(); ++close) {
                const Token &t = _toks[close];
                if (isPunct(t, "["))
                    ++depth;
                else if (isPunct(t, "]")) {
                    if (--depth == 0)
                        break;
                } else if (isPunct(t, ",") && depth == 1) {
                    flush();
                    continue;
                }
                if (depth >= 1 && !isPunct(t, "]"))
                    entry.push_back(close);
            }
            flush();
        }
        if (close >= _toks.size())
            return i;
        // Confirm it is a lambda: a parameter list or body follows.
        std::size_t after = close + 1;
        if (after >= _toks.size() ||
            (!isPunct(_toks[after], "(") && !isPunct(_toks[after], "{")))
            return close;

        const std::string callee = enclosingCallee(i);
        if (byRef && !callee.empty())
            _out->lambdas.push_back({_toks[i].line, _toks[i].col, callee,
                                     offending});
        if (!callee.empty())
            noteForward(i, captured, callee);
        // Do not skip the body: nested lambdas inside are walked
        // normally.
        return close;
    }

    /**
     * The function definition whose body encloses token `i`: the index
     * of its name, or 0 when there is none. Blocks of if/for/while/
     * switch/catch, lambda bodies, classes and namespaces are walked
     * out of.
     */
    std::size_t
    enclosingFunction(std::size_t i) const
    {
        static const std::set<std::string> notFunctions = {
            "if", "for", "while", "switch", "catch",
        };
        static const std::set<std::string> qualifiers = {
            "const", "noexcept", "override", "final", "mutable",
        };
        int braces = 0; // balanced {...} groups met scanning backward
        for (std::size_t j = i; j-- > 0;) {
            if (isPunct(_toks[j], "}")) {
                ++braces;
                continue;
            }
            if (!isPunct(_toks[j], "{"))
                continue;
            if (braces > 0) {
                --braces;
                continue;
            }
            // An unclosed '{': a function body when `name(...) quals`
            // comes before it.
            std::size_t k = j;
            while (k > 0 && _toks[k - 1].kind == Token::Kind::Ident &&
                   qualifiers.count(_toks[k - 1].text))
                --k;
            if (k == 0 || !isPunct(_toks[k - 1], ")"))
                continue;
            int depth = 0;
            std::size_t open = k - 1;
            for (; open > 0; --open) {
                if (isPunct(_toks[open], ")"))
                    ++depth;
                else if (isPunct(_toks[open], "(") && --depth == 0)
                    break;
            }
            if (open > 0 && _toks[open - 1].kind == Token::Kind::Ident &&
                !notFunctions.count(_toks[open - 1].text))
                return open - 1;
        }
        return 0;
    }

    /**
     * Record a Forward when the lambda at `i`, passed to `callee`,
     * captures a parameter of the function it sits in. A parameter is
     * an identifier directly followed by ',', ')' or '=' in the
     * function's parameter list.
     */
    void
    noteForward(std::size_t i, const std::set<std::string> &captured,
                const std::string &callee)
    {
        const std::size_t name = enclosingFunction(i);
        if (name == 0)
            return;
        int depth = 0;
        for (std::size_t k = name + 1; k + 1 < _toks.size(); ++k) {
            if (isPunct(_toks[k], "("))
                ++depth;
            else if (isPunct(_toks[k], ")") && --depth == 0)
                return;
            const Token &next = _toks[k + 1];
            if (depth == 1 && _toks[k].kind == Token::Kind::Ident &&
                (isPunct(next, ",") || isPunct(next, ")") ||
                 isPunct(next, "=")) &&
                captured.count(_toks[k].text)) {
                _out->forwards.push_back({_toks[name].text, callee});
                return;
            }
        }
    }

    /** A function whose parameter list mentions EventFn is a sink. */
    void
    harvestSink(std::size_t i)
    {
        const std::string callee = enclosingCallee(i);
        if (!callee.empty())
            _out->sinks.push_back(callee);
    }
};

} // namespace

TuIndex
indexFile(const SourceFile &f)
{
    TuIndex tu;
    tu.relPath = f.relPath;
    tu.findings = checkFile(f);
    tu.annotations = f.annotations;
    for (const PpDirective &d : f.directives) {
        if (d.name != "include" || d.rest.empty() || d.rest[0] != '"')
            continue;
        const std::size_t close = d.rest.find('"', 1);
        if (close == std::string::npos)
            continue;
        tu.includes.push_back({d.line, d.col, d.rest.substr(1, close - 1)});
    }
    Indexer(f).run(tu);
    return tu;
}

} // namespace pmlint
