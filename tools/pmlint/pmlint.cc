/**
 * @file
 * pmlint — simulator-aware static analysis for the PowerMANNA tree.
 *
 * The repo's most valuable verification asset is bit-for-bit run-to-run
 * determinism; pmlint statically fences the hazard classes that have
 * bitten (or nearly bitten) it, plus event-kernel hygiene rules. It is
 * a two-pass, cross-translation-unit analyzer: pass 1 indexes every
 * file into a compact project model (per-file rule findings, lambda
 * captures at EventFn call sites, EventFn sinks, includes); pass 2
 * links all indexes and enforces the cross-TU rules — dangling-capture,
 * layering (include cycles fatal), stale-annotation — then applies
 * suppression annotations.
 * See DESIGN.md "Determinism & event-kernel rules" for each rule's
 * hazard, and tests/pmlint/ for one seeded violation per rule.
 *
 * Paths in diagnostics name each file by its place under the tree's
 * src/, bench/ or tools/ (see lintPath), so path-scoped rules (hot-path
 * dirs, include-guard macros, layers) behave identically wherever the
 * tree is checked out and however a root is spelled. Run it as
 * `pmlint src bench tools` from the repo root.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hh"
#include "link.hh"
#include "model.hh"
#include "parse.hh"
#include "rules.hh"

namespace fs = std::filesystem;

namespace {

constexpr const char *kUsage =
    "usage: pmlint [options] <root>...\n"
    "\n"
    "Two-pass simulator-aware lint for the PowerMANNA tree. Each root\n"
    "is a file or a directory walked recursively for .hh/.h/.cc/.cpp\n"
    "files; pass 1 indexes every file, pass 2 links the indexes and\n"
    "enforces the cross-TU rules (dangling-capture, layering,\n"
    "stale-annotation) on top of the per-file rule set. See DESIGN.md\n"
    "\"Determinism & event-kernel rules\".\n"
    "\n"
    "options:\n"
    "  --jsonl            one JSON object per finding on stdout\n"
    "                     (file, line, col, rule, message) instead of\n"
    "                     the sorted text format\n"
    "  -h, --help         this text\n"
    "\n"
    "exit status:\n"
    "  0  clean (no findings)\n"
    "  1  findings were reported\n"
    "  2  usage error or unreadable input\n";

bool
lintableFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/** A directory holding src/, bench/ and tools/: the tree's top. */
bool
treeTop(const fs::path &dir)
{
    std::error_code ec;
    return fs::is_directory(dir / "src", ec) &&
           fs::is_directory(dir / "bench", ec) &&
           fs::is_directory(dir / "tools", ec);
}

/**
 * The path `file` is linted under, which path-scoped rules (hot-path
 * dirs, include-guard macros, layers) key on. A file in the tree's
 * src/, bench/ or tools/ is named by its place there (`sim/trace.hh`),
 * however its root was spelled: `src`, `src/sim`, `sim` run from src/,
 * or the file itself. Any other file is named relative to `base`.
 */
std::string
lintPath(const fs::path &file, const fs::path &base)
{
    std::error_code ec;
    const fs::path abs = fs::absolute(file, ec).lexically_normal();
    for (fs::path dir = abs.parent_path(); dir.has_relative_path();
         dir = dir.parent_path()) {
        const fs::path name = dir.filename();
        if ((name == "src" || name == "bench" || name == "tools") &&
            treeTop(dir.parent_path()))
            return abs.lexically_relative(dir).generic_string();
    }
    return abs.lexically_relative(fs::absolute(base, ec).lexically_normal())
        .generic_string();
}

/**
 * The directory a file root outside the tree is named from: its first
 * component, the directory root a run on it would start from.
 */
fs::path
fileRootBase(const fs::path &root)
{
    const fs::path p = root.lexically_normal();
    return std::next(p.begin()) == p.end() ? p.parent_path() : *p.begin();
}

/** Collect lintable files under `root` as (lintPath, fullPath). */
std::vector<std::pair<std::string, fs::path>>
collect(const fs::path &root)
{
    std::vector<std::pair<std::string, fs::path>> files;
    if (fs::is_regular_file(root)) {
        files.emplace_back(lintPath(root, fileRootBase(root)), root);
        return files;
    }
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file() || !lintableFile(entry.path()))
            continue;
        files.emplace_back(lintPath(entry.path(), root), entry.path());
    }
    // Directory iteration order is filesystem-defined; sort so pmlint
    // itself is deterministic (it would be embarrassing otherwise).
    std::sort(files.begin(), files.end());
    return files;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> roots;
    bool jsonl = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        }
        if (arg == "--jsonl") {
            jsonl = true;
            continue;
        }
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            std::fprintf(stderr, "pmlint: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
        roots.push_back(arg);
    }
    if (roots.empty()) {
        std::fprintf(stderr,
                     "pmlint: no input roots (try: pmlint src bench "
                     "tools)\n");
        return 2;
    }

    // Pass 1: index every TU.
    std::vector<pmlint::TuIndex> tus;
    for (const std::string &rootArg : roots) {
        std::error_code ec;
        const fs::path root(rootArg);
        if (!fs::exists(root, ec)) {
            std::fprintf(stderr, "pmlint: no such path: %s\n",
                         rootArg.c_str());
            return 2;
        }
        for (const auto &[relPath, fullPath] : collect(root)) {
            std::ifstream in(fullPath, std::ios::binary);
            if (!in) {
                std::fprintf(stderr, "pmlint: cannot read %s\n",
                             fullPath.string().c_str());
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            tus.push_back(
                pmlint::indexFile(pmlint::scan(relPath, text.str())));
        }
    }

    // Pass 2: link.
    const std::vector<pmlint::Diagnostic> diags = pmlint::link(tus);

    if (jsonl) {
        for (const pmlint::Diagnostic &d : diags)
            std::printf("{\"file\":\"%s\",\"line\":%d,\"col\":%d,"
                        "\"rule\":\"%s\",\"message\":\"%s\"}\n",
                        jsonEscape(d.relPath).c_str(), d.line, d.col,
                        jsonEscape(d.rule).c_str(),
                        jsonEscape(d.message).c_str());
        return diags.empty() ? 0 : 1;
    }
    for (const pmlint::Diagnostic &d : diags)
        std::printf("%s:%d:%d: [%s] %s\n", d.relPath.c_str(), d.line,
                    d.col, d.rule.c_str(), d.message.c_str());
    if (!diags.empty()) {
        std::printf("pmlint: %zu finding%s in %zu file%s\n", diags.size(),
                    diags.size() == 1 ? "" : "s", tus.size(),
                    tus.size() == 1 ? "" : "s");
        return 1;
    }
    return 0;
}
