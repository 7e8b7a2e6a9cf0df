/**
 * @file
 * Tests for the strict CLI number/axis parsing (sim/parse.hh) that
 * pmsim and the benches share, and for pmsim's comm job spec
 * (cli/jobspec.hh). The negative paths are the point: every one of
 * these inputs used to be silently accepted (by the strto* family as
 * 0 or a junk-truncated prefix, or by a parser that let the machine
 * pm_fatal mid-run) and silently changed what the tool simulated.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/jobspec.hh"
#include "mem/policy.hh"
#include "sim/parse.hh"

namespace {

using namespace pm;
using namespace pm::sim;

// ---- u64 / u32. -----------------------------------------------------------

TEST(CliParse, U64AcceptsWholeNumbers)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parse::u64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parse::u64("262144", v));
    EXPECT_EQ(v, 262144u);
    EXPECT_TRUE(parse::u64("0x40", v)); // base 0: hex accepted
    EXPECT_EQ(v, 64u);
    EXPECT_TRUE(parse::u64("18446744073709551615", v));
    EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(CliParse, U64RejectsGarbageSignsAndOverflow)
{
    std::uint64_t v = 42;
    EXPECT_FALSE(parse::u64(nullptr, v));
    EXPECT_FALSE(parse::u64("", v));
    EXPECT_FALSE(parse::u64("abc", v));
    EXPECT_FALSE(parse::u64("12abc", v)); // trailing junk
    EXPECT_FALSE(parse::u64("12 ", v));
    EXPECT_FALSE(parse::u64(" 12", v));
    EXPECT_FALSE(parse::u64("-3", v)); // strtoull would wrap this
    EXPECT_FALSE(parse::u64("+3", v));
    EXPECT_FALSE(parse::u64("18446744073709551616", v)); // 2^64
    EXPECT_EQ(v, 42u); // out untouched on failure
}

TEST(CliParse, U32RejectsBeyondUnsigned)
{
    unsigned v = 7;
    EXPECT_TRUE(parse::u32("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
    EXPECT_FALSE(parse::u32("4294967296", v));
    EXPECT_FALSE(parse::u32("junk", v));
}

// ---- f64. -----------------------------------------------------------------

TEST(CliParse, F64AcceptsFiniteNumbers)
{
    double v = 0.0;
    EXPECT_TRUE(parse::f64("2.746", v));
    EXPECT_DOUBLE_EQ(v, 2.746);
    EXPECT_TRUE(parse::f64("-1e-9", v));
    EXPECT_DOUBLE_EQ(v, -1e-9);
}

TEST(CliParse, F64RejectsJunkAndNonFinite)
{
    double v = 1.0;
    EXPECT_FALSE(parse::f64("", v));
    EXPECT_FALSE(parse::f64("1.5x", v));
    EXPECT_FALSE(parse::f64(" 1.5", v));
    EXPECT_FALSE(parse::f64("nan", v));
    EXPECT_FALSE(parse::f64("inf", v));
    EXPECT_FALSE(parse::f64("1e999", v)); // overflows to inf
}

// ---- axisSpec. ------------------------------------------------------------

TEST(CliParse, AxisSpecExpandsAdditiveRanges)
{
    parse::AxisSpec spec;
    std::string err;
    ASSERT_TRUE(parse::axisSpec("nodes=2:8:2", spec, err)) << err;
    EXPECT_EQ(spec.axis, "nodes");
    ASSERT_EQ(spec.values.size(), 4u);
    EXPECT_DOUBLE_EQ(spec.values[0], 2.0);
    EXPECT_DOUBLE_EQ(spec.values[3], 8.0);
}

TEST(CliParse, AxisSpecExpandsGeometricRangesInclusively)
{
    parse::AxisSpec spec;
    std::string err;
    ASSERT_TRUE(parse::axisSpec("bytes=8:64:*2", spec, err)) << err;
    EXPECT_EQ(spec.axis, "bytes");
    ASSERT_EQ(spec.values.size(), 4u); // 8 16 32 64 — endpoint included
    EXPECT_DOUBLE_EQ(spec.values[3], 64.0);
}

TEST(CliParse, AxisSpecAcceptsSinglePointRange)
{
    parse::AxisSpec spec;
    std::string err;
    ASSERT_TRUE(parse::axisSpec("bytes=64:64:*2", spec, err)) << err;
    ASSERT_EQ(spec.values.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.values[0], 64.0);
}

TEST(CliParse, AxisSpecRejectsMalformedShapes)
{
    parse::AxisSpec spec;
    std::string err;
    EXPECT_FALSE(parse::axisSpec("garbage", spec, err));
    EXPECT_NE(err.find("expected <axis>="), std::string::npos) << err;
    EXPECT_FALSE(parse::axisSpec("bytes=8:64", spec, err)); // missing step
    EXPECT_FALSE(parse::axisSpec("=8:64:*2", spec, err)); // empty axis
    EXPECT_NE(err.find("empty axis"), std::string::npos) << err;
}

TEST(CliParse, AxisSpecRejectsTrailingJunk)
{
    parse::AxisSpec spec;
    std::string err;
    // The original bug: strtod dropped the 'x' and swept to 64 by 2.
    EXPECT_FALSE(parse::axisSpec("bytes=8:64:2x", spec, err));
    EXPECT_NE(err.find("non-numeric"), std::string::npos) << err;
    EXPECT_FALSE(parse::axisSpec("bytes=8z:64:2", spec, err));
    EXPECT_FALSE(parse::axisSpec("bytes=8:64q:2", spec, err));
}

TEST(CliParse, AxisSpecRejectsNonAdvancingSteps)
{
    parse::AxisSpec spec;
    std::string err;
    // Any of these would loop forever (or backwards) when expanded.
    EXPECT_FALSE(parse::axisSpec("bytes=8:64:0", spec, err));
    EXPECT_NE(err.find("step must be"), std::string::npos) << err;
    EXPECT_FALSE(parse::axisSpec("bytes=8:64:-4", spec, err));
    EXPECT_FALSE(parse::axisSpec("bytes=8:64:*1", spec, err));
    EXPECT_FALSE(parse::axisSpec("bytes=8:64:*0.5", spec, err));
    EXPECT_FALSE(parse::axisSpec("bytes=0:64:*2", spec, err)); // lo <= 0
}

TEST(CliParse, AxisSpecRejectsEmptyRange)
{
    parse::AxisSpec spec;
    std::string err;
    EXPECT_FALSE(parse::axisSpec("bytes=64:8:*2", spec, err));
    EXPECT_NE(err.find("hi < lo"), std::string::npos) << err;
}

TEST(CliParse, AxisSpecRejectsRunawayExpansion)
{
    parse::AxisSpec spec;
    std::string err;
    EXPECT_FALSE(parse::axisSpec("bytes=1:1e9:1", spec, err));
    EXPECT_NE(err.find(">100000 points"), std::string::npos) << err;
}

// ---- JobSpec. -------------------------------------------------------------

std::vector<std::string>
tok(std::initializer_list<const char *> ts)
{
    return {ts.begin(), ts.end()};
}

TEST(JobSpec, ParsesDefaultsAndFlags)
{
    cli::JobSpec spec;
    std::string err;
    ASSERT_TRUE(cli::JobSpec::parse({}, spec, err)) << err;
    EXPECT_EQ(spec.machine, "powermanna");
    EXPECT_EQ(spec.op, "latency");
    EXPECT_EQ(spec.numPoints(), 1u);

    ASSERT_TRUE(cli::JobSpec::parse(
                    tok({"--op", "soak", "--bytes=64", "--count", "16",
                         "--fault-ber", "1e-6", "--sweep",
                         "bytes=8:64:*2", "--jobs", "4"}),
                    spec, err))
        << err;
    EXPECT_EQ(spec.op, "soak");
    EXPECT_EQ(spec.count, 16u);
    EXPECT_EQ(spec.jobs, 4u);
    EXPECT_EQ(spec.numPoints(), 4u);
    EXPECT_EQ(spec.pointLabel(3), "bytes=64");
    spec.applyAxisValue(spec.sweep.axis, spec.sweep.values[3]);
    EXPECT_EQ(spec.bytes, 64u);
}

TEST(JobSpec, RejectsBadSpecsWithDiagnostics)
{
    cli::JobSpec spec;
    std::string err;
    // Each bad spec, and a piece of text its diagnostic must contain.
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        bad = {
            {tok({"--machine", "cray"}), "cray"},
            {tok({"--no-such-flag", "1"}), "--no-such-flag"},
            {tok({"positional"}), "positional"},
            {tok({"--bytes", "64k"}), "--bytes"},
            {tok({"--src", "0", "--dst", "0"}), "--src"},
            {tok({"--src", "99"}), "--src"},
            {tok({"--fault-ber", "1.5"}), "--fault-ber"},
            {tok({"--op", "teleport"}), "teleport"},
            {tok({"--watchdog-deadline", "100"}), "--watchdog-deadline"},
            // Removed flags stay rejected.
            {tok({"--kernel-threads", "4"}), "--kernel-threads"},
            {tok({"--strict"}), "--strict"},
            {tok({"--sweep", "bogus"}), "--sweep"},
            {tok({"--sweep", "warp=1:2:1"}), "warp"},
            {tok({"--sweep", "nodes=1:64:*2", "--src", "32"}),
             "--sweep point nodes=1"},
            {tok({"--fault-link-down", "5"}), "--fault-link-down"},
            // Times that convert to 0 ticks or overflow a Tick.
            {tok({"--watchdog", "0.0000001", "--op", "latency"}),
             "--watchdog"},
            {tok({"--watchdog", "1e300", "--op", "latency"}),
             "--watchdog"},
            {tok({"--watchdog", "1", "--watchdog-deadline", "0.0000001"}),
             "--watchdog"},
            {tok({"--watchdog", "1e13"}),
             "--watchdog"}, // default deadline overflows
            {tok({"--fault-link-down", "0:1e300"}), "--fault-link-down"},
            {tok({"--fault-link-down", "0.0000012:0.0000017"}),
             "--fault-link-down"}, // both ends round to tick 1
            // Machines the fabric cannot build: 16-port crossbars.
            {tok({"--clusters", "17"}), "--clusters 17"},
            {tok({"--clusters", "2", "--nodes", "13"}), "--nodes 13"},
            {tok({"--clusters", "2", "--nodes", "1", "--uplinks",
                  "4294967295"}),
             "--nodes 1"}, // nodes + uplinks wraps an unsigned
            // Messages the driver cannot send.
            {tok({"--bytes", "524288"}), "--bytes 524288"},
            {tok({"--op", "gap", "--count", "30001"}), "--count 30001"},
            {tok({"--op", "unibw", "--count", "30001"}), "--count 30001"},
            {tok({"--op", "bibw", "--count", "30001"}), "--count 30001"},
            // Sweeps whose later points are out of range.
            {tok({"--op", "latency", "--sweep", "nodes=2:32:*2"}),
             "--sweep point nodes=32"},
            {tok({"--op", "latency", "--sweep",
                  "bytes=131072:1048576:*2"}),
             "--sweep point bytes=524288"},
            {tok({"--sweep", "count=1:1e10:*10"}),
             "--sweep point count=1e+10"},
        };
    for (const auto &[tokens, needle] : bad) {
        err.clear();
        EXPECT_FALSE(cli::JobSpec::parse(tokens, spec, err))
            << "accepted: " << tokens.front();
        EXPECT_NE(err.find(needle), std::string::npos)
            << tokens.front() << ": " << err;
    }
}

TEST(JobSpec, AcceptsTheMachineLimits)
{
    // The largest machine each limit allows still parses.
    cli::JobSpec spec;
    std::string err;
    for (const auto &tokens :
         {tok({"--clusters", "16", "--nodes", "12"}),
          tok({"--nodes", "16"}), tok({"--bytes", "524280"}),
          tok({"--op", "gap", "--count", "30000"}),
          tok({"--op", "soak", "--count", "30001"}),
          tok({"--fault-link-down", "0:2000"}),
          tok({"--op", "latency", "--sweep", "nodes=2:16:*2"})})
        EXPECT_TRUE(cli::JobSpec::parse(tokens, spec, err))
            << tokens.front() << ": " << err;
    EXPECT_EQ(spec.numPoints(), 4u);
}

TEST(JobSpec, PolicyFlagsParseWithResolvedDefaults)
{
    cli::JobSpec spec;
    std::string err;
    ASSERT_TRUE(cli::JobSpec::parse({}, spec, err)) << err;
    EXPECT_EQ(spec.coherence, mem::CoherenceKind::Mesi);
    EXPECT_EQ(spec.transport, mem::TransportKind::Snoop);
    EXPECT_EQ(spec.nodeCpus, 0u); // the machine's own count

    ASSERT_TRUE(cli::JobSpec::parse(
                    tok({"--coherence", "msi", "--transport", "dir",
                         "--node-cpus", "4"}),
                    spec, err))
        << err;
    EXPECT_EQ(spec.coherence, mem::CoherenceKind::Msi);
    EXPECT_EQ(spec.transport, mem::TransportKind::Directory);
    EXPECT_EQ(spec.nodeCpus, 4u);
}

TEST(JobSpec, PolicyFlagsRejectBadValuesWithDiagnostics)
{
    cli::JobSpec spec;
    std::string err;
    const std::vector<std::vector<std::string>> bad = {
        tok({"--coherence", "moesi"}),
        tok({"--replacement", "lru"}), // LRU is the only replacement
        tok({"--transport", "mesh"}),
        tok({"--node-cpus", "0"}),
        tok({"--node-cpus", "9"}), // beyond the paper's design study
        // A circuit-switched bus master holds the broadcast phase by
        // construction; the directory needs split transactions.
        tok({"--transport", "dir", "--machine", "pc180"}),
    };
    for (const auto &tokens : bad) {
        err.clear();
        EXPECT_FALSE(cli::JobSpec::parse(tokens, spec, err))
            << "accepted: " << tokens.front();
        EXPECT_FALSE(err.empty()) << tokens.front();
    }
    // The rejection names the offending machine, not just the flag.
    cli::JobSpec s2;
    err.clear();
    ASSERT_FALSE(cli::JobSpec::parse(
        tok({"--transport", "dir", "--machine", "pc180"}), s2, err));
    EXPECT_NE(err.find("pc180"), std::string::npos) << err;
}

// ---- runPoint. ------------------------------------------------------------

TEST(RunPoint, SpelledOutDefaultsMatchNoFlags)
{
    // "--bytes 8" spelled out and no flag at all are the same job.
    cli::JobSpec dflt;
    cli::JobSpec explicitDflt;
    std::string err;
    ASSERT_TRUE(cli::JobSpec::parse(tok({"--stats"}), dflt, err)) << err;
    ASSERT_TRUE(cli::JobSpec::parse(
                    tok({"--stats", "--bytes", "8", "--op", "latency",
                         "--machine", "powermanna"}),
                    explicitDflt, err))
        << err;
    const std::string row = cli::runPoint(dflt);
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(cli::runPoint(explicitDflt), row);

    // A scheduling knob must not change the row...
    cli::JobSpec jobs;
    ASSERT_TRUE(
        cli::JobSpec::parse(tok({"--stats", "--jobs", "7"}), jobs, err))
        << err;
    EXPECT_EQ(cli::runPoint(jobs), row);
    // ...but a semantic field must.
    cli::JobSpec bytes;
    ASSERT_TRUE(
        cli::JobSpec::parse(tok({"--stats", "--bytes", "16"}), bytes, err))
        << err;
    EXPECT_NE(cli::runPoint(bytes), row);
}

TEST(RunPoint, SpelledOutPolicyDefaultsMatchNoFlags)
{
    // Every memory-policy default spelled out is the same job as none.
    cli::JobSpec dflt;
    cli::JobSpec explicitDflt;
    std::string err;
    ASSERT_TRUE(cli::JobSpec::parse(tok({"--stats"}), dflt, err)) << err;
    ASSERT_TRUE(cli::JobSpec::parse(
                    tok({"--stats", "--coherence", "mesi", "--transport",
                         "snoop", "--node-cpus", "2"}),
                    explicitDflt, err))
        << err;
    const std::string row = cli::runPoint(dflt);
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(cli::runPoint(explicitDflt), row);

    // The policy flags reach the machine runPoint() builds: the latency
    // probe sees the node's coherence transport change.
    cli::JobSpec dir;
    ASSERT_TRUE(cli::JobSpec::parse(tok({"--stats", "--transport", "dir"}),
                                    dir, err))
        << err;
    EXPECT_NE(cli::runPoint(dir), row);
}

TEST(RunPoint, ByteIdenticalAcrossThreads)
{
    cli::JobSpec spec;
    std::string err;
    ASSERT_TRUE(cli::JobSpec::parse(
        tok({"--op", "latency", "--bytes", "8", "--stats"}), spec, err));
    const std::string solo = cli::runPoint(spec);
    ASSERT_FALSE(solo.empty());
    std::vector<std::string> rows(3);
    std::vector<std::thread> threads;
    for (auto &out : rows)
        threads.emplace_back(
            [&spec, &out] { out = cli::runPoint(spec); });
    for (auto &t : threads)
        t.join();
    for (const auto &row : rows)
        EXPECT_EQ(row, solo);
}

} // namespace
