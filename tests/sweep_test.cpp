/**
 * @file
 * Tests for the thread-parallel sweep harness (sim/sweep.hh) and the
 * per-simulation Context isolation it depends on.
 *
 * The two load-bearing guarantees:
 *  - Determinism: a sweep's per-point results (row strings AND the
 *    forensic dump each point's System would produce) are byte-equal
 *    whether the points run sequentially or on four threads.
 *  - Failure propagation: a panicking point (an injected panic or a
 *    watchdog trip) surfaces as a Failure carrying that point's own
 *    message and forensic dump, while its sibling points complete
 *    normally.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/jobspec.hh"
#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/context.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"

namespace {

using namespace pm;

msg::SystemParams
twoNodeParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    return sp;
}

/** One Fig 9-style point: a latency row plus the System's forensic
 *  dump (the per-point "stats" a failure would report). */
struct LatencyPoint
{
    std::string row;
    std::string dump;
};

LatencyPoint
measurePoint(unsigned bytes)
{
    msg::System sys(twoNodeParams());
    LatencyPoint res;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%u %.3f", bytes,
                  msg::measureOneWayLatencyUs(sys, 0, 1, bytes, 4));
    res.row = buf;
    std::ostringstream os;
    sys.health().dump(os);
    res.dump = os.str();
    return res;
}

std::vector<LatencyPoint>
runLatencySweep(unsigned jobs)
{
    const std::vector<unsigned> sizes{8u, 64u, 512u, 4096u};
    sim::sweep::Options opt;
    opt.jobs = jobs;
    const auto report = sim::sweep::map(
        sizes,
        [](unsigned bytes, const sim::sweep::Point &) {
            return measurePoint(bytes);
        },
        opt);
    EXPECT_TRUE(report.ok());
    return report.results;
}

TEST(Sweep, PointSeedIsDeterministicAndPerPointDistinct)
{
    const std::uint64_t a = sim::sweep::pointSeed(7, 0);
    EXPECT_EQ(a, sim::sweep::pointSeed(7, 0));
    EXPECT_NE(a, sim::sweep::pointSeed(7, 1));
    EXPECT_NE(a, sim::sweep::pointSeed(8, 0));
}

TEST(Sweep, ResultsArriveInWorkListOrder)
{
    sim::sweep::Options opt;
    opt.jobs = 4;
    const auto report = sim::sweep::run(
        16, [](const sim::sweep::Point &pt) { return pt.index * 10; },
        opt);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.results.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(report.results[i], i * 10);
}

TEST(Sweep, ConcurrentRunIsByteIdenticalToSequential)
{
    const auto seq = runLatencySweep(1);
    const auto par = runLatencySweep(4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].row, par[i].row) << "point " << i;
        EXPECT_EQ(seq[i].dump, par[i].dump) << "point " << i;
        EXPECT_FALSE(seq[i].dump.empty()) << "point " << i;
    }
}

TEST(Sweep, FailingPointReportsItsOwnDumpAndSiblingsComplete)
{
    constexpr std::size_t kBad = 2;
    sim::sweep::Options opt;
    opt.jobs = 4;
    const auto report = sim::sweep::run(
        6,
        [](const sim::sweep::Point &pt) {
            msg::System sys(twoNodeParams());
            const double lat =
                msg::measureOneWayLatencyUs(sys, 0, 1, 8, 2);
            if (pt.index == kBad) {
                sim::Context::Scope scope(sys.context());
                pm_panic("injected failure at point %zu", pt.index);
            }
            return lat;
        },
        opt);

    ASSERT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 1u);
    const sim::sweep::Failure &f = report.firstFailure();
    EXPECT_EQ(f.index, kBad);
    EXPECT_NE(f.message.find("injected failure at point 2"),
              std::string::npos)
        << f.message;
    // The dump is the *failing point's* forensics: its System's health
    // monitor ran inside the panic, on the worker thread.
    EXPECT_NE(f.dump.find("=== health dump"), std::string::npos)
        << f.dump;

    // Every sibling completed with a real measurement.
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        if (i == kBad)
            continue;
        EXPECT_GT(report.results[i], 0.0) << "point " << i;
    }
}

TEST(Sweep, FailuresAreSortedByIndex)
{
    sim::sweep::Options opt;
    opt.jobs = 4;
    const auto report = sim::sweep::run(
        8,
        [](const sim::sweep::Point &pt) {
            if (pt.index % 2 == 1)
                pm_panic("odd point %zu", pt.index);
            return pt.index;
        },
        opt);
    ASSERT_EQ(report.failures.size(), 4u);
    for (std::size_t i = 0; i < report.failures.size(); ++i)
        EXPECT_EQ(report.failures[i].index, 2 * i + 1);
    EXPECT_EQ(report.firstFailure().index, 1u);
}

TEST(Sweep, CancelPresetSkipsEveryPoint)
{
    // A cancel flag already true when the sweep starts means no point
    // is ever claimed: completed stays all-zero and ok() still holds —
    // cancellation is not a failure.
    std::atomic<bool> cancel{true};
    sim::sweep::Options opt;
    opt.jobs = 4;
    opt.cancel = &cancel;
    std::atomic<unsigned> ran{0};
    const auto report = sim::sweep::run(
        8,
        [&ran](const sim::sweep::Point &pt) {
            ++ran;
            return pt.index;
        },
        opt);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(ran.load(), 0u);
    EXPECT_EQ(report.completedCount(), 0u);
    ASSERT_EQ(report.completed.size(), 8u);
    for (const auto c : report.completed)
        EXPECT_EQ(c, 0);
}

TEST(Sweep, CancelMidSweepKeepsCompletedPointsIntact)
{
    // Fire the cancel flag from inside point 2; with one worker the
    // claim order is the index order, so points 0..2 complete (the one
    // in flight drains normally) and 3..7 are never started.
    std::atomic<bool> cancel{false};
    sim::sweep::Options opt;
    opt.jobs = 1;
    opt.cancel = &cancel;
    const auto report = sim::sweep::run(
        8,
        [&cancel](const sim::sweep::Point &pt) {
            if (pt.index == 2)
                cancel.store(true);
            return pt.index * 10;
        },
        opt);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.completedCount(), 3u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(report.completed[i], i <= 2 ? 1 : 0) << "point " << i;
        if (i <= 2) {
            EXPECT_EQ(report.results[i], i * 10);
        }
    }
}

TEST(Sweep, CompletedFlagsAllSetOnACleanRun)
{
    sim::sweep::Options opt;
    opt.jobs = 4;
    const auto report = sim::sweep::run(
        5, [](const sim::sweep::Point &pt) { return pt.index; }, opt);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.completedCount(), 5u);
}

TEST(Sweep, PanickingAndWedgedPointsIsolateFromSurvivors)
{
    // Four points on four workers: two healthy measurements, two jobs
    // wedged behind a dead link with different virtual-time deadlines.
    // The wedged points must each trip *their own* watchdog (distinct
    // trip ticks prove the traps did not cross) and carry their own
    // forensic dump, while the survivors' rows are byte-identical to
    // solo runs.
    std::string err;
    cli::JobSpec healthy8;
    ASSERT_TRUE(cli::JobSpec::parse({"--op", "latency", "--bytes", "8"},
                                    healthy8, err));
    cli::JobSpec healthy64;
    ASSERT_TRUE(cli::JobSpec::parse(
        {"--op", "unibw", "--bytes", "65536", "--count", "16"}, healthy64,
        err));
    cli::JobSpec wedge500;
    ASSERT_TRUE(cli::JobSpec::parse(
        {"--op", "soak", "--bytes", "256", "--count", "8",
         "--fault-link-down", "0:1000000000", "--watchdog", "62.5",
         "--watchdog-deadline", "500"},
        wedge500, err))
        << err;
    cli::JobSpec wedge300 = wedge500;
    wedge300.watchdogUs = 300.0 / 8.0;
    wedge300.watchdogDeadlineUs = 300.0;

    const std::string solo8 = cli::runPoint(healthy8);
    const std::string solo64 = cli::runPoint(healthy64);

    const std::vector<const cli::JobSpec *> specs{
        &healthy8, &wedge500, &healthy64, &wedge300};
    sim::sweep::Options opt;
    opt.jobs = 4;
    const auto report = sim::sweep::map(
        specs,
        [](const cli::JobSpec *spec, const sim::sweep::Point &) {
            return cli::runPoint(*spec);
        },
        opt);

    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].index, 1u);
    EXPECT_EQ(report.failures[1].index, 3u);
    EXPECT_NE(report.failures[0].message.find("watchdog tripped"),
              std::string::npos);
    EXPECT_NE(report.failures[0].message.find("tick 500000000"),
              std::string::npos)
        << report.failures[0].message;
    EXPECT_NE(report.failures[1].message.find("tick 300000000"),
              std::string::npos)
        << report.failures[1].message;
    for (const auto &f : report.failures)
        EXPECT_NE(f.dump.find("=== health dump"), std::string::npos);

    EXPECT_EQ(report.results[0], solo8);
    EXPECT_EQ(report.results[2], solo64);
    EXPECT_EQ(report.completedCount(), 2u);
}

TEST(Context, ScopeBindsAndRestoresCurrent)
{
    sim::Context &base = sim::Context::current();
    sim::Context mine;
    {
        sim::Context::Scope scope(mine);
        EXPECT_EQ(&sim::Context::current(), &mine);
        sim::Context inner;
        {
            sim::Context::Scope nested(inner);
            EXPECT_EQ(&sim::Context::current(), &inner);
        }
        EXPECT_EQ(&sim::Context::current(), &mine);
    }
    EXPECT_EQ(&sim::Context::current(), &base);
}

TEST(Context, SystemsKeepTheirForensicsApart)
{
    msg::System a(twoNodeParams());
    msg::System b(twoNodeParams());
    EXPECT_NE(&a.context(), &b.context());
    EXPECT_EQ(a.context().monitor(), &a.health());
    EXPECT_EQ(b.context().monitor(), &b.health());

    // A panic trapped while A is bound carries A's dump; B's monitor
    // never dumps. (The trap converts the panic into an exception.)
    sim::PanicTrap trap;
    sim::Context::Scope scope(a.context());
    try {
        pm_panic("context isolation probe");
        FAIL() << "pm_panic returned";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("context isolation probe"),
                  std::string::npos);
        EXPECT_NE(e.dump().find("=== health dump"), std::string::npos);
    }
}

} // namespace
