/**
 * @file
 * Tests for the benchmark workloads: MatMult (work accounting, odd
 * strides, row partitioning, version behaviour), HINT (curve shape,
 * quality), MemStream, and the runner (speedup sanity, warm-run
 * determinism).
 */

#include <gtest/gtest.h>

#include "machines/machines.hh"
#include "node/node.hh"
#include "workloads/hint.hh"
#include "workloads/matmult.hh"
#include "workloads/runner.hh"
#include "workloads/stream.hh"

#include "cpu/sched.hh"

namespace {

using namespace pm;
using namespace pm::workloads;

node::NodeParams
testNode()
{
    return machines::powerManna();
}

TEST(MatMult, RowStrideIsOddNumberOfLines)
{
    for (unsigned n : {16u, 48u, 64u, 100u, 256u, 511u}) {
        MatMultParams p;
        p.n = n;
        MatMult m(p);
        EXPECT_GE(m.rowBytes(), n * 8ull);
        EXPECT_EQ((m.rowBytes() / 64) % 2, 1u) << "n=" << n;
    }
}

TEST(MatMult, FlopCountMatchesWork)
{
    node::Node node(testNode());
    auto r = runMatMult(node, 32, false, 1);
    // Full run: n^3 multiply-adds = 2 n^3 flops.
    EXPECT_EQ(r.flops, 2ull * 32 * 32 * 32);
}

TEST(MatMult, RowSamplingScalesWork)
{
    node::Node node(testNode());
    auto r = runMatMult(node, 64, false, 1, 16);
    EXPECT_EQ(r.flops, 2ull * 64 * 64 * 16);
}

TEST(MatMult, DualCpuSplitsRowsEvenly)
{
    MatMultParams p0;
    p0.n = 33;
    p0.cpuIndex = 0;
    p0.cpuCount = 2;
    MatMultParams p1 = p0;
    p1.cpuIndex = 1;
    MatMult m0(p0), m1(p1);
    EXPECT_EQ(m0.myRows() + m1.myRows(), 33u);
    EXPECT_LE(m0.myRows() - m1.myRows(), 1u);
}

TEST(MatMult, CooperativeRunSumsToFullWork)
{
    node::Node node(testNode());
    auto r = runMatMult(node, 32, true, 2);
    EXPECT_EQ(r.flops, 2ull * 32 * 32 * 32);
    EXPECT_EQ(r.cpus, 2u);
}

TEST(MatMult, TransposedBeatsNaiveOnLargeMatrices)
{
    node::Node node(testNode());
    auto naive = runMatMult(node, 512, false, 1, 12);
    auto trans = runMatMult(node, 512, true, 1, 12);
    EXPECT_GT(trans.mflops(), 1.5 * naive.mflops());
}

TEST(MatMult, MflopsArePlausible)
{
    node::Node node(testNode());
    auto r = runMatMult(node, 96, true, 1, 24);
    EXPECT_GT(r.mflops(), 20.0);
    EXPECT_LT(r.mflops(), 400.0); // bounded by 2 flops/cycle at 180 MHz
}

TEST(MatMult, IndependentCopiesDoubleTheWork)
{
    node::Node node(testNode());
    auto coop = runMatMult(node, 32, false, 2, 0, false);
    auto indep = runMatMult(node, 32, false, 2, 0, true);
    EXPECT_EQ(indep.flops, 2 * coop.flops);
}

TEST(Hint, ProducesOnePointPerSize)
{
    node::Node node(testNode());
    HintParams hp;
    hp.minLog2m = 8;
    hp.maxLog2m = 12;
    auto pts = runHint(node, hp);
    ASSERT_EQ(pts.size(), 5u);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(pts[i].subintervals, 1ull << (8 + i));
        EXPECT_EQ(pts[i].workingSetBytes,
                  pts[i].subintervals * Hint::kRecordBytes);
    }
}

TEST(Hint, QualityIsLinearInSubintervals)
{
    node::Node node(testNode());
    HintParams hp;
    hp.minLog2m = 8;
    hp.maxLog2m = 10;
    auto pts = runHint(node, hp);
    // Quality ~ m (the integration method's linear improvement).
    EXPECT_NEAR(pts[1].quality / pts[0].quality, 2.0, 0.05);
    EXPECT_NEAR(pts[2].quality / pts[1].quality, 2.0, 0.05);
}

TEST(Hint, ElapsedGrowsWithSize)
{
    node::Node node(testNode());
    HintParams hp;
    hp.minLog2m = 8;
    hp.maxLog2m = 13;
    auto pts = runHint(node, hp);
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_GT(pts[i].elapsed, pts[i - 1].elapsed);
}

TEST(Hint, QuipsDropWhenCachesOverflow)
{
    node::Node node(testNode());
    HintParams hp;
    hp.minLog2m = 10; // 32 KB
    hp.maxLog2m = 18; // 8 MB >> 2 MB L2
    auto pts = runHint(node, hp);
    // The cached region must outperform the memory region clearly.
    double peak = 0.0;
    for (const auto &p : pts)
        peak = std::max(peak, p.quips());
    EXPECT_GT(peak, 2.0 * pts.back().quips());
}

TEST(Hint, IntAndDoubleDiffer)
{
    node::Node node(testNode());
    HintParams d;
    d.minLog2m = 10;
    d.maxLog2m = 12;
    auto pd = runHint(node, d);
    HintParams i = d;
    i.type = HintType::Int;
    auto pi = runHint(node, i);
    EXPECT_NE(pd[0].elapsed, pi[0].elapsed);
}

TEST(Hint, RejectsBadRange)
{
    HintParams hp;
    hp.minLog2m = 12;
    hp.maxLog2m = 8;
    EXPECT_EXIT(Hint{hp}, ::testing::ExitedWithCode(1), "bad size range");
}

TEST(Hint, AcceptsSizesUpToTheNamedBound)
{
    HintParams hp;
    hp.minLog2m = kHintMaxLog2m;
    hp.maxLog2m = kHintMaxLog2m;
    const Hint top(hp); // Constructing runs nothing.
    EXPECT_TRUE(top.points().empty());
    hp.maxLog2m = kHintMaxLog2m + 1;
    EXPECT_EXIT(Hint{hp}, ::testing::ExitedWithCode(1), "bad size range");
}

TEST(Hint, RejectsAShiftWiderThan64BitsBeforeShifting)
{
    // 1 << 64 is undefined; the range check must come first.
    HintParams hp;
    hp.minLog2m = 64;
    hp.maxLog2m = 64;
    EXPECT_EXIT(Hint{hp}, ::testing::ExitedWithCode(1), "bad size range");
}

TEST(MemStream, SweepsExactByteCount)
{
    node::Node node(testNode());
    node.reset();
    MemStreamParams p;
    p.bytes = 64 * 1024;
    p.passes = 3;
    MemStream s(p);
    std::vector<cpu::Job> jobs{{&node.proc(0), &s}};
    cpu::runJobs(jobs);
    EXPECT_EQ(s.bytesDone(), 3ull * 64 * 1024);
}

TEST(MemStream, StoresAddBusWrites)
{
    node::Node a(testNode()), b(testNode());
    a.reset();
    b.reset();
    MemStreamParams ro;
    ro.bytes = 256 * 1024;
    MemStreamParams rw = ro;
    rw.storeEvery = 2;
    MemStream sro(ro), srw(rw);
    std::vector<cpu::Job> j1{{&a.proc(0), &sro}};
    std::vector<cpu::Job> j2{{&b.proc(0), &srw}};
    cpu::runJobs(j1);
    cpu::runJobs(j2);
    EXPECT_GT(b.proc(0).stores.value(), a.proc(0).stores.value());
    EXPECT_GT(b.proc(0).time(), a.proc(0).time());
}

TEST(Runner, DualIndependentSpeedupNearTwoWhenCached)
{
    node::Node node(testNode());
    auto r1 = runMatMult(node, 64, true, 1, 16);
    auto r2 = runMatMult(node, 64, true, 2, 16, true);
    const double speedup = r2.mflops() / r1.mflops();
    EXPECT_GT(speedup, 1.85);
    EXPECT_LE(speedup, 2.05);
}

TEST(Runner, ResultsAreDeterministic)
{
    node::Node a(testNode()), b(testNode());
    auto r1 = runMatMult(a, 96, false, 2, 12);
    auto r2 = runMatMult(b, 96, false, 2, 12);
    EXPECT_EQ(r1.elapsed, r2.elapsed);
    EXPECT_EQ(r1.flops, r2.flops);
}

TEST(Runner, RejectsTooManyCpus)
{
    node::Node node(testNode());
    EXPECT_EXIT(runMatMult(node, 32, false, 3),
                ::testing::ExitedWithCode(1), "cpus requested");
}

} // namespace
