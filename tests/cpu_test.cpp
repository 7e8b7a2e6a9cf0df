/**
 * @file
 * Unit tests for the processor timing model: operation costs, the
 * outstanding-miss window (blocking vs overlapped), TLB behaviour,
 * sequential-access amortization, PIO, and the scheduler.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/proc.hh"
#include "cpu/sched.hh"
#include "cpu/tlb.hh"
#include "cpu/workload.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"

namespace {

using namespace pm;
using namespace pm::cpu;

struct Rig
{
    std::unique_ptr<mem::NodeBus> bus;
    std::unique_ptr<mem::Cache> l2;
    std::unique_ptr<mem::Cache> l1;
    std::unique_ptr<Proc> proc;

    explicit Rig(CpuParams cp = makeCpu())
    {
        mem::BusParams bp;
        bp.lineBytes = 64;
        mem::DramParams dp;
        bus = std::make_unique<mem::NodeBus>(bp, dp, 1);

        mem::CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 256 * 1024;
        l2p.assoc = 4;
        l2p.lineSize = 64;
        l2p.hitCycles = 5;
        l2 = std::make_unique<mem::Cache>(l2p, bus.get());
        bus->attachCache(0, l2.get());

        mem::CacheParams l1p;
        l1p.name = "l1";
        l1p.sizeBytes = 8 * 1024;
        l1p.assoc = 2;
        l1p.lineSize = 64;
        l1p.hitCycles = 1;
        l1 = std::make_unique<mem::Cache>(l1p, l2.get());

        proc = std::make_unique<Proc>(cp, 0, l1.get(), bus.get());
    }

    static CpuParams
    makeCpu()
    {
        CpuParams cp;
        cp.clockMhz = 100.0; // 10 ns cycles: easy arithmetic
        cp.issueWidth = 2.0;
        cp.fpOpsPerCycle = 1.0;
        cp.intOpsPerCycle = 2.0;
        cp.maxOutstandingMisses = 1;
        cp.tlb.entries = 64;
        cp.tlb.walkCycles = 20;
        return cp;
    }
};

TEST(Proc, FlopsCostInverseThroughput)
{
    Rig r;
    const Tick t0 = r.proc->time();
    r.proc->flops(100); // 1/cycle at 10 ns
    EXPECT_EQ(r.proc->time() - t0, 100u * 10000u);
}

TEST(Proc, IntopsUseIntegerThroughput)
{
    Rig r;
    const Tick t0 = r.proc->time();
    r.proc->intops(100); // 2/cycle
    EXPECT_EQ(r.proc->time() - t0, 100u * 5000u);
}

TEST(Proc, InstrUsesIssueWidth)
{
    Rig r;
    const Tick t0 = r.proc->time();
    r.proc->instr(10); // 2/cycle
    EXPECT_EQ(r.proc->time() - t0, 10u * 5000u);
}

TEST(Proc, StallCyclesExact)
{
    Rig r;
    const Tick t0 = r.proc->time();
    r.proc->stallCycles(7);
    EXPECT_EQ(r.proc->time() - t0, 70000u);
}

TEST(Proc, L1HitCostsOnlyIssueSlot)
{
    Rig r;
    r.proc->load(0x1000); // miss: fills the line
    r.proc->drain();
    const Tick t0 = r.proc->time();
    r.proc->load(0x1000); // hit
    EXPECT_EQ(r.proc->time() - t0, 5000u); // one issue slot
}

TEST(Proc, BlockingCoreStallsOnSecondMiss)
{
    // maxOutstandingMisses = 1: two back-to-back DRAM misses serialize.
    Rig r;
    // Warm the translations so table walks don't hide the blocking.
    r.proc->load(0x10000);
    r.proc->load(0x20000);
    r.proc->drain();
    // New lines on the warmed pages.
    r.proc->load(0x10040);
    const Tick afterFirst = r.proc->time();
    r.proc->load(0x20040);
    // The second load had to wait for the first miss to complete.
    EXPECT_GT(r.proc->time() - afterFirst, 100 * kTicksPerNs);
    EXPECT_GT(r.proc->missStalls.value(), 0.0);
}

TEST(Proc, OverlappingCoreHidesMissLatency)
{
    CpuParams cp = Rig::makeCpu();
    cp.maxOutstandingMisses = 4;
    Rig overlapped(cp);
    Rig blocking;

    for (int i = 0; i < 4; ++i) {
        overlapped.proc->load(0x10000 + Addr(i) * 0x1000);
        blocking.proc->load(0x10000 + Addr(i) * 0x1000);
    }
    // Before draining, the overlapped core has not stalled.
    EXPECT_LT(overlapped.proc->time(), blocking.proc->time());
}

TEST(Proc, DrainWaitsForOutstanding)
{
    CpuParams cp = Rig::makeCpu();
    cp.maxOutstandingMisses = 4;
    Rig r(cp);
    r.proc->load(0x10000);
    const Tick before = r.proc->time();
    r.proc->drain();
    EXPECT_GT(r.proc->time(), before);
    // Second drain is a no-op.
    const Tick after = r.proc->time();
    r.proc->drain();
    EXPECT_EQ(r.proc->time(), after);
}

TEST(Proc, TlbMissChargesWalk)
{
    Rig r;
    // Warm the line but flush the TLB: the next access pays only the
    // table walk (plus the PTE access).
    r.proc->load(0x40000);
    r.proc->drain();
    r.proc->load(0x40000); // TLB + cache warm
    const Tick warm = r.proc->time();
    r.proc->load(0x40000);
    const Tick hitCost = r.proc->time() - warm;

    r.proc->flushTlb();
    const Tick t0 = r.proc->time();
    r.proc->load(0x40000);
    r.proc->drain();
    EXPECT_GT(r.proc->time() - t0, hitCost + 20u * 10000u - 1);
    EXPECT_GT(r.proc->tlbMisses.value(), 0.0);
}

TEST(Proc, SequentialPagesHitTlb)
{
    Rig r;
    r.proc->loadSeq(0x100000, 4096); // one page: one walk
    EXPECT_LE(r.proc->tlbMisses.value(), 2.0);
}

TEST(Proc, LoadSeqProbesOncePerLine)
{
    Rig r;
    r.proc->load(0x200000 + 4096 - 8); // warm the page translation
    r.proc->drain();
    const double missesBefore = r.l1->misses.value();
    r.proc->loadSeq(0x200000, 64 * 8); // 8 lines
    EXPECT_EQ(r.l1->misses.value() - missesBefore, 8.0);
    EXPECT_EQ(r.proc->loads.value(), 65.0); // warmup + 64 words
}

TEST(Proc, StoreSeqProbesOncePerLine)
{
    Rig r;
    r.proc->load(0x300000 + 4096 - 8); // warm the page translation
    r.proc->drain();
    const double missesBefore = r.l1->misses.value();
    r.proc->storeSeq(0x300000, 64 * 4); // 4 lines
    EXPECT_EQ(r.l1->misses.value() - missesBefore, 4.0);
    EXPECT_EQ(r.proc->stores.value(), 32.0);
}

TEST(Proc, PioBeatIsStronglyOrdered)
{
    Rig r;
    const Tick t0 = r.proc->time();
    r.proc->pioBeat();
    const Tick t1 = r.proc->time();
    EXPECT_GT(t1, t0);
    r.proc->pioBeat();
    EXPECT_GT(r.proc->time(), t1);
}

TEST(Proc, ResetTimeKeepsTlb)
{
    Rig r;
    r.proc->load(0x50000);
    r.proc->drain();
    const double walks = r.proc->tlbMisses.value();
    r.proc->resetTime();
    EXPECT_EQ(r.proc->time(), 0u);
    r.proc->load(0x50000); // same page: TLB still warm
    EXPECT_EQ(r.proc->tlbMisses.value(), walks);
}

TEST(Proc, AdvanceToNeverRewinds)
{
    Rig r;
    r.proc->stallCycles(10);
    const Tick t = r.proc->time();
    r.proc->advanceTo(t - 1);
    EXPECT_EQ(r.proc->time(), t);
    r.proc->advanceTo(t + 5);
    EXPECT_EQ(r.proc->time(), t + 5);
}

/** Every access goes through the L1 and every PIO beat over the bus. */
TEST(Proc, RejectsMissingL1OrBus)
{
    Rig r;
    CpuParams cp = Rig::makeCpu();
    cp.name = "test_cpu";
    const char *diagnostic =
        "cpu test_cpu: needs an L1 data cache and a node bus";
    EXPECT_EXIT(Proc(cp, 0, nullptr, r.bus.get()),
                ::testing::ExitedWithCode(1), diagnostic);
    EXPECT_EXIT(Proc(cp, 0, r.l1.get(), nullptr),
                ::testing::ExitedWithCode(1), diagnostic);
}

TEST(Tlb, DirectMappedConflicts)
{
    TlbParams tp;
    tp.entries = 4;
    tp.pageBytes = 4096;
    Tlb tlb(tp);
    EXPECT_FALSE(tlb.access(0x0000)); // page 0 -> slot 0
    EXPECT_TRUE(tlb.access(0x0800)); // same page
    EXPECT_FALSE(tlb.access(4 * 4096)); // page 4 -> slot 0: conflict
    EXPECT_FALSE(tlb.access(0x0000)); // page 0 evicted
}

TEST(Tlb, FlushForgetsEverything)
{
    Tlb tlb(TlbParams{});
    EXPECT_FALSE(tlb.access(0x1234));
    EXPECT_TRUE(tlb.access(0x1234));
    tlb.flush();
    EXPECT_FALSE(tlb.access(0x1234));
}

TEST(Tlb, TreePteAddressesAreAdjacent)
{
    TlbParams tp;
    tp.hashedPageTables = false;
    const Addr a = tp.pteAddr(0x1000000, 10);
    const Addr b = tp.pteAddr(0x1000000, 11);
    EXPECT_EQ(b - a, 8u);
}

TEST(Tlb, HashedPteAddressesScatter)
{
    TlbParams tp;
    tp.hashedPageTables = true;
    int adjacent = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
        const Addr a = tp.pteAddr(0x1000000, p);
        const Addr b = tp.pteAddr(0x1000000, p + 1);
        const Addr diff = a > b ? a - b : b - a;
        adjacent += diff < 4096;
        EXPECT_LT(a - 0x1000000, tp.htabBytes);
    }
    EXPECT_LT(adjacent, 8); // almost never near each other
}

// ---- Scheduler. --------------------------------------------------------

/** Workload stub: fixed number of fixed-cost steps. */
class FixedSteps : public Workload
{
  public:
    FixedSteps(unsigned steps, Cycles perStep)
        : _left(steps), _cost(perStep) {}

    bool
    step(Proc &proc) override
    {
        proc.stallCycles(_cost);
        return --_left > 0;
    }

  private:
    unsigned _left;
    Cycles _cost;
};

TEST(Scheduler, RunsAllJobsToCompletion)
{
    Rig a, b;
    FixedSteps wa(10, 100), wb(3, 1000);
    std::vector<Job> jobs{{a.proc.get(), &wa}, {b.proc.get(), &wb}};
    runJobs(jobs);
    EXPECT_EQ(a.proc->time(), 10u * 100u * 10000u);
    EXPECT_EQ(b.proc->time(), 3u * 1000u * 10000u);
}

TEST(Scheduler, InterleavesByLocalTime)
{
    // Record execution order via a probe workload.
    struct Probe : Workload
    {
        std::vector<int> *order;
        int id;
        unsigned left;
        Cycles cost;
        bool
        step(Proc &p) override
        {
            order->push_back(id);
            p.stallCycles(cost);
            return --left > 0;
        }
    };
    Rig a, b;
    std::vector<int> order;
    Probe pa;
    pa.order = &order;
    pa.id = 0;
    pa.left = 4;
    pa.cost = 100;
    Probe pb;
    pb.order = &order;
    pb.id = 1;
    pb.left = 4;
    pb.cost = 150;
    std::vector<Job> jobs{{a.proc.get(), &pa}, {b.proc.get(), &pb}};
    runJobs(jobs);
    // First two steps must alternate (0 at t=0, 1 at t=0, then the one
    // with smaller time, which is 0 at 100 < 150).
    ASSERT_GE(order.size(), 3u);
    EXPECT_NE(order[0], order[1]);
    EXPECT_EQ(order[2], 0);
}

} // namespace
