/**
 * @file
 * Unit tests for the node bus: snoop outcomes, split vs non-split
 * timing, intervention transfers, address-only upgrades, DRAM bank
 * accounting, and PIO beats — using small two-CPU nodes built from
 * real caches; and the constructor's configuration checks.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/bus.hh"
#include "mem/cache.hh"

namespace {

using namespace pm;
using namespace pm::mem;

struct TwoCpuNode
{
    std::unique_ptr<NodeBus> bus;
    std::vector<std::unique_ptr<Cache>> l2s;

    explicit TwoCpuNode(BusParams bp = {}, DramParams dp = {})
    {
        bp.lineBytes = 64;
        bus = std::make_unique<NodeBus>(bp, dp, 2);
        for (unsigned c = 0; c < 2; ++c) {
            CacheParams p;
            p.name = "l2_" + std::to_string(c);
            p.sizeBytes = 64 * 1024;
            p.assoc = 4;
            p.lineSize = 64;
            p.hitCycles = 4;
            p.clockMhz = 180.0;
            l2s.push_back(std::make_unique<Cache>(p, bus.get()));
            bus->attachCache(c, l2s.back().get());
        }
    }
};

TEST(NodeBus, FirstReadIsUnshared)
{
    TwoCpuNode n;
    auto r = n.l2s[0]->access(MemReq{0x1000, false, 0}, 0);
    EXPECT_EQ(r.granted, MesiState::Exclusive);
    EXPECT_EQ(n.bus->dramReads.value(), 1.0);
}

TEST(NodeBus, SecondReaderSeesShared)
{
    TwoCpuNode n;
    n.l2s[0]->access(MemReq{0x1000, false, 0}, 0);
    auto r = n.l2s[1]->access(MemReq{0x1000, false, 1}, 100000);
    EXPECT_EQ(r.granted, MesiState::Shared);
    EXPECT_EQ(n.l2s[0]->lineState(0x1000), MesiState::Shared);
}

TEST(NodeBus, RemoteDirtyLineIsSuppliedCacheToCache)
{
    TwoCpuNode n;
    n.l2s[0]->access(MemReq{0x1000, true, 0}, 0); // M in cpu0
    const double dramBefore = n.bus->dramReads.value();
    auto r = n.l2s[1]->access(MemReq{0x1000, false, 1}, 100000);
    EXPECT_TRUE(r.hit == false);
    EXPECT_EQ(n.bus->c2cTransfers.value(), 1.0);
    EXPECT_EQ(n.bus->dramReads.value(), dramBefore); // no memory read
    EXPECT_EQ(n.l2s[0]->lineState(0x1000), MesiState::Shared);
    // Both copies end Shared after a dirty intervention on a read.
    EXPECT_EQ(n.l2s[1]->lineState(0x1000), MesiState::Shared);
}

TEST(NodeBus, RemoteStoreInvalidatesOtherCopy)
{
    TwoCpuNode n;
    n.l2s[0]->access(MemReq{0x2000, false, 0}, 0);
    n.l2s[1]->access(MemReq{0x2000, true, 1}, 100000);
    EXPECT_EQ(n.l2s[0]->lineState(0x2000), MesiState::Invalid);
    EXPECT_EQ(n.l2s[1]->lineState(0x2000), MesiState::Modified);
}

TEST(NodeBus, UpgradeIsAddressOnly)
{
    TwoCpuNode n;
    n.l2s[0]->access(MemReq{0x3000, false, 0}, 0);
    n.l2s[1]->access(MemReq{0x3000, false, 1}, 100000);
    ASSERT_EQ(n.l2s[0]->lineState(0x3000), MesiState::Shared);

    const double reads = n.bus->dramReads.value();
    // cpu0 upgrades its Shared copy: no data moves.
    auto r = n.l2s[0]->access(MemReq{0x3000, true, 0}, 200000);
    EXPECT_EQ(r.granted, MesiState::Modified);
    EXPECT_EQ(n.bus->dramReads.value(), reads);
    EXPECT_EQ(n.l2s[1]->lineState(0x3000), MesiState::Invalid);
    EXPECT_EQ(n.l2s[0]->upgrades.value(), 1.0);
}

TEST(NodeBus, WritebackReachesMemory)
{
    TwoCpuNode n;
    // Dirty a line, then evict it by filling its set (4-way, 256 sets
    // at 64 KB/64 B): addresses 64*256 bytes apart share a set.
    const Addr stride = 64 * 256;
    n.l2s[0]->access(MemReq{0x0, true, 0}, 0);
    Tick t = 1000000;
    for (unsigned i = 1; i <= 4; ++i) {
        n.l2s[0]->access(MemReq{Addr(i) * stride, false, 0}, t);
        t += 1000000;
    }
    EXPECT_EQ(n.bus->dramWrites.value(), 1.0);
    EXPECT_EQ(n.l2s[0]->writebacks.value(), 1.0);
}

TEST(NodeBus, SplitTransactionsOverlapDataPhases)
{
    // Same request stream on a split/point-to-point bus vs a
    // circuit-switched one: the split bus must complete the second
    // CPU's independent miss sooner.
    BusParams split;
    split.splitTransactions = true;
    split.pointToPointData = true;
    BusParams circuit;
    circuit.splitTransactions = false;
    circuit.pointToPointData = false;

    TwoCpuNode a(split), b(circuit);
    // Two simultaneous misses to different banks.
    a.l2s[0]->access(MemReq{0x0, false, 0}, 0);
    auto ra = a.l2s[1]->access(MemReq{0x40, false, 1}, 0);
    b.l2s[0]->access(MemReq{0x0, false, 0}, 0);
    auto rb = b.l2s[1]->access(MemReq{0x40, false, 1}, 0);
    EXPECT_LT(ra.done, rb.done);
}

TEST(NodeBus, AddressPhaseSerializesEvenWhenSplit)
{
    BusParams bp;
    DramParams dp;
    TwoCpuNode n(bp, dp);
    // Both CPUs request at t=0; the serialized address phase makes
    // their completions differ even with parallel data paths/banks.
    auto r0 = n.l2s[0]->access(MemReq{0x0, false, 0}, 0);
    auto r1 = n.l2s[1]->access(MemReq{0x10000, false, 1}, 0);
    EXPECT_GT(r0.done, 0u);
    EXPECT_GT(r1.done, 0u);
    EXPECT_NE(r0.done, r1.done);
}

TEST(NodeBus, DramBankConflictDelays)
{
    BusParams bp;
    DramParams dp;
    dp.banks = 2;
    TwoCpuNode n(bp, dp);
    // Lines 0 and 2*64 map to the same bank of 2 (bank = line % 2).
    auto r0 = n.l2s[0]->access(MemReq{0, false, 0}, 0);
    auto rSame = n.l2s[1]->access(MemReq{2 * 64, false, 1}, 0);

    TwoCpuNode m(bp, dp);
    auto q0 = m.l2s[0]->access(MemReq{0, false, 0}, 0);
    auto qOther = m.l2s[1]->access(MemReq{1 * 64, false, 1}, 0);

    EXPECT_EQ(r0.done, q0.done);
    EXPECT_GT(rSame.done, qOther.done); // bank conflict costs time
}

TEST(NodeBus, PioBeatAdvancesTime)
{
    TwoCpuNode n;
    const Tick t1 = n.bus->pioBeat(0, 0);
    EXPECT_GT(t1, 0u);
    const Tick t2 = n.bus->pioBeat(0, t1);
    EXPECT_GT(t2, t1);
    EXPECT_EQ(n.bus->pioBeats.value(), 2.0);
}

TEST(NodeBus, PioBeatsFromBothCpusSerializeOnAddressPhase)
{
    TwoCpuNode n;
    const Tick a = n.bus->pioBeat(0, 0);
    const Tick b = n.bus->pioBeat(1, 0);
    EXPECT_NE(a, b);
}

TEST(NodeBus, ResetTimingClearsCalendars)
{
    TwoCpuNode n;
    n.bus->pioBeat(0, 0);
    n.bus->resetTiming();
    const Tick t = n.bus->pioBeat(0, 0);
    TwoCpuNode fresh;
    EXPECT_EQ(t, fresh.bus->pioBeat(0, 0));
}

TEST(NodeBus, ArrivalBelowTheTimeFloorPanics)
{
    // Intervals below the floor are pruned, so an arrival there would
    // see a free gap that was busy: the bus refuses it.
    TwoCpuNode n;
    n.bus->setTimeFloor(1000);
    EXPECT_DEATH(n.bus->request(BusReq{0x1000, TxType::ReadShared, 0}, 999),
                 "request at tick 999 below the time floor 1000");
    EXPECT_DEATH(n.bus->pioBeat(0, 999),
                 "PIO beat at tick 999 below the time floor 1000");
    // The floor never goes down.
    n.bus->setTimeFloor(500);
    EXPECT_DEATH(n.bus->pioBeat(0, 999), "below the time floor 1000");
    // resetTiming() clears it with the calendars.
    n.bus->resetTiming();
    TwoCpuNode fresh;
    EXPECT_EQ(n.bus->pioBeat(0, 0), fresh.bus->pioBeat(0, 0));
}

TEST(NodeBus, MissLatencyHasExpectedMagnitude)
{
    // PowerMANNA-like numbers: a clean DRAM miss should land in the
    // 150-400 ns window (addr + snoop + DRAM latency + 4 data beats).
    TwoCpuNode n;
    auto r = n.l2s[0]->access(MemReq{0x1000, false, 0}, 0);
    EXPECT_GT(r.done, 150 * kTicksPerNs);
    EXPECT_LT(r.done, 400 * kTicksPerNs);
}

TEST(NodeBus, TransactionsAreCounted)
{
    TwoCpuNode n;
    n.l2s[0]->access(MemReq{0x0, false, 0}, 0);
    n.l2s[0]->access(MemReq{0x40, true, 0}, 1000000);
    EXPECT_EQ(n.bus->transactions.value(), 2.0);
}

// ---- Configuration checks. ------------------------------------------

/**
 * Each bad configuration must stop the constructor with a diagnostic
 * naming the bus (exit 1), never a later crash: with no DRAM or
 * directory banks the first access would divide by zero (SIGFPE).
 */
void
expectBusRejected(BusParams bp, DramParams dp, unsigned numCpus,
                  const char *diagnostic)
{
    bp.name = "test_bus";
    EXPECT_EXIT(NodeBus(bp, dp, numCpus), ::testing::ExitedWithCode(1),
                diagnostic);
}

TEST(NodeBusConfig, RejectsZeroCpus)
{
    expectBusRejected({}, {}, 0,
                      "bus test_bus: need at least one CPU port");
}

TEST(NodeBusConfig, RejectsLineNotAMultipleOfTheDataWidth)
{
    BusParams bp;
    bp.lineBytes = 64;
    bp.dataWidthBytes = 24;
    expectBusRejected(bp, {}, 2,
                      "bus test_bus: line size must be a multiple of the "
                      "data width");
}

TEST(NodeBusConfig, RejectsDirectoryOnCircuitSwitchedBus)
{
    BusParams bp;
    bp.transport = TransportKind::Directory;
    bp.splitTransactions = false;
    expectBusRejected(bp, {}, 2,
                      "bus test_bus: a directory transport needs a "
                      "split-transaction bus");
}

/** The sharer vector is one 64-bit word. */
TEST(NodeBusConfig, RejectsDirectoryBeyond64Cpus)
{
    BusParams bp;
    bp.transport = TransportKind::Directory;
    expectBusRejected(bp, {}, 65,
                      "bus test_bus: a directory's sharer vector holds at "
                      "most 64 CPUs, got 65");
}

TEST(NodeBusConfig, RejectsDirectoryWithoutBanks)
{
    BusParams bp;
    bp.transport = TransportKind::Directory;
    bp.dirBanks = 0;
    expectBusRejected(bp, {}, 2,
                      "bus test_bus: a directory needs at least one bank");
}

TEST(NodeBusConfig, RejectsDramWithoutBanks)
{
    DramParams dp;
    dp.name = "test_dram";
    dp.banks = 0;
    expectBusRejected({}, dp, 1,
                      "bus test_bus: DRAM test_dram needs at least one "
                      "bank");
}

TEST(DramParams, OccupancyScalesWithBytes)
{
    DramParams dp;
    dp.perBankMBps = 160.0;
    dp.recovery = 20 * kTicksPerNs;
    const Tick t64 = dp.occupancy(64);
    const Tick t128 = dp.occupancy(128);
    EXPECT_GT(t128, t64);
    // 64 B at 160 MB/s = 400 ns + 20 ns recovery.
    EXPECT_NEAR(double(t64), 420e3, 1e3);
}

TEST(DramParams, AggregateBandwidth)
{
    DramParams dp;
    dp.banks = 4;
    dp.perBankMBps = 160.0;
    EXPECT_DOUBLE_EQ(dp.aggregateMBps(), 640.0);
}

} // namespace
