/**
 * @file
 * Unit tests for the memory-hierarchy policies (DESIGN.md §14): LRU
 * victim order through a real cache, MSI protocol semantics against
 * MESI, and the sparse directory's targeted invalidations — probing
 * exactly the true sharers where the broadcast snoop probes everyone.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/req.hh"

namespace {

using namespace pm;
using mem::BusReq;
using mem::BusResult;
using mem::BusTarget;
using mem::Cache;
using mem::CacheParams;
using mem::CoherenceKind;
using mem::MemReq;
using mem::MesiState;
using mem::TransportKind;

// ---- LRU through a real Cache ---------------------------------------------

/** A bus stub granting every fill. */
class StubBus : public BusTarget
{
  public:
    BusResult
    request(const BusReq &, Tick now) override
    {
        return BusResult{now + 100 * kTicksPerNs, false, false};
    }
};

/**
 * Fill a 4-way set in way order, then hit the first two lines: the
 * next two conflict misses must evict the two lines not touched since
 * their fills, oldest first, and keep the recently hit ones.
 */
TEST(Lru, TouchOrderPicksLeastRecentWay)
{
    CacheParams p;
    p.name = "lru_l2";
    p.sizeBytes = 1024; // 4 sets of 4 ways at 64 B lines
    p.assoc = 4;
    p.lineSize = 64;
    p.hitCycles = 1;
    p.clockMhz = 100.0;
    StubBus bus;
    Cache cache(p, &bus);
    const Addr stride = Addr(cache.numSets()) * 64; // same set index
    const auto line = [&](Addr i) { return i * stride; };
    Tick t = 0;
    for (Addr i = 0; i < 4; ++i)
        cache.access(MemReq{line(i), false, 0}, t += 1000);
    for (Addr i = 0; i < 2; ++i)
        ASSERT_TRUE(cache.access(MemReq{line(i), false, 0}, t += 1000).hit);
    // Recency, oldest first: lines 2, 3, 0, 1.
    cache.access(MemReq{line(4), false, 0}, t += 1000);
    EXPECT_EQ(cache.lineState(line(2)), MesiState::Invalid);
    EXPECT_NE(cache.lineState(line(3)), MesiState::Invalid);
    cache.access(MemReq{line(5), false, 0}, t += 1000);
    EXPECT_EQ(cache.lineState(line(3)), MesiState::Invalid);
    for (const Addr i : {0, 1, 4, 5})
        EXPECT_NE(cache.lineState(line(i)), MesiState::Invalid)
            << "line " << i;
    EXPECT_EQ(cache.evictions.value(), 2.0);
}

// ---- Protocol and transport tests over a real NodeBus ---------------------

/** N private L2s on one NodeBus under the given policies. */
struct PolicyNode
{
    std::unique_ptr<mem::NodeBus> bus;
    std::vector<std::unique_ptr<Cache>> l2;

    PolicyNode(unsigned numCpus, CoherenceKind coh, TransportKind tr)
    {
        mem::BusParams bp;
        bp.lineBytes = 64;
        bp.transport = tr;
        mem::DramParams dp;
        bus = std::make_unique<mem::NodeBus>(bp, dp, numCpus);
        for (unsigned c = 0; c < numCpus; ++c) {
            CacheParams p;
            p.name = "l2_" + std::to_string(c);
            p.sizeBytes = 8 * 1024;
            p.assoc = 2;
            p.lineSize = 64;
            p.hitCycles = 4;
            p.coherence = coh;
            l2.push_back(std::make_unique<Cache>(p, bus.get()));
            bus->attachCache(c, l2.back().get());
        }
    }
};

TEST(MsiProtocol, UnsharedLoadGrantsSharedNotExclusive)
{
    PolicyNode msi(2, CoherenceKind::Msi, TransportKind::Snoop);
    auto r = msi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    EXPECT_EQ(r.granted, MesiState::Shared);
    EXPECT_EQ(msi.l2[0]->lineState(0x4000), MesiState::Shared);

    // The identical access under MESI mints Exclusive.
    PolicyNode mesi(2, CoherenceKind::Mesi, TransportKind::Snoop);
    auto e = mesi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    EXPECT_EQ(e.granted, MesiState::Exclusive);
}

TEST(MsiProtocol, StoreAfterPrivateLoadPaysBusUpgrade)
{
    // This is the ablation's signal: MSI cannot upgrade silently, so
    // every read-modify-write of private data crosses the bus.
    PolicyNode msi(2, CoherenceKind::Msi, TransportKind::Snoop);
    msi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    const double txBefore = msi.bus->transactions.value();
    msi.l2[0]->access(MemReq{0x4000, true, 0}, 1000000);
    EXPECT_EQ(msi.l2[0]->upgrades.value(), 1.0);
    EXPECT_EQ(msi.bus->transactions.value(), txBefore + 1.0);
    EXPECT_EQ(msi.l2[0]->lineState(0x4000), MesiState::Modified);

    PolicyNode mesi(2, CoherenceKind::Mesi, TransportKind::Snoop);
    mesi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    const double txE = mesi.bus->transactions.value();
    mesi.l2[0]->access(MemReq{0x4000, true, 0}, 1000000);
    EXPECT_EQ(mesi.l2[0]->upgrades.value(), 0.0); // silent E -> M
    EXPECT_EQ(mesi.bus->transactions.value(), txE);
}

/**
 * Four processors, two of which share a line. A third's store must
 * probe exactly the two true sharers under the directory (the paper's
 * snoop-occupancy limiter is the broadcast), while broadcast snooping
 * probes all three peers. The uninvolved processor's hierarchy is
 * never disturbed either way.
 */
TEST(DirectoryTransport, StoreInvalidatesOnlyTrueSharers)
{
    const Addr line = 0x8000;
    for (const TransportKind tr :
         {TransportKind::Directory, TransportKind::Snoop}) {
        PolicyNode node(4, CoherenceKind::Mesi, tr);
        Tick t = 0;
        node.l2[1]->access(MemReq{line, false, 1}, t += 1000000);
        node.l2[2]->access(MemReq{line, false, 2}, t += 1000000);
        const double probesBefore = node.bus->snoopProbes.value();
        node.l2[0]->access(MemReq{line, true, 0}, t += 1000000);
        const double delta = node.bus->snoopProbes.value() - probesBefore;
        if (tr == TransportKind::Directory) {
            EXPECT_EQ(delta, 2.0) << "directory probed a non-sharer";
            EXPECT_EQ(node.bus->targetedInvals.value(), 2.0);
            // The directory now tracks the writer alone.
            EXPECT_EQ(node.bus->directorySharers(line), 0x1ull);
        } else {
            EXPECT_EQ(delta, 3.0) << "broadcast probes every peer";
        }
        // Both transports killed both real copies, and only those.
        EXPECT_EQ(node.l2[1]->snoopInvalidations.value(), 1.0);
        EXPECT_EQ(node.l2[2]->snoopInvalidations.value(), 1.0);
        EXPECT_EQ(node.l2[3]->snoopInvalidations.value(), 0.0);
        EXPECT_EQ(node.l2[0]->lineState(line), MesiState::Modified);
        EXPECT_EQ(node.l2[1]->lineState(line), MesiState::Invalid);
        EXPECT_EQ(node.l2[2]->lineState(line), MesiState::Invalid);
    }
}

TEST(DirectoryTransport, WritebackRetiresTheSharerBit)
{
    PolicyNode node(2, CoherenceKind::Mesi, TransportKind::Directory);
    const Addr a = 0x0;
    node.l2[0]->access(MemReq{a, true, 0}, 0);
    EXPECT_EQ(node.bus->directorySharers(a), 0x1ull);
    // Two more stores conflicting with `a` (64 sets of 2 ways) force a
    // dirty eviction; the writeback must clear cpu0's sharer bit so the
    // directory never probes a cache that gave the line up.
    const Addr stride = 64 * 64;
    node.l2[0]->access(MemReq{a + stride, true, 0}, 1000000);
    node.l2[0]->access(MemReq{a + 2 * stride, true, 0}, 2000000);
    EXPECT_EQ(node.l2[0]->lineState(a), MesiState::Invalid);
    EXPECT_EQ(node.bus->directorySharers(a), 0x0ull);
}

TEST(DirectoryTransport, ResetCoherenceForgetsAllSharers)
{
    PolicyNode node(2, CoherenceKind::Mesi, TransportKind::Directory);
    node.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    node.l2[1]->access(MemReq{0x8000, true, 1}, 1000000);
    ASSERT_NE(node.bus->directorySharers(0x4000), 0x0ull);
    // Node::reset() pairs these two calls: dropped lines must leave no
    // stale sharer bits behind.
    for (auto &c : node.l2)
        c->invalidateAll();
    node.bus->resetCoherence();
    EXPECT_EQ(node.bus->directorySharers(0x4000), 0x0ull);
    EXPECT_EQ(node.bus->directorySharers(0x8000), 0x0ull);
}

/** Snooping tracks nothing; the sharer query is defined to be empty. */
TEST(SnoopTransport, DirectorySharersAlwaysEmpty)
{
    PolicyNode node(2, CoherenceKind::Mesi, TransportKind::Snoop);
    node.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    EXPECT_EQ(node.bus->directorySharers(0x4000), 0x0ull);
}

} // namespace
