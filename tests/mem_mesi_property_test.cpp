/**
 * @file
 * Property-based tests of the coherence protocols: under randomized
 * access interleavings from multiple processors, the global coherence
 * invariants must hold after every single access:
 *
 *  I1. At most one cache hierarchy holds a line Modified or Exclusive.
 *  I2. If any hierarchy holds M or E, no other hierarchy holds S.
 *  I3. Inclusion: a line valid in an L1 is valid in its L2.
 *  I4. A timed access completes no earlier than it was issued.
 *  I5. (MSI only) No cache ever holds a line Exclusive.
 *  I6. A line Modified in an L1 is Modified in its L2.
 *
 * mem::Cache relies on I3 and I6 rather than checking them: a snoop
 * that misses an L2 skips its L1, and the L2 alone answers for dirty
 * data, on eviction as on a snoop.
 *
 * The original MESI suite is parameterized over (seed, processor
 * count); the policy-matrix suite additionally sweeps coherence
 * protocol x transport so MSI and the sparse directory satisfy the
 * same single-writer/multiple-reader contract as broadcast-snooped
 * MESI.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "sim/random.hh"

namespace {

using namespace pm;
using namespace pm::mem;

struct Hierarchy
{
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1;
};

struct TestNode
{
    std::unique_ptr<NodeBus> bus;
    std::vector<Hierarchy> cpus;

    explicit TestNode(unsigned numCpus,
                      CoherenceKind coh = CoherenceKind::Mesi,
                      TransportKind transport = TransportKind::Snoop,
                      std::uint32_t l2Bytes = 8 * 1024, // tiny
                      std::uint32_t l2Assoc = 2)
    {
        BusParams bp;
        bp.lineBytes = 64;
        bp.transport = transport;
        DramParams dp;
        bus = std::make_unique<NodeBus>(bp, dp, numCpus);
        for (unsigned c = 0; c < numCpus; ++c) {
            Hierarchy h;
            CacheParams l2p;
            l2p.name = "l2_" + std::to_string(c);
            l2p.sizeBytes = l2Bytes;
            l2p.assoc = l2Assoc;
            l2p.lineSize = 64;
            l2p.hitCycles = 4;
            l2p.coherence = coh;
            h.l2 = std::make_unique<Cache>(l2p, bus.get());
            bus->attachCache(c, h.l2.get());

            CacheParams l1p;
            l1p.name = "l1_" + std::to_string(c);
            l1p.sizeBytes = 1024;
            l1p.assoc = 2;
            l1p.lineSize = 64;
            l1p.hitCycles = 1;
            l1p.coherence = coh;
            h.l1 = std::make_unique<Cache>(l1p, h.l2.get());
            cpus.push_back(std::move(h));
        }
    }
};

/**
 * Drive `node` through a seeded random access interleaving, asserting
 * I1-I4 and I6 after every access (and I5 when `forbidExclusive`).
 */
void
runRandomWalk(TestNode &node, unsigned seed, unsigned numCpus,
              bool forbidExclusive)
{
    sim::SplitMix64 rng(seed);

    // A small address pool maximizes sharing and conflict pressure.
    constexpr unsigned kLines = 24;
    std::vector<Addr> pool;
    for (unsigned i = 0; i < kLines; ++i)
        pool.push_back(0x4000 + Addr(i) * 64);

    Tick t = 0;
    for (int step = 0; step < 3000; ++step) {
        const unsigned cpu =
            static_cast<unsigned>(rng.below(numCpus));
        const Addr addr =
            pool[rng.below(pool.size())] + rng.below(8) * 8;
        const bool write = rng.chance(0.4);
        const bool useL1 = rng.chance(0.8);

        Cache &target = useL1 ? *node.cpus[cpu].l1 : *node.cpus[cpu].l2;
        auto r = target.access(
            MemReq{addr, write, static_cast<int>(cpu)}, t);
        ASSERT_GE(r.done, t) << "I4 violated at step " << step;
        t += 1 + rng.below(2000);

        // Check I1-I3, I6 (and I5) on every line of the pool.
        for (Addr line : pool) {
            unsigned owners = 0; // hierarchies holding M or E
            unsigned sharers = 0; // hierarchies holding S
            for (unsigned c = 0; c < numCpus; ++c) {
                const MesiState s1 = node.cpus[c].l1->lineState(line);
                const MesiState s2 = node.cpus[c].l2->lineState(line);
                // I3: inclusion.
                if (s1 != MesiState::Invalid) {
                    ASSERT_NE(s2, MesiState::Invalid)
                        << "I3 violated: line " << std::hex << line
                        << " valid in L1 but not L2 of cpu " << c
                        << " at step " << std::dec << step;
                }
                // I6: dirty ownership is recorded in the L2.
                if (s1 == MesiState::Modified) {
                    ASSERT_EQ(s2, MesiState::Modified)
                        << "I6 violated: line " << std::hex << line
                        << " Modified in L1 but not L2 of cpu " << c
                        << " at step " << std::dec << step;
                }
                if (forbidExclusive) {
                    ASSERT_NE(s1, MesiState::Exclusive)
                        << "I5 violated (L1) on line " << std::hex
                        << line << " at step " << std::dec << step;
                    ASSERT_NE(s2, MesiState::Exclusive)
                        << "I5 violated (L2) on line " << std::hex
                        << line << " at step " << std::dec << step;
                }
                const bool owner = s2 == MesiState::Modified ||
                                   s2 == MesiState::Exclusive;
                owners += owner;
                sharers += s2 == MesiState::Shared;
            }
            ASSERT_LE(owners, 1u)
                << "I1 violated on line " << std::hex << line
                << " at step " << std::dec << step;
            if (owners > 0) {
                ASSERT_EQ(sharers, 0u)
                    << "I2 violated on line " << std::hex << line
                    << " at step " << std::dec << step;
            }
        }
    }
}

class MesiProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(MesiProperty, InvariantsHoldUnderRandomInterleavings)
{
    const auto [seed, numCpus] = GetParam();
    TestNode node(numCpus);
    runRandomWalk(node, seed, numCpus, /*forbidExclusive=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MesiProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_cpus" + std::to_string(std::get<1>(info.param));
    });

/**
 * The policy matrix: both protocols x both transports satisfy the
 * same invariants, and MSI additionally never mints Exclusive. Each
 * point runs over a 2-way L2 and over a direct-mapped one.
 */
class PolicyProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, CoherenceKind, TransportKind>>
{
  protected:
    /** Build the point's node around the given L2 and walk it. */
    TestNode
    walk(std::uint32_t l2Bytes, std::uint32_t l2Assoc)
    {
        const auto [seed, numCpus, coh, transport] = GetParam();
        TestNode node(numCpus, coh, transport, l2Bytes, l2Assoc);
        runRandomWalk(node, seed, numCpus,
                      /*forbidExclusive=*/coh == CoherenceKind::Msi);
        return node;
    }
};

TEST_P(PolicyProperty, InvariantsHoldUnderRandomInterleavings)
{
    walk(8 * 1024, 2);
}

/**
 * The PowerMANNA L2 and both SUN levels are direct-mapped. 16 one-way
 * sets against the walk's 24-line pool make the L2 evict, and so
 * back-invalidate the L1, throughout the walk.
 */
TEST_P(PolicyProperty, InvariantsHoldWithADirectMappedL2)
{
    const TestNode node = walk(1024, 1);
    double evictions = 0;
    for (const Hierarchy &h : node.cpus)
        evictions += h.l2->evictions.value();
    EXPECT_GT(evictions, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyProperty,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 3u, 4u), ::testing::Values(2u, 4u),
        ::testing::Values(CoherenceKind::Mesi, CoherenceKind::Msi),
        ::testing::Values(TransportKind::Snoop,
                          TransportKind::Directory)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_cpus" + std::to_string(std::get<1>(info.param)) + "_" +
               coherenceName(std::get<2>(info.param)) + "_" +
               transportName(std::get<3>(info.param));
    });

/** Writebacks must not resurrect stale sharers: after a dirty line is
 *  evicted and refetched, exactly one hierarchy holds it. */
TEST(MesiEviction, DirtyEvictionThenRefetchStaysCoherent)
{
    TestNode node(2);
    // cpu0 dirties many conflicting lines to force dirty evictions.
    const Addr strideL2 = 64 * 64; // l2 sets = 8K/(2*64) = 64
    Tick t = 0;
    for (unsigned i = 0; i < 8; ++i) {
        node.cpus[0].l1->access(MemReq{Addr(i) * strideL2, true, 0}, t);
        t += 1000000;
    }
    // cpu1 reads one of the evicted lines back.
    node.cpus[1].l1->access(MemReq{0x0, false, 1}, t);
    unsigned owners = 0, sharers = 0;
    for (unsigned c = 0; c < 2; ++c) {
        const MesiState s = node.cpus[c].l2->lineState(0x0);
        owners += s == MesiState::Modified || s == MesiState::Exclusive;
        sharers += s == MesiState::Shared;
    }
    EXPECT_LE(owners, 1u);
    if (owners) {
        EXPECT_EQ(sharers, 0u);
    }
}

} // namespace
