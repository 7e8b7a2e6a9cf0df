/**
 * @file
 * Unit tests for the cache model: hit/miss behaviour, LRU replacement,
 * MESI transitions against a stub bus, inclusion with a two-level
 * hierarchy, and full-node coherence through a real NodeBus; geometry
 * validation; and seeded streams showing that a reset cache behaves
 * exactly like a new one.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/req.hh"
#include "sim/random.hh"

namespace {

using namespace pm;
using mem::AccessResult;
using mem::BusReq;
using mem::BusResult;
using mem::BusTarget;
using mem::Cache;
using mem::CacheParams;
using mem::MemReq;
using mem::MesiState;
using mem::SnoopResult;
using mem::TxType;

/** A bus stub with scripted shared/dirty responses and a request log. */
class StubBus : public BusTarget
{
  public:
    bool shared = false;
    Tick latency = 100 * kTicksPerNs;
    std::vector<BusReq> log;

    BusResult
    request(const BusReq &req, Tick now) override
    {
        log.push_back(req);
        return BusResult{now + latency, shared, false};
    }

    int
    count(TxType t) const
    {
        int n = 0;
        for (const auto &r : log)
            n += r.type == t;
        return n;
    }
};

CacheParams
smallCache(std::uint32_t sizeKb = 1, std::uint32_t assoc = 2,
           std::uint32_t line = 64)
{
    CacheParams p;
    p.name = "test_l1";
    p.sizeBytes = sizeKb * 1024;
    p.assoc = assoc;
    p.lineSize = line;
    p.hitCycles = 1;
    p.clockMhz = 100.0;
    return p;
}

TEST(Cache, ColdLoadMissesThenHits)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    AccessResult r1 = c.access(MemReq{0x1000, false, 0}, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(c.misses.value(), 1.0);

    AccessResult r2 = c.access(MemReq{0x1008, false, 0}, r1.done);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_LT(r2.done - r1.done, r1.done); // hit far cheaper than miss
}

TEST(Cache, MissLatencyIncludesBusLatency)
{
    StubBus bus;
    bus.latency = 500 * kTicksPerNs;
    Cache c(smallCache(), &bus);
    AccessResult r = c.access(MemReq{0x0, false, 0}, 0);
    EXPECT_GE(r.done, bus.latency);
}

TEST(Cache, LoadInstallsExclusiveWhenUnshared)
{
    StubBus bus;
    bus.shared = false;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    EXPECT_EQ(c.lineState(0x40), MesiState::Exclusive);
}

TEST(Cache, LoadInstallsSharedWhenOthersHoldIt)
{
    StubBus bus;
    bus.shared = true;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    EXPECT_EQ(c.lineState(0x40), MesiState::Shared);
}

TEST(Cache, StoreMissInstallsModified)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x80, true, 0}, 0);
    EXPECT_EQ(c.lineState(0x80), MesiState::Modified);
    EXPECT_EQ(bus.count(TxType::ReadExclusive), 1);
}

TEST(Cache, StoreOnExclusiveGoesModifiedSilently)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x80, false, 0}, 0);
    ASSERT_EQ(c.lineState(0x80), MesiState::Exclusive);
    const auto busTraffic = bus.log.size();
    c.access(MemReq{0x80, true, 0}, 1000);
    EXPECT_EQ(c.lineState(0x80), MesiState::Modified);
    EXPECT_EQ(bus.log.size(), busTraffic); // no new transaction
}

TEST(Cache, StoreOnSharedIssuesUpgrade)
{
    StubBus bus;
    bus.shared = true;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x80, false, 0}, 0);
    ASSERT_EQ(c.lineState(0x80), MesiState::Shared);
    c.access(MemReq{0x80, true, 0}, 1000);
    EXPECT_EQ(c.lineState(0x80), MesiState::Modified);
    EXPECT_EQ(bus.count(TxType::Upgrade), 1);
    EXPECT_EQ(c.upgrades.value(), 1.0);
}

TEST(Cache, WholeLineHitsAfterOneFill)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x100, false, 0}, 0);
    for (Addr a = 0x100; a < 0x140; a += 8) {
        AccessResult r = c.access(MemReq{a, false, 0}, 10000);
        EXPECT_TRUE(r.hit) << "addr " << a;
    }
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way cache: fill both ways of set 0, touch the first, then map a
    // third line to the same set; the untouched second way must go.
    StubBus bus;
    CacheParams p = smallCache(1, 2, 64); // 8 sets
    Cache c(p, &bus);
    const Addr setStride = 8 * 64; // set 0 repeats every 512 B
    c.access(MemReq{0 * setStride, false, 0}, 0);
    c.access(MemReq{1 * setStride, false, 0}, 100);
    c.access(MemReq{0 * setStride, false, 0}, 200); // touch way 0
    c.access(MemReq{2 * setStride, false, 0}, 300); // evict way 1
    EXPECT_EQ(c.lineState(0 * setStride), MesiState::Exclusive);
    EXPECT_EQ(c.lineState(1 * setStride), MesiState::Invalid);
    EXPECT_EQ(c.lineState(2 * setStride), MesiState::Exclusive);
    EXPECT_EQ(c.evictions.value(), 1.0);
}

TEST(Cache, ThreeWaySetsHoldThreeLines)
{
    // 3 KB, 3-way, 64 B lines: 16 sets. A set's slots and valid bits
    // are padded to four; the padding must never hold a line. Set 5
    // keeps the padding of sets 0-4 below it.
    StubBus bus;
    Cache c(smallCache(3, 3, 64), &bus);
    const Addr setStride = 16 * 64;
    const Addr set5 = 5 * 64;
    Tick t = 0;
    for (Addr i = 0; i < 3; ++i)
        c.access(MemReq{set5 + i * setStride, false, 0}, t += 100);
    for (Addr i = 0; i < 3; ++i) {
        EXPECT_EQ(c.lineState(set5 + i * setStride), MesiState::Exclusive)
            << "line " << i;
    }
    EXPECT_EQ(c.evictions.value(), 0.0);
    c.access(MemReq{set5, false, 0}, t += 100); // touch way 0
    c.access(MemReq{set5 + 3 * setStride, false, 0}, t += 100);
    EXPECT_EQ(c.evictions.value(), 1.0);
    EXPECT_EQ(c.lineState(set5), MesiState::Exclusive);
    EXPECT_EQ(c.lineState(set5 + setStride), MesiState::Invalid); // LRU
    EXPECT_EQ(c.lineState(set5 + 2 * setStride), MesiState::Exclusive);
    EXPECT_EQ(c.lineState(set5 + 3 * setStride), MesiState::Exclusive);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    StubBus bus;
    CacheParams p = smallCache(1, 1, 64); // direct-mapped, 16 sets
    Cache c(p, &bus);
    const Addr conflict = 16 * 64;
    c.access(MemReq{0x0, true, 0}, 0); // dirty line at set 0
    c.access(MemReq{conflict, false, 0}, 1000); // conflicts with set 0
    EXPECT_EQ(c.writebacks.value(), 1.0);
    EXPECT_EQ(bus.count(TxType::Writeback), 1);
}

TEST(Cache, CleanEvictionIsSilent)
{
    StubBus bus;
    CacheParams p = smallCache(1, 1, 64);
    Cache c(p, &bus);
    c.access(MemReq{0x0, false, 0}, 0);
    c.access(MemReq{16 * 64, false, 0}, 1000);
    EXPECT_EQ(c.writebacks.value(), 0.0);
    EXPECT_EQ(bus.count(TxType::Writeback), 0);
}

TEST(Cache, SnoopSharedDowngradesExclusive)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    auto r = c.snoop(0x40, /*exclusive=*/false);
    EXPECT_TRUE(r.present);
    EXPECT_FALSE(r.dirtySupplied);
    EXPECT_EQ(c.lineState(0x40), MesiState::Shared);
}

TEST(Cache, SnoopSharedSuppliesDirtyData)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, true, 0}, 0);
    auto r = c.snoop(0x40, false);
    EXPECT_TRUE(r.present);
    EXPECT_TRUE(r.dirtySupplied);
    EXPECT_EQ(c.lineState(0x40), MesiState::Shared);
    EXPECT_EQ(c.interventions.value(), 1.0);
}

TEST(Cache, SnoopExclusiveInvalidates)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    auto r = c.snoop(0x40, true);
    EXPECT_TRUE(r.present);
    EXPECT_EQ(c.lineState(0x40), MesiState::Invalid);
    EXPECT_EQ(c.snoopInvalidations.value(), 1.0);
}

TEST(Cache, SnoopMissIsAbsent)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    auto r = c.snoop(0x40, false);
    EXPECT_FALSE(r.present);
    EXPECT_FALSE(r.dirtySupplied);
}

TEST(Cache, InvalidateAllEmptiesTheCache)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    c.access(MemReq{0x80, true, 0}, 100);
    c.invalidateAll();
    EXPECT_EQ(c.lineState(0x40), MesiState::Invalid);
    EXPECT_EQ(c.lineState(0x80), MesiState::Invalid);
}

// ---- Two-level (L1 over L2) hierarchy. --------------------------------

struct TwoLevel
{
    StubBus bus;
    Cache l2;
    Cache l1;

    TwoLevel()
        : l2(
              [] {
                  CacheParams p = smallCache(8, 2, 64);
                  p.name = "test_l2";
                  p.hitCycles = 5;
                  return p;
              }(),
              &bus),
          l1(smallCache(1, 2, 64), &l2)
    {}
};

TEST(CacheHierarchy, L1MissFillsBothLevels)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, false, 0}, 0);
    EXPECT_EQ(h.l1.lineState(0x1000), MesiState::Exclusive);
    EXPECT_EQ(h.l2.lineState(0x1000), MesiState::Exclusive);
}

TEST(CacheHierarchy, L1HitLeavesL2CountersAlone)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, false, 0}, 0);
    const double l2accesses = h.l2.hits.value() + h.l2.misses.value();
    h.l1.access(MemReq{0x1000, false, 0}, 50000);
    EXPECT_EQ(h.l2.hits.value() + h.l2.misses.value(), l2accesses);
}

TEST(CacheHierarchy, StorePromotesOwnershipInBothLevels)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, false, 0}, 0);
    h.l1.access(MemReq{0x1000, true, 0}, 50000);
    EXPECT_EQ(h.l1.lineState(0x1000), MesiState::Modified);
    EXPECT_EQ(h.l2.lineState(0x1000), MesiState::Modified);
}

TEST(CacheHierarchy, L2EvictionBackInvalidatesL1)
{
    TwoLevel h;
    // L2: 8 KB, 2-way, 64 B lines -> 64 sets, set stride 4096 B.
    const Addr stride = 64 * 64;
    h.l1.access(MemReq{0 * stride, false, 0}, 0);
    h.l1.access(MemReq{1 * stride, false, 0}, 100000);
    h.l1.access(MemReq{2 * stride, false, 0}, 200000); // evicts L2 way
    // Inclusion: whichever line left L2 must be gone from L1 too.
    int l1Valid = 0;
    for (Addr a : {0 * stride, 1 * stride, 2 * stride})
        l1Valid += h.l1.lineState(a) != MesiState::Invalid;
    int l2Valid = 0;
    for (Addr a : {0 * stride, 1 * stride, 2 * stride})
        l2Valid += h.l2.lineState(a) != MesiState::Invalid;
    EXPECT_EQ(l2Valid, 2);
    EXPECT_LE(l1Valid, l2Valid);
    for (Addr a : {0 * stride, 1 * stride, 2 * stride}) {
        if (h.l1.lineState(a) != MesiState::Invalid) {
            EXPECT_NE(h.l2.lineState(a), MesiState::Invalid)
                << "inclusion violated at " << a;
        }
    }
}

TEST(CacheHierarchy, DirtyL1LineSurvivesL2EvictionAsWriteback)
{
    TwoLevel h;
    const Addr stride = 64 * 64;
    h.l1.access(MemReq{0 * stride, true, 0}, 0); // dirty in L1+L2
    h.l1.access(MemReq{1 * stride, false, 0}, 100000);
    h.l1.access(MemReq{2 * stride, false, 0}, 200000); // evict dirty line
    EXPECT_GE(h.bus.count(TxType::Writeback), 1);
}

TEST(CacheHierarchy, SnoopReachesL1ThroughL2)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, true, 0}, 0);
    auto r = h.l2.snoop(0x1000, /*exclusive=*/true);
    EXPECT_TRUE(r.dirtySupplied);
    EXPECT_EQ(h.l1.lineState(0x1000), MesiState::Invalid);
    EXPECT_EQ(h.l2.lineState(0x1000), MesiState::Invalid);
}

TEST(CacheHierarchy, SilentL1EtoMIsVisibleToSnoops)
{
    TwoLevel h;
    h.l1.access(MemReq{0x2000, false, 0}, 0); // E in both
    h.l1.access(MemReq{0x2000, true, 0}, 50000); // silent E->M in L1
    auto r = h.l2.snoop(0x2000, false);
    EXPECT_TRUE(r.dirtySupplied) << "dirty ownership must be visible";
}

// ---- Geometry validation. ---------------------------------------------

/**
 * Each bad geometry must stop both constructors with a diagnostic
 * (exit 1) before the set count is computed: otherwise a zero
 * associativity or line size divides by zero (SIGFPE), and a ragged
 * size is silently rounded down.
 */
void
expectGeometryRejected(const CacheParams &p, const char *diagnostic)
{
    StubBus bus;
    EXPECT_EXIT(Cache(p, &bus), ::testing::ExitedWithCode(1), diagnostic);
    CacheParams lowP = smallCache(64, 1, 128);
    lowP.name = "test_l2";
    Cache low(lowP, &bus);
    EXPECT_EXIT(Cache(p, &low), ::testing::ExitedWithCode(1), diagnostic);
}

TEST(CacheGeometry, RejectsZeroAssociativity)
{
    expectGeometryRejected(smallCache(1, 0, 64),
                           "associativity 0 is not 1 to 64");
}

/** A set's valid bits are read as one 64-bit word. */
TEST(CacheGeometry, RejectsAssociativityAbove64)
{
    expectGeometryRejected(smallCache(65, 65, 64),
                           "associativity 65 is not 1 to 64");
}

TEST(CacheGeometry, RejectsLineSizeNotAPowerOfTwo)
{
    expectGeometryRejected(smallCache(1, 2, 0),
                           "line size 0 is not a power of two");
    expectGeometryRejected(smallCache(3, 2, 96),
                           "line size 96 is not a power of two");
}

TEST(CacheGeometry, RejectsSizeNotAMultipleOfAWay)
{
    CacheParams p = smallCache(1, 2, 64);
    p.sizeBytes = 1100;
    expectGeometryRejected(
        p, "size 1100 is not a multiple of assoc\\*lineSize \\(2\\*64\\)");
}

TEST(CacheGeometry, RejectsSetCountNotAPowerOfTwo)
{
    expectGeometryRejected(smallCache(3, 1, 64),
                           "set count 48 is not a power of two");
}

/**
 * mem::Cache relies on a two-level hierarchy with one line size: a
 * snoop passes its line to the level above unchanged, and no level
 * forwards a promotion further down. It also relies on inclusion,
 * which a second L1 over the same L2 would break: the L2 would
 * back-invalidate only the newer one.
 */
TEST(CacheGeometry, RejectsALowerLevelWithOtherLines)
{
    StubBus bus;
    CacheParams l2p = smallCache(8, 2, 64);
    l2p.name = "test_l2";
    Cache l2(l2p, &bus);
    EXPECT_EXIT(Cache(smallCache(1, 2, 32), &l2),
                ::testing::ExitedWithCode(1),
                "lower level has 64-byte lines, not 32");
}

TEST(CacheGeometry, RejectsAThirdLevel)
{
    TwoLevel h;
    CacheParams l0p = smallCache(1, 2, 64);
    l0p.name = "test_l0";
    EXPECT_EXIT(Cache(l0p, &h.l1), ::testing::ExitedWithCode(1),
                "lower level test_l1 has a level below it");
}

TEST(CacheGeometry, RejectsASecondUpperLevel)
{
    TwoLevel h;
    CacheParams other = smallCache(1, 2, 64);
    other.name = "test_l1b";
    EXPECT_EXIT(Cache(other, &h.l2), ::testing::ExitedWithCode(1),
                "test_l1b: lower level test_l2 already has upper level "
                "test_l1");
}

// ---- Seeded streams: reset and direct-mapped caches. ------------------

/** One step of a seeded stream driven into a lone cache. */
struct Op
{
    enum Kind { Load, Store, SnoopShared, SnoopExclusive, Invalidate };
    Kind kind;
    Addr addr; //!< Line-aligned.
    bool shared; //!< Bus reply to a fill: another cache holds the line.
};

/** The stream's lines; four times what a 1 KB cache holds. */
constexpr Addr kStreamLines = 64;

/**
 * `n` seeded operations over kStreamLines lines: loads and stores that
 * fill and evict, plus the snoops and back-invalidations that drop
 * lines without an eviction.
 */
std::vector<Op>
seededStream(std::uint64_t seed, unsigned n)
{
    sim::SplitMix64 rng(seed);
    std::vector<Op> ops;
    for (unsigned i = 0; i < n; ++i) {
        const double u = rng.uniform();
        const Op::Kind kind = u < 0.5    ? Op::Load
                              : u < 0.8  ? Op::Store
                              : u < 0.87 ? Op::SnoopShared
                              : u < 0.94 ? Op::SnoopExclusive
                                         : Op::Invalidate;
        const Addr addr = rng.below(kStreamLines) * 64;
        ops.push_back(Op{kind, addr, rng.chance(0.3)});
    }
    return ops;
}

/** What one op returned; the field its kind does not use stays default. */
struct Outcome
{
    AccessResult access;
    SnoopResult snoop;
};

Outcome
apply(Cache &c, StubBus &bus, const Op &op, Tick t)
{
    bus.shared = op.shared;
    Outcome out;
    switch (op.kind) {
      case Op::Load:
      case Op::Store:
        out.access = c.access(MemReq{op.addr, op.kind == Op::Store, 0}, t);
        break;
      case Op::SnoopShared:
      case Op::SnoopExclusive:
        out.snoop = c.snoop(op.addr, op.kind == Op::SnoopExclusive);
        break;
      case Op::Invalidate:
        c.invalidateLine(op.addr);
        break;
    }
    return out;
}

/** Every counter of `c`. */
std::array<double, 8>
counters(const Cache &c)
{
    return {c.hits.value(),
            c.misses.value(),
            c.evictions.value(),
            c.writebacks.value(),
            c.upgrades.value(),
            c.snoopInvalidations.value(),
            c.snoopDowngrades.value(),
            c.interventions.value()};
}

/**
 * Drive `ops` into `x` and `y` side by side. Every result, the state of
 * every stream line after every op, and the bus requests each cache
 * issues must match.
 */
void
expectLockstep(Cache &x, StubBus &xbus, Cache &y, StubBus &ybus,
               const std::vector<Op> &ops)
{
    const std::size_t xlog0 = xbus.log.size();
    const std::size_t ylog0 = ybus.log.size();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Tick t = (i + 1) * 1000;
        const Outcome ox = apply(x, xbus, ops[i], t);
        const Outcome oy = apply(y, ybus, ops[i], t);
        ASSERT_EQ(ox.access.done, oy.access.done) << "op " << i;
        ASSERT_EQ(ox.access.granted, oy.access.granted) << "op " << i;
        ASSERT_EQ(ox.access.hit, oy.access.hit) << "op " << i;
        ASSERT_EQ(ox.access.fromBus, oy.access.fromBus) << "op " << i;
        ASSERT_EQ(ox.snoop.present, oy.snoop.present) << "op " << i;
        ASSERT_EQ(ox.snoop.dirtySupplied, oy.snoop.dirtySupplied)
            << "op " << i;
        for (Addr a = 0; a < kStreamLines * 64; a += 64) {
            ASSERT_EQ(x.lineState(a), y.lineState(a))
                << "line " << a << " after op " << i;
        }
    }
    ASSERT_EQ(xbus.log.size() - xlog0, ybus.log.size() - ylog0);
    for (std::size_t i = 0; i < ybus.log.size() - ylog0; ++i) {
        const BusReq &rx = xbus.log[xlog0 + i];
        const BusReq &ry = ybus.log[ylog0 + i];
        EXPECT_EQ(rx.lineAddr, ry.lineAddr) << "bus request " << i;
        EXPECT_EQ(rx.type, ry.type) << "bus request " << i;
    }
}

class CacheReset : public ::testing::TestWithParam<std::uint32_t>
{};

/**
 * Stream A, invalidateAll(), then stream B must be indistinguishable
 * from stream B on a new cache: no line, tag or LRU stamp left by A
 * may change a result.
 */
TEST_P(CacheReset, BehavesLikeANewCache)
{
    const CacheParams p = smallCache(1, GetParam(), 64);
    StubBus xbus, ybus;
    Cache x(p, &xbus);
    Cache y(p, &ybus);

    for (const Op &op : seededStream(1, 2000))
        apply(x, xbus, op, 0);
    ASSERT_GT(x.evictions.value(), 0.0) << "stream A never filled a set";
    x.invalidateAll();
    for (Addr a = 0; a < kStreamLines * 64; a += 64)
        ASSERT_EQ(x.lineState(a), MesiState::Invalid) << "line " << a;

    const std::array<double, 8> before = counters(x);
    expectLockstep(x, xbus, y, ybus, seededStream(2, 2000));
    const std::array<double, 8> after = counters(x);
    const std::array<double, 8> fresh = counters(y);
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(after[i] - before[i], fresh[i]) << "counter " << i;
}

INSTANTIATE_TEST_SUITE_P(Geometry, CacheReset,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto &info) {
                             return "assoc" + std::to_string(info.param);
                         });

/**
 * A line dropped by invalidateAll(), invalidateLine() or an exclusive
 * snoop leaves its tag behind in the slot, but only the valid bit
 * says whether the slot holds a line: re-accessing the line misses,
 * and refilling the set finds a free way, so it evicts nothing and
 * writes nothing back.
 */
TEST(CacheInvalidation, DroppedLinesMissAndLeaveTheirWaysFree)
{
    enum class Drop { All, Line, ExclusiveSnoop };
    for (const std::uint32_t assoc : {1u, 2u, 8u}) {
        for (const Drop drop :
             {Drop::All, Drop::Line, Drop::ExclusiveSnoop}) {
            SCOPED_TRACE("assoc " + std::to_string(assoc) + ", drop " +
                         std::to_string(static_cast<int>(drop)));
            StubBus bus;
            Cache c(smallCache(1, assoc, 64), &bus);
            const Addr stride = Addr(c.numSets()) * 64; // one set
            Tick t = 0;
            for (std::uint32_t w = 0; w < assoc; ++w)
                c.access(MemReq{w * stride, true, 0}, t += 1000);
            switch (drop) {
              case Drop::All:
                c.invalidateAll();
                break;
              case Drop::Line:
                for (std::uint32_t w = 0; w < assoc; ++w)
                    c.invalidateLine(w * stride);
                break;
              case Drop::ExclusiveSnoop:
                for (std::uint32_t w = 0; w < assoc; ++w)
                    c.snoop(w * stride, /*exclusive=*/true);
                break;
            }
            const double hits = c.hits.value();
            const double misses = c.misses.value();
            const double evictions = c.evictions.value();
            const double writebacks = c.writebacks.value();
            const std::size_t busBefore = bus.log.size();
            for (std::uint32_t w = 0; w < assoc; ++w) {
                EXPECT_EQ(c.lineState(w * stride), MesiState::Invalid);
                const AccessResult r =
                    c.access(MemReq{w * stride, false, 0}, t += 1000);
                EXPECT_FALSE(r.hit) << "stale tag hit in way " << w;
            }
            EXPECT_EQ(c.hits.value(), hits);
            EXPECT_EQ(c.misses.value(), misses + assoc);
            EXPECT_EQ(c.evictions.value(), evictions);
            EXPECT_EQ(c.writebacks.value(), writebacks);
            EXPECT_EQ(bus.log.size(), busBefore + assoc); // fills only
            EXPECT_EQ(bus.count(TxType::Writeback), 0);
        }
    }
}

} // namespace
