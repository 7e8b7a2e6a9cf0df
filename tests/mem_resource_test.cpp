/**
 * @file
 * Unit tests for the interval-calendar Resource: gap backfill,
 * joint acquisition, pruning — the machinery that makes the node
 * timing model insensitive to scheduler chunk size — and a
 * differential test of the flat calendar against the std::map
 * calendar it replaced, on seeded random operation streams shaped
 * like the simulator's (PIO tail appends, the message path's floor,
 * chunked multi-CPU backfill under a rising time floor, joint
 * acquisitions, zero durations and resets).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "mem/resource.hh"
#include "sim/random.hh"

namespace {

using pm::Tick;
using pm::mem::BankedResource;
using pm::mem::Resource;
using pm::sim::SplitMix64;

TEST(Resource, FreshResourceStartsImmediately)
{
    Resource r;
    EXPECT_EQ(r.earliestFit(100, 50), 100u);
    EXPECT_EQ(r.acquire(100, 50), 100u);
    EXPECT_EQ(r.freeAt(), 150u);
}

TEST(Resource, BackToBackQueues)
{
    Resource r;
    EXPECT_EQ(r.acquire(0, 100), 0u);
    EXPECT_EQ(r.acquire(0, 100), 100u);
    EXPECT_EQ(r.acquire(50, 100), 200u);
}

TEST(Resource, BackfillsEarlierGap)
{
    Resource r;
    r.acquire(1000, 100); // [1000, 1100)
    // A later-arriving but earlier-timed request fits before it.
    EXPECT_EQ(r.acquire(0, 100), 0u);
    // And in the gap between the two.
    EXPECT_EQ(r.acquire(100, 500), 100u);
}

TEST(Resource, GapTooSmallSkipsForward)
{
    Resource r;
    r.acquire(0, 100); // [0,100)
    r.acquire(150, 100); // [150,250)
    // 50-tick gap at [100,150) cannot hold 80 ticks.
    EXPECT_EQ(r.acquire(100, 80), 250u);
    // But can hold 50.
    EXPECT_EQ(r.acquire(100, 50), 100u);
}

TEST(Resource, RequestInsideBusyIntervalWaits)
{
    Resource r;
    r.acquire(100, 100); // [100,200)
    EXPECT_EQ(r.acquire(150, 10), 200u);
}

TEST(Resource, ZeroDurationIsFree)
{
    Resource r;
    EXPECT_EQ(r.acquire(10, 0), 10u);
    EXPECT_EQ(r.intervals(), 0u);
}

TEST(Resource, BusyTicksAccumulate)
{
    Resource r;
    r.acquire(0, 100);
    r.acquire(0, 50);
    EXPECT_DOUBLE_EQ(r.busyTicks(), 150.0);
}

TEST(Resource, PruneDropsOnlyOldIntervals)
{
    Resource r;
    r.acquire(0, 100);
    r.acquire(200, 100);
    EXPECT_EQ(r.intervals(), 2u);
    r.pruneBelow(150);
    EXPECT_EQ(r.intervals(), 1u);
    // The surviving interval still blocks.
    EXPECT_EQ(r.acquire(200, 10), 300u);
}

TEST(Resource, ResetClearsEverything)
{
    Resource r;
    r.acquire(0, 100);
    r.reset();
    EXPECT_EQ(r.intervals(), 0u);
    EXPECT_EQ(r.acquire(0, 10), 0u);
}

TEST(Resource, AcquirePairFindsCommonSlot)
{
    Resource a, b;
    a.acquire(0, 100); // a busy [0,100)
    b.acquire(100, 100); // b busy [100,200)
    // Earliest common free slot of length 50 is at 200.
    EXPECT_EQ(Resource::acquirePair(a, b, 0, 50), 200u);
}

TEST(Resource, AcquirePairUsesSharedGap)
{
    Resource a, b;
    a.acquire(0, 50); // a busy [0,50)
    b.acquire(80, 50); // b busy [80,130)
    // [50,80) is free on both and holds 30.
    EXPECT_EQ(Resource::acquirePair(a, b, 0, 30), 50u);
}

TEST(Resource, AcquireTogetherDifferentDurations)
{
    Resource bus, bank;
    bank.acquire(0, 300); // bank busy [0,300)
    // Bus wants 100, bank wants 400, common start at 300.
    const Tick s = Resource::acquireTogether(bus, 100, bank, 400, 0);
    EXPECT_EQ(s, 300u);
    EXPECT_EQ(bus.freeAt(), 400u);
    EXPECT_EQ(bank.freeAt(), 700u);
}

TEST(Resource, OutOfOrderArrivalsAreOrderInsensitive)
{
    // The same set of (arrival, duration) requests must produce the
    // same total busy time regardless of arrival-processing order.
    pm::sim::SplitMix64 rng(7);
    std::vector<std::pair<Tick, Tick>> reqs;
    for (int i = 0; i < 64; ++i)
        reqs.emplace_back(rng.below(10000), 10 + rng.below(90));

    Resource fwd;
    for (auto [at, dur] : reqs)
        fwd.acquire(at, dur);

    Resource rev;
    for (auto it = reqs.rbegin(); it != reqs.rend(); ++it)
        rev.acquire(it->first, it->second);

    EXPECT_DOUBLE_EQ(fwd.busyTicks(), rev.busyTicks());
}

TEST(Resource, BackfillIntoGapJustBeforeTail)
{
    Resource r;
    r.acquire(0, 100); // [0,100)
    r.acquire(200, 100); // [200,300): the tail
    // Arrives before the tail's end, so it misses the append fast
    // path and lands in the gap just before the tail.
    EXPECT_EQ(r.acquire(150, 50), 150u);
    EXPECT_EQ(r.intervals(), 3u);
    EXPECT_EQ(r.freeAt(), 300u);
    // The gap [100,150) is left; a request too long for it goes past
    // the tail, one that fits is placed there.
    EXPECT_EQ(r.acquire(100, 60), 300u);
    EXPECT_EQ(r.acquire(100, 50), 100u);
    EXPECT_EQ(r.intervals(), 5u);
    EXPECT_EQ(r.freeAt(), 360u);
}

TEST(Resource, BackfillAfterPrune)
{
    Resource r;
    r.acquire(0, 100); // [0,100)
    r.acquire(200, 100); // [200,300)
    r.acquire(400, 100); // [400,500)
    r.pruneBelow(150);
    EXPECT_EQ(r.intervals(), 2u);
    // Into the front gap, ahead of the first surviving interval.
    EXPECT_EQ(r.acquire(150, 50), 150u);
    // Between the survivors: [200,300) blocks, [300,400) holds 100.
    EXPECT_EQ(r.acquire(150, 100), 300u);
    EXPECT_EQ(r.intervals(), 4u);
    EXPECT_EQ(r.freeAt(), 500u);
    EXPECT_EQ(r.acquire(150, 1), 500u);
}

// ---- Differential test against the std::map calendar. ------------------

/**
 * The std::map calendar Resource used to be, kept as the oracle: one
 * tree node per busy interval, keyed by start.
 */
class MapResource
{
  public:
    Tick
    earliestFit(Tick at, Tick duration) const
    {
        Tick cand = at;
        auto it = _busy.upper_bound(cand);
        if (it != _busy.begin()) {
            auto prev = std::prev(it);
            if (prev->second > cand)
                cand = prev->second;
        }
        while (it != _busy.end() && it->first < cand + duration) {
            cand = it->second;
            ++it;
        }
        return cand;
    }

    void
    reserve(Tick start, Tick duration)
    {
        if (duration == 0)
            return;
        _busy.emplace(start, start + duration);
        _busyTicks += static_cast<double>(duration);
    }

    Tick
    acquire(Tick at, Tick duration)
    {
        const Tick start = earliestFit(at, duration);
        reserve(start, duration);
        return start;
    }

    static Tick
    acquireTogether(MapResource &a, Tick durA, MapResource &b, Tick durB,
                    Tick at)
    {
        Tick cand = at;
        for (;;) {
            const Tick sa = a.earliestFit(cand, durA);
            const Tick sb = b.earliestFit(sa, durB);
            if (sa == sb) {
                a.reserve(sa, durA);
                b.reserve(sa, durB);
                return sa;
            }
            cand = sb;
        }
    }

    static Tick
    acquirePair(MapResource &a, MapResource &b, Tick at, Tick duration)
    {
        return acquireTogether(a, duration, b, duration, at);
    }

    Tick freeAt() const { return _busy.empty() ? 0 : _busy.rbegin()->second; }
    std::size_t intervals() const { return _busy.size(); }

    void
    pruneBelow(Tick floor)
    {
        auto it = _busy.begin();
        while (it != _busy.end() && it->second <= floor)
            it = _busy.erase(it);
    }

    double busyTicks() const { return _busyTicks; }

    void
    reset()
    {
        _busy.clear();
        _busyTicks = 0.0;
    }

  private:
    std::map<Tick, Tick> _busy; //!< start -> end, disjoint.
    double _busyTicks = 0.0;
};

/** A flat calendar and its map oracle, driven in lockstep. */
struct Twin
{
    Resource flat;
    MapResource oracle;

    /** freeAt(), intervals() and busyTicks() agree exactly. */
    ::testing::AssertionResult
    agree() const
    {
        if (flat.freeAt() == oracle.freeAt() &&
            flat.intervals() == oracle.intervals() &&
            flat.busyTicks() == oracle.busyTicks())
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "flat freeAt/intervals/busy " << flat.freeAt() << "/"
               << flat.intervals() << "/" << flat.busyTicks()
               << ", map " << oracle.freeAt() << "/"
               << oracle.intervals() << "/" << oracle.busyTicks();
    }

    ::testing::AssertionResult
    pruneBelow(Tick floor)
    {
        flat.pruneBelow(floor);
        oracle.pruneBelow(floor);
        return agree();
    }

    ::testing::AssertionResult
    reset()
    {
        flat.reset();
        oracle.reset();
        return agree();
    }
};

::testing::AssertionResult
sameStart(const char *op, Tick flat, Tick oracle)
{
    if (flat == oracle)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << op << " started at " << flat << ", map says " << oracle;
}

/** acquire() on both calendars; `start` gets the common start. */
::testing::AssertionResult
acquireBoth(Twin &t, Tick at, Tick duration, Tick &start)
{
    start = t.flat.acquire(at, duration);
    const auto same =
        sameStart("acquire", start, t.oracle.acquire(at, duration));
    return same ? t.agree() : same;
}

::testing::AssertionResult
bothAgree(const ::testing::AssertionResult &same, const Twin &a,
          const Twin &b)
{
    if (!same)
        return same;
    const auto agreeA = a.agree();
    return agreeA ? b.agree() : agreeA;
}

/** acquireTogether() on both pairs; `start` gets the common start. */
::testing::AssertionResult
acquireTogetherBoth(Twin &a, Tick durA, Twin &b, Tick durB, Tick at,
                    Tick &start)
{
    start = Resource::acquireTogether(a.flat, durA, b.flat, durB, at);
    return bothAgree(
        sameStart("acquireTogether", start,
                  MapResource::acquireTogether(a.oracle, durA, b.oracle,
                                               durB, at)),
        a, b);
}

/** acquirePair() on both pairs; `start` gets the common start. */
::testing::AssertionResult
acquirePairBoth(Twin &a, Twin &b, Tick at, Tick duration, Tick &start)
{
    start = Resource::acquirePair(a.flat, b.flat, at, duration);
    return bothAgree(
        sameStart("acquirePair", start,
                  MapResource::acquirePair(a.oracle, b.oracle, at,
                                           duration)),
        a, b);
}

constexpr std::uint64_t kSeeds = 8;

TEST(CalendarDiff, PioTailAppendsMatchMapOracle)
{
    // One CPU driving PIO beats and nothing pruning: an address slot,
    // then the port pair, then the next beat at or just after the last
    // one's end. The calendars only grow.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SplitMix64 rng(seed);
        Twin addr, port, io;
        Tick now = 0;
        for (int i = 0; i < 4000; ++i) {
            const Tick addrTicks = 1 + rng.below(4);
            const Tick beatTicks = 8 + rng.below(24);
            Tick a = 0;
            Tick d = 0;
            ASSERT_TRUE(acquireBoth(addr, now, addrTicks, a))
                << "seed " << seed << " beat " << i;
            ASSERT_TRUE(acquirePairBoth(port, io, a + addrTicks,
                                        beatTicks, d))
                << "seed " << seed << " beat " << i;
            // Mostly back to back; now and then the next beat comes
            // before the data phase ends, or after a pause.
            now = d + beatTicks;
            if (rng.chance(0.2))
                now -= rng.below(beatTicks);
            else if (rng.chance(0.1))
                now += rng.below(200);
        }
        EXPECT_EQ(addr.flat.intervals(), 4000u);
    }
}

TEST(CalendarDiff, MessagePathFloorMatchesMapOracle)
{
    // The message layer: a driver streams PIO beats at the tail, now
    // and then a payload load's fill lands on its port ahead of the
    // tail (later beats backfill behind it), and every engine run
    // prunes all calendars at a rising floor. The floor stays put
    // (nothing dead), passes every interval (all dead), or stops at
    // the exact end of a beat in between (a search for the cut).
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SplitMix64 rng(seed);
        Twin addr, port, io;
        Twin *const calendars[] = {&addr, &port, &io};
        unsigned noneDead = 0;
        unsigned allDead = 0;
        unsigned someDead = 0;
        std::vector<Tick> beatEnds;
        Tick now = 0;
        Tick floor = 0;
        for (int burst = 0; burst < 600; ++burst) {
            beatEnds.clear();
            const auto beats = 1 + rng.below(24);
            for (std::uint64_t i = 0; i < beats; ++i) {
                const Tick addrTicks = 1 + rng.below(4);
                const Tick beatTicks = 8 + rng.below(24);
                Tick a = 0;
                Tick d = 0;
                ASSERT_TRUE(acquireBoth(addr, now, addrTicks, a))
                    << "seed " << seed << " burst " << burst;
                ASSERT_TRUE(acquirePairBoth(port, io, a + addrTicks,
                                            beatTicks, d))
                    << "seed " << seed << " burst " << burst;
                now = d + beatTicks;
                beatEnds.push_back(now);
                if (rng.chance(0.05)) {
                    Tick f = 0;
                    ASSERT_TRUE(acquireBoth(port, now + 50 + rng.below(200),
                                            4 * beatTicks, f))
                        << "seed " << seed << " burst " << burst;
                }
            }
            switch (rng.below(4)) {
              case 0:
                break;
              case 1:
                for (const Twin *t : calendars)
                    floor = std::max(floor, t->flat.freeAt());
                break;
              default:
                floor = std::max(floor,
                                 beatEnds[rng.below(beatEnds.size())]);
                break;
            }
            for (Twin *t : calendars) {
                const std::size_t before = t->flat.intervals();
                ASSERT_TRUE(t->pruneBelow(floor))
                    << "seed " << seed << " burst " << burst;
                const std::size_t after = t->flat.intervals();
                if (before == 0)
                    continue;
                if (after == before)
                    ++noneDead;
                else if (after == 0)
                    ++allDead;
                else
                    ++someDead;
            }
            // Nothing arrives below the floor.
            now = std::max(now, floor);
        }
        EXPECT_GT(noneDead, 0u) << "seed " << seed;
        EXPECT_GT(allDead, 0u) << "seed " << seed;
        EXPECT_GT(someDead, 0u) << "seed " << seed;
    }
}

TEST(CalendarDiff, ChunkedBackfillWithRisingFloorMatchesMapOracle)
{
    // cpu::runJobs: the CPU with the smallest local time runs a chunk
    // of accesses ahead of the others, after every calendar is pruned
    // at that minimum. The others then backfill behind it.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SplitMix64 rng(seed);
        const unsigned cpus = 2 + static_cast<unsigned>(rng.below(7));
        std::vector<Tick> local(cpus, 0);
        Twin addr;
        std::vector<Twin> banks(4);
        for (int chunk = 0; chunk < 600; ++chunk) {
            const auto cpu = static_cast<std::size_t>(
                std::min_element(local.begin(), local.end()) -
                local.begin());
            ASSERT_TRUE(addr.pruneBelow(local[cpu])) << "seed " << seed;
            for (Twin &b : banks)
                ASSERT_TRUE(b.pruneBelow(local[cpu])) << "seed " << seed;
            const unsigned ops = 1 + static_cast<unsigned>(rng.below(48));
            for (unsigned op = 0; op < ops; ++op) {
                const Tick addrTicks = 10 + rng.below(30);
                const Tick bankTicks = 20 + rng.below(80);
                Twin &bank = banks[rng.below(banks.size())];
                Tick a = 0;
                Tick d = 0;
                ASSERT_TRUE(acquireBoth(addr, local[cpu], addrTicks, a))
                    << "seed " << seed << " chunk " << chunk;
                ASSERT_TRUE(
                    acquireBoth(bank, a + addrTicks, bankTicks, d))
                    << "seed " << seed << " chunk " << chunk;
                local[cpu] = rng.chance(0.5) ? d + bankTicks
                                             : local[cpu] + rng.below(60);
            }
        }
    }
}

TEST(CalendarDiff, JointAcquiresWithUnequalDurationsMatchMapOracle)
{
    // Bus-plus-bank (acquireTogether) and port-pair (acquirePair)
    // reservations at random arrivals in a window that creeps forward,
    // so gaps open on one calendar and not the other.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SplitMix64 rng(seed);
        std::vector<Twin> res(3);
        Tick base = 0;
        for (int i = 0; i < 3000; ++i) {
            Twin &a = res[rng.below(res.size())];
            Twin &b = &a == &res[0] ? res[1 + rng.below(2)] : res[0];
            const Tick at = base + rng.below(2000);
            const Tick durA = rng.below(120);
            Tick s = 0;
            if (rng.chance(0.3)) {
                ASSERT_TRUE(acquirePairBoth(a, b, at, durA, s))
                    << "seed " << seed << " op " << i;
            } else {
                ASSERT_TRUE(acquireTogetherBoth(a, durA, b,
                                                rng.below(400), at, s))
                    << "seed " << seed << " op " << i;
            }
            EXPECT_GE(s, at);
            base += rng.below(600);
            if (rng.chance(0.05)) {
                for (Twin &t : res)
                    ASSERT_TRUE(t.pruneBelow(base))
                        << "seed " << seed << " op " << i;
            }
        }
    }
}

TEST(CalendarDiff, ZeroDurationsAndResetsMatchMapOracle)
{
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SplitMix64 rng(seed);
        Twin t;
        Tick base = 0;
        for (int i = 0; i < 5000; ++i) {
            if (rng.chance(0.01)) {
                ASSERT_TRUE(t.reset()) << "seed " << seed << " op " << i;
                base = rng.below(1000);
                continue;
            }
            const Tick dur = rng.chance(0.25) ? 0 : 1 + rng.below(50);
            Tick s = 0;
            ASSERT_TRUE(acquireBoth(t, base + rng.below(500), dur, s))
                << "seed " << seed << " op " << i;
            base += rng.below(20);
            if (rng.chance(0.02)) {
                ASSERT_TRUE(t.pruneBelow(base))
                    << "seed " << seed << " op " << i;
            }
        }
    }
}

TEST(BankedResource, BanksQueueIndependently)
{
    BankedResource dram("d", 4);
    EXPECT_EQ(dram.acquire(0, 0, 100), 0u);
    EXPECT_EQ(dram.acquire(1, 0, 100), 0u); // different bank: no wait
    EXPECT_EQ(dram.acquire(0, 0, 100), 100u); // same bank: queued
}

TEST(BankedResource, BankIndexWraps)
{
    BankedResource dram("d", 4);
    dram.acquire(1, 0, 100);
    EXPECT_EQ(dram.acquire(5, 0, 100), 100u); // 5 % 4 == 1
}

TEST(BankedResource, AggregateBusyTicks)
{
    BankedResource dram("d", 2);
    dram.acquire(0, 0, 100);
    dram.acquire(1, 0, 50);
    EXPECT_DOUBLE_EQ(dram.busyTicks(), 150.0);
}

TEST(BankedResource, ResetAndPrune)
{
    BankedResource dram("d", 2);
    dram.acquire(0, 0, 100);
    dram.pruneBelow(200);
    EXPECT_EQ(dram.bank(0).intervals(), 0u);
    dram.acquire(1, 0, 100);
    dram.reset();
    EXPECT_EQ(dram.acquire(1, 0, 10), 0u);
}

} // namespace
