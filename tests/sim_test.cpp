/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * cancellation, clock domains, statistics, and the PRNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/clock.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace {

using namespace pm;
using pm::sim::ClockDomain;
using pm::sim::EventQueue;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    (void)q.schedule(30, [&] { order.push_back(3); });
    (void)q.schedule(10, [&] { order.push_back(1); });
    (void)q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        (void)q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    (void)q.schedule(1, [&] {
        ++fired;
        (void)q.schedule(2, [&] {
            ++fired;
            (void)q.scheduleIn(3, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue q;
    int fired = 0;
    (void)q.schedule(10, [&] { ++fired; });
    (void)q.schedule(100, [&] { ++fired; });
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    auto id = q.schedule(10, [&] { ++fired; });
    (void)q.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // already cancelled
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidHandleFails)
{
    EventQueue q;
    sim::EventHandle h; // default-constructed: invalid
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(q.cancel(h));
    EXPECT_FALSE(q.scheduled(h));
}

TEST(EventQueue, CancelAfterExecuteFailsAndKeepsPendingConsistent)
{
    // Regression: the old kernel accepted a cancel of an id that had
    // already run, underflowing pending() (size_t wrap) and wedging
    // empty()/run().
    EventQueue q;
    int fired = 0;
    auto h = q.schedule(10, [&] { ++fired; });
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.scheduled(h));
    EXPECT_FALSE(q.cancel(h)); // must reject: already executed
    EXPECT_EQ(q.pending(), 0u); // and never underflow
    EXPECT_TRUE(q.empty());
    (void)q.schedule(20, [&] { ++fired; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DoubleCancelFails)
{
    EventQueue q;
    int fired = 0;
    auto h = q.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, StaleHandleToRecycledSlotFails)
{
    // A handle outlives its event; its slab slot is recycled by later
    // schedulings. The stale handle must not cancel the new occupant.
    EventQueue q;
    int first = 0, second = 0;
    auto stale = q.schedule(10, [&] { ++first; });
    q.run();
    EXPECT_EQ(first, 1);
    auto fresh = q.schedule(20, [&] { ++second; }); // recycles the slot
    EXPECT_NE(stale.id(), fresh.id());
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_TRUE(q.scheduled(fresh));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(second, 1);
}

TEST(EventQueue, PendingAndEmptyStayConsistentUnderChurn)
{
    EventQueue q;
    std::vector<sim::EventHandle> hs;
    for (int i = 0; i < 100; ++i)
        hs.push_back(q.schedule(static_cast<Tick>(10 + i), [] {}));
    EXPECT_EQ(q.pending(), 100u);
    for (int i = 0; i < 100; i += 2)
        EXPECT_TRUE(q.cancel(hs[i]));
    EXPECT_EQ(q.pending(), 50u);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.run(), 50u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    for (auto &h : hs)
        EXPECT_FALSE(q.cancel(h)); // executed or already cancelled
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, SameTickFifoSurvivesInterleavedCancels)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<sim::EventHandle> hs;
    for (int i = 0; i < 8; ++i)
        hs.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
    q.cancel(hs[0]);
    q.cancel(hs[3]);
    q.cancel(hs[7]);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6}));
}

TEST(EventQueue, RunLimitLeavesNowAtLastExecutedEvent)
{
    // now() must never exceed the run limit, and draining cancelled
    // tombstones must not advance it.
    EventQueue q;
    int fired = 0;
    (void)q.schedule(10, [&] { ++fired; });
    auto h = q.schedule(40, [&] { ++fired; });
    (void)q.schedule(90, [&] { ++fired; });
    q.cancel(h);
    EXPECT_EQ(q.run(50), 1u); // executes tick 10; tick-40 is a tombstone
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.now(), 90u);
    // Fully drained queue with only tombstones left behind.
    auto h2 = q.schedule(200, [&] { ++fired; });
    q.cancel(h2);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
    EXPECT_EQ(q.now(), 90u); // unchanged: nothing executed
}

TEST(EventQueue, SlabSlotsAreRecycled)
{
    // Steady-state scheduling must reuse slab records instead of
    // growing — the allocation-free guarantee.
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 4; ++i)
        (void)q.schedule(static_cast<Tick>(i), [&] { ++sink; });
    q.run();
    const std::size_t watermark = q.slabSize();
    for (int round = 0; round < 64; ++round) {
        for (int i = 0; i < 4; ++i)
            (void)q.scheduleIn(static_cast<Tick>(1 + i), [&] { ++sink; });
        q.run();
    }
    EXPECT_EQ(q.slabSize(), watermark);
    EXPECT_EQ(sink, 4 + 64 * 4);
}

TEST(EventQueue, MoveOnlyAndLargeCapturesWork)
{
    EventQueue q;
    // Move-only capture (std::function would reject this).
    auto ptr = std::make_unique<int>(41);
    int got = 0;
    (void)q.schedule(1, [p = std::move(ptr), &got] { got = *p + 1; });
    // Capture larger than the inline buffer: heap fallback path.
    struct Big
    {
        std::uint64_t words[16] = {};
    } big;
    big.words[15] = 7;
    std::uint64_t gotBig = 0;
    static_assert(sizeof(Big) > sim::EventFn::kInlineBytes);
    (void)q.schedule(2, [big, &gotBig] { gotBig = big.words[15]; });
    q.run();
    EXPECT_EQ(got, 42);
    EXPECT_EQ(gotBig, 7u);
}

TEST(EventQueue, CancelReleasesCapturedResourcesEagerly)
{
    EventQueue q;
    auto alive = std::make_shared<int>(1);
    std::weak_ptr<int> watch = alive;
    auto h = q.schedule(10, [keep = std::move(alive)] { (void)keep; });
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(q.cancel(h));
    EXPECT_TRUE(watch.expired()); // capture destroyed at cancel time
}

TEST(EventQueue, PendingCountsUncancelled)
{
    EventQueue q;
    auto a = q.schedule(10, [] {});
    (void)q.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int fired = 0;
    (void)q.schedule(1, [&] { ++fired; });
    (void)q.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelledTickDoesNotMoveTheBase)
{
    // The queue files later events by how their tick differs from
    // now(), so now() must be the only base. A base that ran ahead to
    // the cancelled tick 40 while run(50) drained it would misfile the
    // tick-20 event scheduled next and run the new tick-40 one first.
    EventQueue q;
    std::vector<int> order;
    (void)q.schedule(10, [&] { order.push_back(10); });
    auto h = q.schedule(40, [&] { order.push_back(-40); });
    (void)q.schedule(90, [&] { order.push_back(90); });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(q.now(), 10u);
    (void)q.schedule(20, [&] { order.push_back(20); });
    (void)q.schedule(40, [&] { order.push_back(40); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{10, 20, 40, 90}));
    EXPECT_EQ(q.now(), 90u);
}

/**
 * The binary-heap kernel's order, kept as the oracle of EventQueue:
 * the pending events are (when, seq) pairs in a std::set, and the next
 * event is always its first element.
 */
class OracleQueue
{
  public:
    Tick now() const { return _now; }
    std::size_t pending() const { return _pending.size(); }
    std::uint64_t executed() const { return _executed; }
    std::uint64_t cancelledTotal() const { return _cancelledTotal; }

    /** @return The new event's seq, numbered like EventHandle::id(). */
    std::uint64_t
    schedule(Tick when)
    {
        _when.push_back(when);
        const std::uint64_t seq = _when.size();
        _pending.emplace(when, seq);
        return seq;
    }

    bool
    scheduled(std::uint64_t seq) const
    {
        return seq != 0 && seq <= _when.size() &&
               _pending.count({_when[seq - 1], seq}) != 0;
    }

    bool
    cancel(std::uint64_t seq)
    {
        if (!scheduled(seq))
            return false;
        _pending.erase({_when[seq - 1], seq});
        ++_cancelledTotal;
        return true;
    }

    /** Pop the next event due by `limit`: its seq, or 0 if none is. */
    std::uint64_t
    step(Tick limit)
    {
        if (_pending.empty() || _pending.begin()->first > limit)
            return 0;
        const auto [when, seq] = *_pending.begin();
        _pending.erase(_pending.begin());
        _now = when;
        ++_executed;
        return seq;
    }

  private:
    Tick _now = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _cancelledTotal = 0;
    std::vector<Tick> _when; //!< Indexed by seq - 1.
    std::set<std::pair<Tick, std::uint64_t>> _pending;
};

/**
 * Applies every operation to an EventQueue and to the oracle, and
 * fails the running test at the first observable difference: the
 * executed event, now(), pending(), executed(), cancelledTotal() and
 * scheduled() of the most recent handles, compared after every
 * operation and inside every callback.
 */
class DiffHarness
{
  public:
    /** Runs inside each event's callback, after the comparison. */
    using React = std::function<void(DiffHarness &)>;

    explicit DiffHarness(std::uint64_t seed, React react = {})
        : rng(seed), _react(std::move(react))
    {}

    sim::SplitMix64 rng;

    bool ok() const { return !_failed; }
    Tick now() const { return _o.now(); }
    std::size_t pending() const { return _o.pending(); }

    void
    schedule(Tick when)
    {
        const std::uint64_t seq = _o.schedule(when);
        const sim::EventHandle h =
            _q.schedule(when, [this, seq] { fire(seq); });
        if (h.id() != seq)
            fail("schedule: handle id");
        remember(h);
        check("schedule");
    }

    /** Schedule `delta` after now(), capped at kTickNever - 1. */
    void
    scheduleIn(Tick delta)
    {
        schedule(now() + std::min(delta, kTickNever - 1 - now()));
    }

    /** Cancel one of the recent handles, pending or not. */
    void
    cancelRandom()
    {
        if (_handles.empty())
            return;
        const sim::EventHandle h = _handles[rng.below(_handles.size())];
        if (_q.cancel(h) != _o.cancel(h.id()))
            fail("cancel: result");
        check("cancel");
    }

    /** Cancel one of the recent handles if pending, and post it anew. */
    void
    supersede(Tick delta)
    {
        if (_handles.empty())
            return;
        const sim::EventHandle h = _handles[rng.below(_handles.size())];
        if (!_o.scheduled(h.id()))
            return;
        if (!_q.cancel(h) || !_o.cancel(h.id()))
            fail("supersede: cancel");
        check("supersede");
        scheduleIn(delta);
    }

    bool
    step(Tick limit = kTickNever)
    {
        _limit = limit;
        _fired = 0;
        const bool ran = _q.step(limit);
        if (ran != (_fired != 0))
            fail("step: result");
        if (!ran && _o.step(limit) != 0)
            fail("step: oracle had a due event");
        check("step");
        return ran;
    }

    void
    run(Tick limit = kTickNever)
    {
        _limit = limit;
        _fired = 0;
        const std::uint64_t n = _q.run(limit);
        if (n != _fired)
            fail("run: count");
        if (_o.step(limit) != 0)
            fail("run: oracle had a due event");
        check("run");
    }

  private:
    static constexpr std::size_t kWindow = 128;

    void
    fire(std::uint64_t seq)
    {
        ++_fired;
        if (_o.step(_limit) != seq)
            fail("executed event");
        check("callback");
        if (_react && ok())
            _react(*this);
    }

    void
    remember(sim::EventHandle h)
    {
        if (_handles.size() < kWindow)
            _handles.push_back(h);
        else
            _handles[_nextHandle++ % kWindow] = h;
    }

    void
    check(const char *op)
    {
        if (_q.now() != _o.now())
            fail(op, "now()");
        else if (_q.pending() != _o.pending())
            fail(op, "pending()");
        else if (_q.executed() != _o.executed())
            fail(op, "executed()");
        else if (_q.cancelledTotal() != _o.cancelledTotal())
            fail(op, "cancelledTotal()");
        for (const sim::EventHandle &h : _handles)
            if (_q.scheduled(h) != _o.scheduled(h.id()))
                fail(op, "scheduled()");
    }

    void
    fail(const char *op, const char *what = "")
    {
        if (!_failed)
            ADD_FAILURE() << "queue and oracle differ after " << op << ' '
                          << what << " (oracle now " << _o.now()
                          << ", executed " << _o.executed() << ")";
        _failed = true;
    }

    EventQueue _q;
    OracleQueue _o;
    React _react;
    Tick _limit = kTickNever;
    std::uint64_t _fired = 0; //!< Callbacks run by the current call.
    std::vector<sim::EventHandle> _handles;
    std::size_t _nextHandle = 0;
    bool _failed = false;
};

constexpr std::uint64_t kDiffSeeds = 8;

TEST(EventQueueDiff, SameTickBurstsWithCancels)
{
    for (std::uint64_t seed = 1; seed <= kDiffSeeds; ++seed) {
        SCOPED_TRACE(seed);
        DiffHarness h(seed, [](DiffHarness &d) {
            if (d.rng.chance(0.3))
                d.schedule(d.now()); // same tick, from inside a callback
        });
        static constexpr Tick kOffsets[] = {0, 0, 1, 2, 3, 1000, 4096};
        for (int round = 0; round < 300 && h.ok(); ++round) {
            const Tick at = h.now() + kOffsets[h.rng.below(7)];
            for (std::uint64_t i = 1 + h.rng.below(12); i > 0; --i)
                h.schedule(at);
            for (std::uint64_t i = h.rng.below(5); i > 0; --i)
                h.cancelRandom();
            for (std::uint64_t i = 1 + h.rng.below(8); i > 0; --i)
                h.step();
        }
        h.run();
        EXPECT_EQ(h.pending(), 0u);
    }
}

TEST(EventQueueDiff, FabricMix)
{
    // The measured fabric_uniform stream: 29% of events are scheduled
    // at now(), the rest within 1 us, and 8% supersede (cancel and
    // re-post) a pending event, around 85 queued events.
    const auto delay = [](DiffHarness &d) -> Tick {
        return d.rng.chance(0.29) ? 0 : 1 + d.rng.below(kTicksPerUs);
    };
    for (std::uint64_t seed = 1; seed <= kDiffSeeds; ++seed) {
        SCOPED_TRACE(seed);
        DiffHarness h(seed, [&delay](DiffHarness &d) {
            d.scheduleIn(delay(d));
            if (d.rng.chance(0.08))
                d.supersede(delay(d));
        });
        for (int i = 0; i < 85; ++i)
            h.scheduleIn(delay(h));
        for (int i = 0; i < 4000 && h.ok(); ++i)
            ASSERT_TRUE(h.step());
        EXPECT_EQ(h.pending(), 85u);
        h.run(h.now() + kTicksPerUs / 2);
    }
}

TEST(EventQueueDiff, FarFutureTicks)
{
    // Ticks up to kTickNever - 1: anything at or past 2^63 sits in the
    // top bucket until now() crosses 2^63.
    for (std::uint64_t seed = 1; seed <= kDiffSeeds; ++seed) {
        SCOPED_TRACE(seed);
        DiffHarness h(seed);
        for (int op = 0; op < 3000 && h.ok(); ++op) {
            const std::uint64_t pick = h.rng.below(10);
            if (pick < 3)
                h.scheduleIn(h.rng.below(100));
            else if (pick == 3)
                h.scheduleIn(0);
            else if (pick == 4)
                h.scheduleIn(h.rng.next());
            else if (pick == 5)
                h.schedule(kTickNever - 1);
            else if (pick == 6)
                h.schedule(std::max(
                    h.now(), (Tick{1} << 63) +
                                 h.rng.below((Tick{1} << 63) - 1)));
            else if (pick == 7)
                h.cancelRandom();
            else
                h.step();
        }
        h.run();
        EXPECT_EQ(h.pending(), 0u);
    }
}

TEST(EventQueueDiff, StepAndRunStops)
{
    // run(limit) and step(limit) stop short of later events, with
    // limits ahead of, at and behind now(); schedules and cancels go in
    // between the calls.
    for (std::uint64_t seed = 1; seed <= kDiffSeeds; ++seed) {
        SCOPED_TRACE(seed);
        DiffHarness h(seed);
        const auto limit = [&h] {
            const Tick ahead = h.now() + h.rng.below(3000);
            return ahead < 1000 ? 0 : ahead - 1000;
        };
        for (int op = 0; op < 3000 && h.ok(); ++op) {
            const std::uint64_t pick = h.rng.below(10);
            if (pick < 4)
                h.scheduleIn(h.rng.chance(0.2) ? 0 : h.rng.below(2000));
            else if (pick < 6)
                h.cancelRandom();
            else if (pick < 8)
                h.step(limit());
            else if (pick == 8)
                h.run(limit());
            else if (h.rng.chance(0.1))
                h.run();
            else
                h.step();
        }
        h.run();
        EXPECT_EQ(h.pending(), 0u);
    }
}

TEST(ClockDomain, PeriodsAreRoundedPicoseconds)
{
    ClockDomain mhz60(60.0);
    EXPECT_EQ(mhz60.period(), 16667u); // 16.666... ns
    ClockDomain mhz180(180.0);
    EXPECT_EQ(mhz180.period(), 5556u);
}

TEST(ClockDomain, CyclesScaleLinearly)
{
    ClockDomain clk(100.0); // 10 ns period
    EXPECT_EQ(clk.period(), 10000u);
    EXPECT_EQ(clk.cycles(0), 0u);
    EXPECT_EQ(clk.cycles(7), 70000u);
}

TEST(Stats, ScalarAccumulates)
{
    sim::Scalar s("s");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 4.0;
    EXPECT_EQ(s.value(), 5.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionMoments)
{
    sim::Distribution d("d");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.variance(), 4.0);
}

TEST(Stats, VarianceIsExactForOffsetSamples)
{
    // Regression: the old sum-of-squares variance cancels
    // catastrophically when the mean dwarfs the spread — exactly the
    // latency-in-ticks regime (~1e9). Welford's update must recover
    // the exact variance of mean-shifted samples.
    sim::Distribution d("lat");
    const double base = 1e9;
    for (double off : {1.0, 2.0, 3.0})
        d.sample(base + off);
    EXPECT_DOUBLE_EQ(d.mean(), base + 2.0);
    EXPECT_NEAR(d.variance(), 2.0 / 3.0, 1e-9);

    // Same shape, bigger offset: must stay exact and non-negative.
    d.reset();
    for (double off : {5.0, 5.0, 9.0, 9.0})
        d.sample(1e12 + off);
    EXPECT_NEAR(d.variance(), 4.0, 1e-3);
    EXPECT_GE(d.variance(), 0.0);
}

TEST(Stats, EmptyDistributionIsZero)
{
    sim::Distribution d("d");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(Stats, GroupDumpAndReset)
{
    sim::StatGroup root("root");
    sim::Scalar s("hits", "demand hits");
    sim::Distribution d("lat");
    root.add(&s);
    root.add(&d);
    s += 3;
    d.sample(1.0);

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("root.hits 3"), std::string::npos);
    EXPECT_NE(out.find("root.lat::count 1"), std::string::npos);

    root.reset();
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, NestedGroupsPrefixNames)
{
    sim::StatGroup root("node");
    sim::StatGroup child("l1");
    sim::Scalar s("misses");
    child.add(&s);
    root.add(&child);
    s += 1;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("node.l1.misses 1"), std::string::npos);
}

TEST(Random, Deterministic)
{
    sim::SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    sim::SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Random, BelowIsInRange)
{
    sim::SplitMix64 r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, UniformIsInUnitInterval)
{
    sim::SplitMix64 r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Types, TickConversions)
{
    EXPECT_DOUBLE_EQ(ticksToUs(kTicksPerUs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToNs(2500), 2.5);
    EXPECT_DOUBLE_EQ(ticksToSec(kTicksPerSec), 1.0);
}

TEST(Logging, AssertPassesQuietly)
{
    const int three = 3;
    pm_assert(three == 3);
    pm_assert(three > 0, "context %d never printed", three);
}

TEST(Logging, AssertPrintsCondition)
{
    const int three = 3;
    EXPECT_DEATH(pm_assert(three == 4),
                 "assertion failed: three == 4");
}

TEST(Logging, AssertPrintsFormattedMessageWithCondition)
{
    // Regression: the message after the condition used to be silently
    // dropped — only the stringified condition was ever printed.
    const unsigned seq = 41;
    EXPECT_DEATH(pm_assert(seq + 1 == 41, "dst %u lost seq %u", 3u, seq),
                 "assertion failed: seq \\+ 1 == 41: dst 3 lost seq 41");
}

} // namespace
