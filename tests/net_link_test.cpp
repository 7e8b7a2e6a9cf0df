/**
 * @file
 * Unit tests for the link layer: symbols, input FIFOs with flow
 * control, the LinkTx serializer (wire rate, latency, stop-signal
 * behaviour) and the one pump rule every forwarding element follows
 * (Pump, LinkTx::ready).
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/fifo.hh"
#include "net/link.hh"
#include "net/symbol.hh"
#include "sim/event.hh"
#include "sim/fault.hh"

namespace {

using namespace pm;
using namespace pm::net;

TEST(Symbol, WireSizes)
{
    EXPECT_EQ(Symbol::makeRoute(3).wireBytes(), 1u);
    EXPECT_EQ(Symbol::makeClose().wireBytes(), 1u);
    EXPECT_EQ(Symbol::makeData(42).wireBytes(), 8u);
}

TEST(Symbol, FactoriesSetFields)
{
    const Symbol r = Symbol::makeRoute(7);
    EXPECT_EQ(r.kind, SymKind::Route);
    EXPECT_EQ(r.route, 7);
    const Symbol d = Symbol::makeData(0xabcdefull);
    EXPECT_EQ(d.kind, SymKind::Data);
    EXPECT_EQ(d.data, 0xabcdefull);
    EXPECT_EQ(Symbol::makeClose().kind, SymKind::Close);
}

TEST(InputFifo, PushPopFifoOrder)
{
    InputFifo f("f", 4);
    f.push(Symbol::makeData(1));
    f.push(Symbol::makeData(2));
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.pop().data, 1u);
    EXPECT_EQ(f.pop().data, 2u);
    EXPECT_TRUE(f.empty());
}

TEST(InputFifo, CapacityAndSpace)
{
    InputFifo f("f", 2);
    EXPECT_EQ(f.freeSpace(), 2u);
    f.push(Symbol::makeData(1));
    EXPECT_EQ(f.freeSpace(), 1u);
    f.push(Symbol::makeData(2));
    EXPECT_EQ(f.freeSpace(), 0u);
    EXPECT_FALSE(f.hasSpace());
}

TEST(InputFifo, OverflowPanics)
{
    InputFifo f("f", 1);
    f.push(Symbol::makeData(1));
    EXPECT_DEATH(f.push(Symbol::makeData(2)), "full FIFO");
}

TEST(InputFifo, SpaceCallbackFiresOncePerSubscription)
{
    InputFifo f("f", 1);
    f.push(Symbol::makeData(1));
    int fired = 0;
    f.onSpace([&] { ++fired; });
    (void)f.pop();
    EXPECT_EQ(fired, 1);
    f.push(Symbol::makeData(2));
    (void)f.pop();
    EXPECT_EQ(fired, 1); // one-shot
}

TEST(InputFifo, FillCallbackFiresOnEveryPush)
{
    InputFifo f("f", 4);
    int fills = 0;
    f.setFillCallback([&] { ++fills; });
    f.push(Symbol::makeData(1));
    f.push(Symbol::makeData(2));
    EXPECT_EQ(fills, 2);
}

TEST(InputFifo, ClearFiresNothingDropsWaitersKeepsFillCallback)
{
    // Regression, two ways. clear() used to notify throttled senders,
    // waking them into a torn-down configuration mid-reset: it must
    // invoke nothing. And it used to drop the *persistent* fill
    // callback with the contents, so any owner that forgot to
    // re-register received symbols into a deaf FIFO on the next run:
    // the fill callback is wiring, and must survive.
    InputFifo f("f", 1);
    f.push(Symbol::makeData(1));
    int spaceFired = 0, fillFired = 0;
    f.onSpace([&] { ++spaceFired; });
    f.setFillCallback([&] { ++fillFired; });
    f.clear();
    EXPECT_EQ(spaceFired, 0);
    EXPECT_EQ(fillFired, 0);
    EXPECT_TRUE(f.empty());
    // A second run on the cleared FIFO still delivers fill
    // notifications through the surviving callback.
    f.push(Symbol::makeData(2));
    EXPECT_EQ(fillFired, 1);
    // But the stale one-shot space waiter must not fire on its drains.
    (void)f.pop();
    EXPECT_EQ(spaceFired, 0);
}

TEST(InputFifo, TracksPeakOccupancy)
{
    InputFifo f("f", 4);
    f.push(Symbol::makeData(1));
    f.push(Symbol::makeData(2));
    (void)f.pop();
    EXPECT_EQ(f.maxOccupancy.value(), 2.0);
}

TEST(LinkParams, TxTimeMatchesWireRate)
{
    LinkParams p;
    p.mbps = 60.0;
    // One byte at 60 MB/s = 16.67 ns.
    EXPECT_NEAR(double(p.txTime(1)), 16667, 10);
    EXPECT_NEAR(double(p.txTime(8)), 133333, 50);
}

TEST(LinkTx, DeliversAfterTxTimePlusLatency)
{
    sim::EventQueue q;
    InputFifo sink("s", 8);
    LinkParams p;
    p.mbps = 60.0;
    p.latency = 33000;
    LinkTx tx("t", q, p, &sink);

    ASSERT_TRUE(tx.canSend(0));
    tx.send(Symbol::makeData(99), 0);
    EXPECT_TRUE(sink.empty());
    q.run();
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.pop().data, 99u);
    EXPECT_EQ(q.now(), p.txTime(8) + p.latency);
}

TEST(LinkTx, WireSerializesBackToBack)
{
    sim::EventQueue q;
    InputFifo sink("s", 8);
    LinkParams p;
    LinkTx tx("t", q, p, &sink);

    const Tick free1 = tx.send(Symbol::makeData(1), 0);
    EXPECT_FALSE(tx.canSend(0)); // wire busy
    EXPECT_TRUE(tx.canSend(free1));
    const Tick free2 = tx.send(Symbol::makeData(2), free1);
    EXPECT_EQ(free2 - free1, p.txTime(8));
    q.run();
    EXPECT_EQ(sink.size(), 2u);
}

TEST(LinkTx, RouteByteIsCheap)
{
    sim::EventQueue q;
    InputFifo sink("s", 8);
    LinkParams p;
    LinkTx tx("t", q, p, &sink);
    const Tick free1 = tx.send(Symbol::makeRoute(5), 0);
    EXPECT_EQ(free1, p.txTime(1));
}

TEST(LinkTx, RespectsReceiverSpaceIncludingInflight)
{
    sim::EventQueue q;
    InputFifo sink("s", 2);
    LinkParams p;
    LinkTx tx("t", q, p, &sink);

    Tick t = tx.send(Symbol::makeData(1), 0);
    t = tx.send(Symbol::makeData(2), t);
    // Two symbols in flight toward a 2-entry FIFO: stop asserted.
    EXPECT_FALSE(tx.canSend(t));
    q.run(); // deliveries land; the FIFO is now full
    EXPECT_FALSE(tx.canSend(q.now()));
    (void)sink.pop(); // reader drains one entry: stop released
    EXPECT_TRUE(tx.canSend(q.now()));
    tx.send(Symbol::makeData(3), q.now());
    // One buffered + one in flight again: blocked until another pop.
    const Tick t3 = q.now() + p.txTime(8);
    q.run();
    EXPECT_FALSE(tx.canSend(t3));
    (void)sink.pop();
    EXPECT_TRUE(tx.canSend(t3));
}

TEST(LinkTx, SendWhileBlockedPanics)
{
    sim::EventQueue q;
    InputFifo sink("s", 1);
    LinkParams p;
    LinkTx tx("t", q, p, &sink);
    const Tick t = tx.send(Symbol::makeData(1), 0);
    EXPECT_DEATH(tx.send(Symbol::makeData(2), t), "busy or receiver");
}

TEST(LinkTx, CountsWireBytes)
{
    sim::EventQueue q;
    InputFifo sink("s", 8);
    LinkTx tx("t", q, LinkParams{}, &sink);
    Tick t = tx.send(Symbol::makeRoute(1), 0);
    t = tx.send(Symbol::makeData(1), t);
    tx.send(Symbol::makeClose(), t);
    EXPECT_EQ(tx.bytesSent.value(), 10.0); // 1 + 8 + 1
}

TEST(LinkTx, SustainedRateIsSixtyMBps)
{
    sim::EventQueue q;
    InputFifo sink("s", 1024);
    LinkParams p;
    p.mbps = 60.0;
    p.latency = 0;
    LinkTx tx("t", q, p, &sink);
    Tick t = 0;
    for (int i = 0; i < 100; ++i)
        t = tx.send(Symbol::makeData(i), t);
    // 800 bytes at 60 MB/s = 13.33 us.
    EXPECT_NEAR(ticksToUs(t), 800.0 / 60.0, 0.05);
}

TEST(LinkTx, ReadyOnBusyWireWakesAtBusyUntil)
{
    sim::EventQueue q;
    InputFifo sink("s", 8);
    LinkTx tx("t", q, LinkParams{}, &sink);
    const Tick wireFree = tx.send(Symbol::makeData(1), 0);

    std::vector<Tick> wakes;
    const auto wake = [&](Tick t) { wakes.push_back(t); };
    EXPECT_FALSE(tx.ready(0, wake));
    EXPECT_EQ(wakes, std::vector<Tick>{tx.busyUntil()});
    EXPECT_EQ(tx.busyUntil(), wireFree);
    EXPECT_EQ(sink.waiters(), 0u); // a busy wire is not the stop signal
}

TEST(LinkTx, ReadyWithFullReceiverWakesAtThePop)
{
    sim::EventQueue q;
    InputFifo sink("s", 1);
    LinkTx tx("t", q, LinkParams{}, &sink);
    (void)tx.send(Symbol::makeData(1), 0);
    q.run(); // delivered: the one-entry receiver is full

    std::vector<Tick> wakes;
    EXPECT_FALSE(tx.ready(q.now(), [&](Tick t) { wakes.push_back(t); }));
    EXPECT_TRUE(wakes.empty()); // nothing to retry until the stop lifts
    EXPECT_EQ(sink.waiters(), 1u);

    const Tick popAt = q.now() + 5 * kTicksPerNs;
    (void)q.schedule(popAt, [&] { (void)sink.pop(); });
    q.run();
    EXPECT_EQ(wakes, std::vector<Tick>{popAt});
    EXPECT_TRUE(tx.canSend(popAt));
}

TEST(LinkTx, ReadyInLinkDownWindowWakesAtWindowEnd)
{
    sim::EventQueue q;
    sim::FaultModel fault(1);
    const Tick from = 100 * kTicksPerNs, to = 700 * kTicksPerNs;
    fault.configure("t", sim::FaultConfig{0.0, 0.0, {{from, to}}});
    LinkParams p;
    p.fault = &fault;
    InputFifo sink("s", 8);
    LinkTx tx("t", q, p, &sink);
    (void)q.schedule(from + 50 * kTicksPerNs, [] {});
    q.run(); // now() sits inside the window

    std::vector<Tick> wakes;
    EXPECT_FALSE(tx.ready(q.now(), [&](Tick t) { wakes.push_back(t); }));
    EXPECT_EQ(wakes, std::vector<Tick>{to});
    EXPECT_TRUE(tx.ready(to, [&](Tick t) { wakes.push_back(t); }));
    EXPECT_EQ(wakes.size(), 1u);
}

TEST(Pump, LaterOrEqualRequestLeavesThePendingPumpAlone)
{
    sim::EventQueue q;
    Pump pump;
    std::vector<int> ran;
    pump.at(q, 100, [&] { ran.push_back(1); });
    pump.at(q, 100, [&] { ran.push_back(2); });
    pump.at(q, 250, [&] { ran.push_back(3); });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.cancelledTotal(), 0u);
    q.run();
    EXPECT_EQ(ran, std::vector<int>{1});
    EXPECT_EQ(q.now(), 100u);
}

TEST(Pump, EarlierRequestCancelsThePendingPump)
{
    sim::EventQueue q;
    Pump pump;
    std::vector<int> ran;
    pump.at(q, 250, [&] { ran.push_back(1); });
    const auto cancelled = q.cancelledTotal();
    pump.at(q, 100, [&] { ran.push_back(2); });
    EXPECT_EQ(q.cancelledTotal(), cancelled + 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(ran, std::vector<int>{2});
    EXPECT_EQ(q.now(), 100u);
}

TEST(Pump, CancelDropsThePendingPumpAndALaterAtSchedulesAgain)
{
    sim::EventQueue q;
    Pump pump;
    std::vector<int> ran;
    pump.at(q, 100, [&] { ran.push_back(1); });
    pump.cancel(q);
    EXPECT_EQ(q.pending(), 0u);
    // Later than the cancelled pump, yet nothing covers it any more.
    pump.at(q, 300, [&] { ran.push_back(2); });
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(ran, std::vector<int>{2});
    EXPECT_EQ(q.now(), 300u);
}

} // namespace
