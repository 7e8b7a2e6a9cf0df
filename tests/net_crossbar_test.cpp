/**
 * @file
 * Unit tests for the crossbar: route-command consumption, 0.2 us
 * through-routing, wormhole forwarding, close teardown, output
 * arbitration with waiter wakeup, flow control, and protocol
 * violations.
 */

#include <gtest/gtest.h>

#include <memory>

#include "net/crossbar.hh"
#include "net/fifo.hh"
#include "sim/event.hh"

namespace {

using namespace pm;
using namespace pm::net;

struct Rig
{
    sim::EventQueue queue;
    CrossbarParams params;
    std::unique_ptr<Crossbar> xbar;
    std::vector<std::unique_ptr<InputFifo>> sinks;

    explicit Rig(unsigned ports = 4, unsigned sinkCapacity = 64)
    {
        params.ports = ports;
        params.name = "x";
        xbar = std::make_unique<Crossbar>(params, queue);
        for (unsigned o = 0; o < ports; ++o) {
            sinks.push_back(std::make_unique<InputFifo>(
                "sink" + std::to_string(o), sinkCapacity));
            xbar->connectOutput(o, sinks.back().get());
        }
    }

    /** Inject a symbol into input port `i` right now. */
    void
    inject(unsigned i, const Symbol &s)
    {
        xbar->inputPort(i)->push(s);
    }
};

TEST(Crossbar, RouteCommandIsConsumed)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(2));
    r.inject(0, Symbol::makeData(11));
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    // The destination sees data + close but not the route byte.
    ASSERT_EQ(r.sinks[2]->size(), 2u);
    EXPECT_EQ(r.sinks[2]->pop().kind, SymKind::Data);
    EXPECT_EQ(r.sinks[2]->pop().kind, SymKind::Close);
}

TEST(Crossbar, ThroughRoutingTakes200ns)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(1));
    r.inject(0, Symbol::makeData(42));
    r.queue.run();
    // Data arrival = route latency + data tx + link latency (the route
    // byte is consumed, not forwarded).
    const Tick expected = r.params.routeLatency +
                          r.params.link.txTime(8) +
                          r.params.link.latency;
    EXPECT_EQ(r.queue.now(), expected);
    EXPECT_EQ(r.xbar->routesEstablished.value(), 1.0);
}

TEST(Crossbar, AnyInputToAnyOutput)
{
    // Unlike the CM-5's level-restricted switch, every input must be
    // routable to every output.
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned o = 0; o < 4; ++o) {
            Rig r;
            r.inject(i, Symbol::makeRoute(static_cast<std::uint8_t>(o)));
            r.inject(i, Symbol::makeData(i * 10 + o));
            r.inject(i, Symbol::makeClose());
            r.queue.run();
            ASSERT_EQ(r.sinks[o]->size(), 2u)
                << "input " << i << " -> output " << o;
            EXPECT_EQ(r.sinks[o]->pop().data, i * 10 + o);
        }
    }
}

TEST(Crossbar, CloseTearsDownConnection)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(1));
    r.inject(0, Symbol::makeData(1));
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.xbar->outputOwner(1), -1);
    // A second message through the same ports works.
    r.inject(0, Symbol::makeRoute(1));
    r.inject(0, Symbol::makeData(2));
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.sinks[1]->size(), 4u);
}

TEST(Crossbar, SecondMessageCanChooseNewOutput)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(1));
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    r.inject(0, Symbol::makeRoute(3));
    r.inject(0, Symbol::makeData(7));
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.sinks[3]->size(), 2u);
}

TEST(Crossbar, OutputConflictParksSecondInput)
{
    Rig r;
    // Input 0 claims output 2 and holds it (no close yet).
    r.inject(0, Symbol::makeRoute(2));
    r.inject(0, Symbol::makeData(1));
    r.queue.run();
    // Input 1 wants the same output: must wait.
    r.inject(1, Symbol::makeRoute(2));
    r.inject(1, Symbol::makeData(2));
    r.queue.run();
    EXPECT_EQ(r.xbar->outputOwner(2), 0);
    EXPECT_EQ(r.xbar->routeConflicts.value(), 1.0);
    EXPECT_EQ(r.sinks[2]->size(), 1u); // only input 0's data

    // Close from input 0 hands the output to input 1.
    r.inject(0, Symbol::makeClose());
    r.inject(1, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.xbar->outputOwner(2), -1);
    EXPECT_EQ(r.sinks[2]->size(), 4u); // close + data + close
}

TEST(Crossbar, WaitersWakeInArrivalOrder)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(3)); // owner
    r.queue.run();
    r.inject(1, Symbol::makeRoute(3));
    r.queue.run();
    r.inject(2, Symbol::makeRoute(3));
    r.queue.run();
    // Release: input 1 (first waiter) must win.
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.xbar->outputOwner(3), 1);
}

TEST(Crossbar, IndependentPairsDoNotInterfere)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(1));
    r.inject(2, Symbol::makeRoute(3));
    for (int k = 0; k < 4; ++k) {
        r.inject(0, Symbol::makeData(k));
        r.inject(2, Symbol::makeData(100 + k));
    }
    r.inject(0, Symbol::makeClose());
    r.inject(2, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.sinks[1]->size(), 5u);
    EXPECT_EQ(r.sinks[3]->size(), 5u);
    EXPECT_EQ(r.xbar->routeConflicts.value(), 0.0);
}

TEST(Crossbar, BackpressureFromFullDownstream)
{
    Rig r(4, /*sinkCapacity=*/2);
    r.inject(0, Symbol::makeRoute(1));
    for (int k = 0; k < 6; ++k) {
        // Feed slowly enough that the input FIFO itself never fills.
        r.queue.run();
        if (r.xbar->inputPort(0)->hasSpace())
            r.inject(0, Symbol::makeData(k));
    }
    r.queue.run();
    // Only 2 can be buffered downstream; the rest wait upstream.
    EXPECT_EQ(r.sinks[1]->size(), 2u);
    // Draining releases the stop signal and the rest flow.
    while (!r.sinks[1]->empty())
        (void)r.sinks[1]->pop();
    r.queue.run();
    EXPECT_GT(r.sinks[1]->size(), 0u);
}

TEST(Crossbar, DataBeforeRoutePanics)
{
    Rig r;
    r.inject(0, Symbol::makeData(1));
    EXPECT_DEATH(r.queue.run(), "protocol violation");
}

TEST(Crossbar, RouteToUnconnectedOutputPanics)
{
    sim::EventQueue q;
    CrossbarParams p;
    p.ports = 4;
    Crossbar x(p, q);
    InputFifo sink("s", 8);
    x.connectOutput(0, &sink);
    x.inputPort(1)->push(Symbol::makeRoute(2));
    EXPECT_DEATH(q.run(), "invalid output");
}

TEST(Crossbar, SymbolsForwardedCounted)
{
    Rig r;
    r.inject(0, Symbol::makeRoute(1));
    r.inject(0, Symbol::makeData(1));
    r.inject(0, Symbol::makeData(2));
    r.inject(0, Symbol::makeClose());
    r.queue.run();
    EXPECT_EQ(r.xbar->symbolsForwarded.value(), 3.0); // route consumed
}

TEST(Crossbar, SixteenPortsDefault)
{
    sim::EventQueue q;
    CrossbarParams p;
    Crossbar x(p, q);
    EXPECT_EQ(x.ports(), 16u);
}

} // namespace
