/**
 * @file
 * Tests for the user-level driver and System: end-to-end message
 * integrity through the full machine (caches, PIO, NI, crossbar),
 * ordering, flow control on large messages, duplex interleaving, and
 * the measurement probes' sanity.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "machines/machines.hh"
#include "msg/driver.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/fault.hh"

namespace {

using namespace pm;
using namespace pm::msg;

SystemParams
smallSystem(unsigned nodes = 2)
{
    SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = nodes;
    return sp;
}

TEST(PmComm, SingleMessageArrivesIntact)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    const auto payload = makePayload(128, 7);

    bool ok = false;
    a.postSend(1, payload);
    b.postRecv([&](std::vector<std::uint64_t> got, bool crc) {
        ok = crc && got == payload;
    });
    while (!ok && sys.queue().step()) {
    }
    EXPECT_TRUE(ok);
}

TEST(PmComm, EightByteMessageUnderThreeMicroseconds)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    bool done = false;
    const Tick start = sys.queue().now();
    a.postSend(1, makePayload(8, 1));
    b.postRecv([&](std::vector<std::uint64_t>, bool) { done = true; });
    while (!done && sys.queue().step()) {
    }
    const double us = ticksToUs(sys.queue().now() - start);
    EXPECT_LT(us, 5.0);
    EXPECT_GT(us, 1.0);
}

// The quickstart/README pattern: exchange messages, abandon the loop
// as soon as the receiver fires (the sender's ACK handshake is still
// in flight), then reuse the same machine for a measurement probe.
// resetForRun() must quiesce the live endpoints — a stale driver left
// polling for its ACK steals words from the new endpoints' messages
// and desynchronizes the go-back-N state machines.
TEST(PmComm, MachineIsReusableAcrossPhasesWithLiveEndpoints)
{
    System sys(smallSystem(8));
    sys.resetForRun();
    PmComm sender(sys, 0), receiver(sys, 5);
    const auto payload = makePayload(256, 42);

    bool delivered = false;
    sender.postSend(5, payload);
    receiver.postRecv([&](std::vector<std::uint64_t> got, bool crc) {
        delivered = crc && got == payload;
    });
    while (!delivered && sys.queue().step()) {
    }
    ASSERT_TRUE(delivered);
    ASSERT_FALSE(sender.quiescent()); // ACK still outstanding: the trap.

    const double us = measureOneWayLatencyUs(sys, 0, 1, 8);
    EXPECT_GT(us, 2.75 * 0.99);
    EXPECT_LT(us, 2.75 * 1.01);
    EXPECT_TRUE(sender.quiescent());
    EXPECT_DOUBLE_EQ(sender.retransmits.value(), 0.0);
    EXPECT_DOUBLE_EQ(sender.deliveryFailures.value(), 0.0);
}

/** The health monitor's count of phase-boundary audits. */
unsigned
auditsRun(System &sys)
{
    std::ostringstream os;
    sys.health().stats().dump(os);
    const std::string stats = os.str();
    const auto pos = stats.find("health.audits_run ");
    return pos == std::string::npos
               ? ~0u
               : static_cast<unsigned>(std::strtoul(
                     stats.c_str() + pos + 18, nullptr, 10));
}

// Every word into node 1 is dropped, so the sender gives up on it in
// the middle of a drain. The drain must stop there and return false:
// the machine it was asked to audit will not go quiet in general (a
// started send to the dead peer stays wedged), so it neither spins
// nor audits.
TEST(System, DrainStopsUnauditedWhenAnEndpointGivesUp)
{
    sim::FaultModel fault(1);
    sim::FaultConfig dead;
    dead.drop = 1.0;
    fault.configure("xbar.c0.net0.out1", dead); // node 1's inbound link
    SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    System sys(sp);
    sys.resetForRun();
    DriverCosts costs;
    costs.retransBase = 2000;
    costs.maxRetries = 2;
    PmComm sender(sys, 0, 0, 0, costs);
    PmComm receiver(sys, 1, 0, 0, costs);
    sender.onDeliveryFailure([](unsigned, std::uint64_t, unsigned) {});
    sender.postSend(1, makePayload(64, 5));

    const unsigned audits = auditsRun(sys);
    EXPECT_FALSE(sys.drain("give-up test"));
    EXPECT_EQ(sender.deadPeers(), std::vector<unsigned>{1});
    EXPECT_EQ(auditsRun(sys), audits);
}

// Fig 12 runs one measurement per message size on a single machine.
// Each run must leave the fabric quiescent: a trailing ACK still on
// the wire when the next run's resetForRun() fires would worm into the
// new circuits as a stray route command. Repeatability doubles as a
// determinism check.
TEST(PmComm, MeasurementProbesAreRepeatableOnOneMachine)
{
    System sys(smallSystem(8));
    const double bi1 = measureBidirectionalMBps(sys, 0, 1, 16384, 6);
    const double lat = measureOneWayLatencyUs(sys, 0, 1, 8);
    const double bi2 = measureBidirectionalMBps(sys, 0, 1, 16384, 6);
    const double uni = measureUnidirectionalMBps(sys, 0, 1, 16384);
    EXPECT_DOUBLE_EQ(bi1, bi2);
    EXPECT_GT(lat, 2.75 * 0.99);
    EXPECT_LT(lat, 2.75 * 1.01);
    EXPECT_GT(uni, 59.9 * 0.98);
}

TEST(PmComm, MessagesArriveInOrder)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    std::vector<std::uint64_t> firstWords;
    unsigned got = 0;
    for (unsigned m = 0; m < 8; ++m) {
        a.postSend(1, {m, m * 10});
        b.postRecv([&](std::vector<std::uint64_t> w, bool crc) {
            ASSERT_TRUE(crc);
            firstWords.push_back(w[0]);
            ++got;
        });
    }
    while (got < 8 && sys.queue().step()) {
    }
    ASSERT_EQ(firstWords.size(), 8u);
    for (unsigned m = 0; m < 8; ++m)
        EXPECT_EQ(firstWords[m], m);
}

TEST(PmComm, LargeMessageStreamsThroughSmallFifos)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    const auto payload = makePayload(32768, 3); // 4096 words >> 32 FIFO
    bool ok = false;
    a.postSend(1, payload);
    b.postRecv([&](std::vector<std::uint64_t> got, bool crc) {
        ok = crc && got == payload;
    });
    while (!ok && sys.queue().step()) {
    }
    EXPECT_TRUE(ok);
}

TEST(PmComm, BothDirectionsSimultaneously)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    const auto pa = makePayload(2048, 5);
    const auto pb = makePayload(2048, 6);
    unsigned done = 0;
    a.postSend(1, pa);
    b.postSend(0, pb);
    a.postRecv([&](std::vector<std::uint64_t> got, bool crc) {
        EXPECT_TRUE(crc);
        EXPECT_EQ(got, pb);
        ++done;
    });
    b.postRecv([&](std::vector<std::uint64_t> got, bool crc) {
        EXPECT_TRUE(crc);
        EXPECT_EQ(got, pa);
        ++done;
    });
    while (done < 2 && sys.queue().step()) {
    }
    EXPECT_EQ(done, 2u);
}

TEST(PmComm, SecondLinkInterfaceWorksIndependently)
{
    SystemParams sp = smallSystem();
    sp.fabric.networks = 2;
    System sys(sp);
    sys.resetForRun();
    // Network 1 (the "OS network" in the paper's first implementation).
    PmComm a(sys, 0, 0, 1), b(sys, 1, 0, 1);
    bool ok = false;
    a.postSend(1, {42});
    b.postRecv([&](std::vector<std::uint64_t> w, bool crc) {
        ok = crc && w.size() == 1 && w[0] == 42;
    });
    while (!ok && sys.queue().step()) {
    }
    EXPECT_TRUE(ok);
    // Network 0 saw nothing.
    EXPECT_EQ(sys.ni(1, 0).messagesReceived(), 0u);
}

TEST(PmComm, EmptyPayloadMessage)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    bool ok = false;
    a.postSend(1, {});
    b.postRecv([&](std::vector<std::uint64_t> got, bool crc) {
        ok = crc && got.empty();
    });
    while (!ok && sys.queue().step()) {
    }
    EXPECT_TRUE(ok);
}

TEST(PmComm, DriverChargesBusTraffic)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    const double beats = sys.node(0).bus().pioBeats.value();
    bool done = false;
    a.postSend(1, makePayload(256, 9));
    b.postRecv([&](std::vector<std::uint64_t>, bool) { done = true; });
    while (!done && sys.queue().step()) {
    }
    // Sender: >= 32 word stores + header + route + close + polls.
    EXPECT_GT(sys.node(0).bus().pioBeats.value() - beats, 32.0);
}

TEST(Probes, LatencyGrowsWithSize)
{
    System sys(smallSystem(8));
    const double l8 = measureOneWayLatencyUs(sys, 0, 1, 8, 4);
    const double l1k = measureOneWayLatencyUs(sys, 0, 1, 1024, 4);
    EXPECT_GT(l1k, l8);
}

TEST(Probes, UnidirectionalBandwidthIsWireLimited)
{
    System sys(smallSystem(2));
    const double bw = measureUnidirectionalMBps(sys, 0, 1, 32768, 6);
    EXPECT_GT(bw, 50.0);
    EXPECT_LE(bw, 61.0); // never exceeds the 60 MB/s wire
}

TEST(Probes, StreamLeavesTheBusCalendarsBounded)
{
    // Every engine run sets its node bus's time floor, so a long
    // stream leaves only the beats still ahead of the drivers on the
    // calendars, not one interval per beat.
    System sys(smallSystem(8));
    measureUnidirectionalMBps(sys, 0, 1, 65536, 8);
    const std::size_t bound = 3 * sys.params().fabric.ni.fifoWords;
    EXPECT_LT(sys.node(0).bus().intervals(), bound);
    EXPECT_LT(sys.node(1).bus().intervals(), bound);
}

TEST(Probes, BidirectionalIsBetweenOneAndTwoLinks)
{
    System sys(smallSystem(2));
    const double uni = measureUnidirectionalMBps(sys, 0, 1, 32768, 6);
    const double bi = measureBidirectionalMBps(sys, 0, 1, 32768, 6);
    EXPECT_GT(bi, uni); // duplex helps...
    EXPECT_LT(bi, 2.0 * uni); // ...but the FIFO switching costs
}

TEST(Probes, GapBelowLatency)
{
    // Pipelining: the steady-state gap is below the one-way latency
    // for small messages.
    System sys(smallSystem(8));
    const double lat = measureOneWayLatencyUs(sys, 0, 1, 8, 4);
    const double gap = measureGapUs(sys, 0, 1, 8, 16);
    EXPECT_LT(gap, lat);
}

/**
 * Run a fixed two-node duplex send/recv scenario on a fresh System and
 * return a fingerprint of everything observable: executed-event count,
 * final tick, per-endpoint message counters, and the NI stat dumps.
 */
std::string
runDeterminismScenario()
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    unsigned done = 0;
    for (unsigned m = 0; m < 4; ++m) {
        a.postSend(1, makePayload(256, m + 1));
        b.postRecv([&](std::vector<std::uint64_t>, bool) { ++done; });
        b.postSend(0, makePayload(64, m + 17));
        a.postRecv([&](std::vector<std::uint64_t>, bool) { ++done; });
    }
    while (done < 8 && sys.queue().step()) {
    }
    std::ostringstream os;
    os << "executed=" << sys.queue().executed()
       << " now=" << sys.queue().now()
       << " pending=" << sys.queue().pending()
       << " aSent=" << a.messagesSent.value()
       << " bSent=" << b.messagesSent.value()
       << " aRecv=" << a.messagesReceived.value()
       << " bRecv=" << b.messagesReceived.value() << "\n";
    sys.ni(0).stats().dump(os);
    sys.ni(1).stats().dump(os);
    return os.str();
}

TEST(System, TwoNodeRunsAreBitForBitDeterministic)
{
    // The EventQueue header promises FIFO delivery of same-tick events
    // (deterministic tie-break). Two identical whole-system runs must
    // agree on every event count, the final tick, and the stats dump.
    const std::string first = runDeterminismScenario();
    const std::string second = runDeterminismScenario();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(System, ResetForRunClearsState)
{
    System sys(smallSystem());
    sys.resetForRun();
    PmComm a(sys, 0), b(sys, 1);
    bool done = false;
    a.postSend(1, {1, 2, 3});
    b.postRecv([&](std::vector<std::uint64_t>, bool) { done = true; });
    while (!done && sys.queue().step()) {
    }
    sys.resetForRun();
    EXPECT_EQ(sys.ni(1).recvAvailable(), 0u);
    EXPECT_EQ(sys.ni(1).messagesReceived(), 0u);
    // Processors rejoin the (monotonic) queue time.
    EXPECT_GE(sys.node(0).proc(0).time(), sys.queue().now());
}

} // namespace
