/**
 * @file
 * Tests for fault injection and reliable delivery: CRC known-answer
 * detection of single-bit errors, the deterministic seeded fault
 * model, exactly-once delivery under bit errors / word drops /
 * link-down windows, the bounded retry budget, counter hygiene on
 * fault-free runs, and two-run determinism with faults enabled.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "earth/runtime.hh"
#include "machines/machines.hh"
#include "msg/collectives.hh"
#include "msg/driver.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "net/fifo.hh"
#include "ni/linkinterface.hh"
#include "sim/context.hh"
#include "sim/event.hh"
#include "sim/fault.hh"

namespace {

using namespace pm;

msg::SystemParams
smallSystem(unsigned nodes = 2)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = nodes;
    return sp;
}

// ---- CRC known-answer coverage. -----------------------------------------

/**
 * Send a fixed 4-word payload through a raw wire, flip exactly one bit
 * of one payload word in flight, and return the receiver's verdict.
 */
bool
crcCatchesFlip(unsigned wordIdx, unsigned bit)
{
    sim::EventQueue queue;
    ni::LinkIfParams pa;
    pa.name = "a";
    ni::LinkIfParams pb;
    pb.name = "b";
    ni::LinkInterface a(pa, queue), b(pb, queue);
    net::InputFifo wire("wire", 64);
    a.connectOutput(&wire);

    const std::vector<std::uint64_t> payload{0x0123456789abcdefull, 0,
                                             ~0ull, 0xa5a5a5a5a5a5a5a5ull};
    for (auto w : payload)
        a.pushSend(net::Symbol::makeData(w), 0);
    a.pushSend(net::Symbol::makeClose(), 0);
    queue.run();

    unsigned seen = 0;
    while (!wire.empty()) {
        net::Symbol s = wire.pop();
        if (s.kind == net::SymKind::Data && seen++ == wordIdx)
            s.data ^= 1ull << bit;
        b.rxPort()->push(s);
    }
    if (b.messagesReceived() != 1 || !b.messageComplete())
        return false;
    return !b.frontMessage().crcOk;
}

TEST(CrcKnownAnswer, EverySingleBitFlipInEveryPayloadWordIsDetected)
{
    // CRC-32 detects all single-bit errors; sweep every bit position
    // of every payload word, and of the CRC word itself (whose live
    // field is the low 32 bits — flipping it must fail the compare).
    for (unsigned word = 0; word < 5; ++word) {
        const unsigned bits = word == 4 ? 32 : 64;
        for (unsigned bit = 0; bit < bits; ++bit)
            EXPECT_TRUE(crcCatchesFlip(word, bit))
                << "missed flip of bit " << bit << " in word " << word;
    }
}

// ---- Fault model unit behaviour. ----------------------------------------

TEST(FaultModel, SameSeedSameSiteSameDecisions)
{
    sim::FaultModel m1(99), m2(99);
    m1.defaults.ber = 1e-3;
    m1.defaults.drop = 1e-2;
    m2.defaults.ber = 1e-3;
    m2.defaults.drop = 1e-2;
    sim::FaultSite *s1 = m1.site("cluster0.xbar.link3");
    sim::FaultSite *s2 = m2.site("cluster0.xbar.link3");
    for (unsigned i = 0; i < 5000; ++i) {
        std::uint64_t w1 = i * 0x9e3779b97f4a7c15ull;
        std::uint64_t w2 = w1;
        const bool d1 = s1->filterWord(w1, i);
        const bool d2 = s2->filterWord(w2, i);
        ASSERT_EQ(d1, d2) << "word " << i;
        ASSERT_EQ(w1, w2) << "word " << i;
    }
}

TEST(FaultModel, DifferentSitesDrawIndependentStreams)
{
    sim::FaultModel m(7);
    m.defaults.drop = 0.5;
    sim::FaultSite *s1 = m.site("alpha");
    sim::FaultSite *s2 = m.site("beta");
    unsigned differ = 0;
    for (unsigned i = 0; i < 256; ++i) {
        std::uint64_t w = 1;
        if (s1->filterWord(w, i) != s2->filterWord(w, i))
            ++differ;
    }
    EXPECT_GT(differ, 0u);
}

TEST(FaultModel, PatternOverridesSelectSites)
{
    sim::FaultModel m(1);
    m.configure("cluster0.*", sim::FaultConfig{0.0, 1.0, {}});
    EXPECT_TRUE(m.anyConfigured());
    sim::FaultSite *hit = m.site("cluster0.xbar.link0");
    sim::FaultSite *miss = m.site("cluster1.xbar.link0");
    std::uint64_t w = 42;
    EXPECT_TRUE(hit->filterWord(w, 0));
    EXPECT_FALSE(miss->filterWord(w, 0));
    EXPECT_EQ(w, 42u); // no BER configured: never corrupted
}

TEST(FaultModel, DownWindowsBlockAndAccount)
{
    sim::FaultModel m(1);
    m.defaults.down.push_back({100, 200});
    m.defaults.down.push_back({200, 300}); // adjacent windows chain
    sim::FaultSite *s = m.site("link");
    EXPECT_EQ(s->upAt(50), 50u);
    EXPECT_EQ(s->upAt(150), 300u);
    EXPECT_EQ(s->upAt(250), 300u);
    EXPECT_EQ(s->upAt(300), 300u);
    EXPECT_EQ(m.downStalls.value(), 1.0); // one block, counted once
    EXPECT_EQ(m.linkDowntime.value(), 150.0);
}

// ---- Reliable delivery end to end. --------------------------------------

TEST(Reliability, FaultFreeRunKeepsAllReliabilityCountersZero)
{
    msg::System sys(smallSystem());
    const auto r = msg::runDeliverySoak(sys, 0, 1, 64, 100);
    EXPECT_EQ(r.delivered, 100u);
    EXPECT_TRUE(r.intact);
    EXPECT_EQ(r.retransmits, 0.0);
    EXPECT_EQ(r.crcDrops, 0.0);
    EXPECT_EQ(r.duplicateDiscards, 0.0);
    EXPECT_EQ(r.outOfOrderDiscards, 0.0);
    EXPECT_EQ(r.timeouts, 0.0);
    EXPECT_EQ(r.nacksSent, 0.0);
    EXPECT_EQ(r.deliveryFailures, 0.0);
}

TEST(Reliability, TenThousandMessageSoakUnderBitErrorsIsExactlyOnce)
{
    // BER tuned so well over 1% of messages are corrupted in flight;
    // every payload must still arrive exactly once, in order, bit for
    // bit, with the recovery visible in the counters.
    sim::FaultModel fault(1234);
    fault.defaults.ber = 1e-4;
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    const auto r = msg::runDeliverySoak(sys, 0, 1, 8, 10000);
    EXPECT_EQ(r.delivered, 10000u);
    EXPECT_TRUE(r.intact);
    EXPECT_GT(fault.wordsCorrupted.value(), 100.0);
    EXPECT_GT(r.crcDrops, 100.0); // >1% of 10k messages corrupted
    EXPECT_GT(r.retransmits, 0.0);
    EXPECT_GT(r.nacksSent, 0.0);
    EXPECT_EQ(r.deliveryFailures, 0.0);
}

TEST(Reliability, SoakSurvivesWholeWordDrops)
{
    sim::FaultModel fault(77);
    fault.defaults.drop = 2e-4;
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    const auto r = msg::runDeliverySoak(sys, 0, 1, 64, 2000);
    EXPECT_EQ(r.delivered, 2000u);
    EXPECT_TRUE(r.intact);
    EXPECT_GT(fault.wordsDropped.value(), 0.0);
    EXPECT_GT(r.retransmits, 0.0);
    EXPECT_EQ(r.deliveryFailures, 0.0);
}

TEST(Reliability, LinkDownWindowDelaysButDeliversEverything)
{
    sim::FaultModel fault(3);
    fault.defaults.down.push_back({0, 400 * kTicksPerUs});
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    const auto r = msg::runDeliverySoak(sys, 0, 1, 64, 20);
    EXPECT_EQ(r.delivered, 20u);
    EXPECT_TRUE(r.intact);
    EXPECT_GE(r.elapsedUs, 400.0); // nothing moved while down
    EXPECT_GT(fault.downStalls.value(), 0.0);
    EXPECT_GT(fault.linkDowntime.value(), 0.0);
}

TEST(Reliability, ExhaustedRetryBudgetSurfacesDeliveryFailure)
{
    // Drop every data word: frames arrive headerless, no NACK can be
    // routed, and the sender's timeouts must burn through the retry
    // budget and surface a bounded failure instead of hanging.
    sim::FaultModel fault(5);
    fault.defaults.drop = 1.0;
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);
    sys.resetForRun();

    msg::DriverCosts costs;
    costs.retransBase = 2000; // keep the backoff ladder short
    costs.maxRetries = 3;
    msg::PmComm a(sys, 0, 0, 0, costs);
    msg::PmComm b(sys, 1);

    unsigned failures = 0;
    unsigned failedDst = ~0u;
    a.onDeliveryFailure([&](unsigned dst, std::uint64_t, unsigned) {
        ++failures;
        failedDst = dst;
    });
    b.postRecv([](std::vector<std::uint64_t>, bool) {});
    a.postSend(1, {0xDEAD, 0xBEEF});
    while (failures == 0 && sys.queue().step()) {
    }
    EXPECT_EQ(failures, 1u);
    EXPECT_EQ(failedDst, 1u);
    EXPECT_EQ(a.deliveryFailures.value(), 1.0);
    EXPECT_GE(a.timeouts.value(), 4.0); // maxRetries + 1 strikes

    // Further sends to the dead destination fail fast.
    a.postSend(1, {1});
    EXPECT_EQ(failures, 2u);
    EXPECT_EQ(a.deliveryFailures.value(), 2.0);
}

TEST(Reliability, CollectivesCompleteUnderBitErrors)
{
    sim::FaultModel fault(21);
    fault.defaults.ber = 2e-5;
    msg::SystemParams sp = smallSystem(4);
    sp.fabric.fault = &fault;
    msg::System sys(sp);
    sys.resetForRun();

    msg::Communicator comm(sys, {0, 1, 2, 3});
    EXPECT_GT(comm.barrier(), 0u);
    std::vector<std::vector<std::uint64_t>> contrib{
        {1, 10}, {2, 20}, {3, 30}, {4, 40}};
    std::vector<std::uint64_t> result;
    comm.allReduceSum(contrib, result);
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0], 10u);
    EXPECT_EQ(result[1], 100u);
}

TEST(Reliability, EarthRuntimeCompletesUnderBitErrors)
{
    sim::FaultModel fault(8);
    fault.defaults.ber = 2e-5;
    msg::SystemParams sp = smallSystem(4);
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    earth::Runtime rt(sys);
    rt.node(2).spawnLocal([](earth::NodeRt &self) {
        self.storeLocal(0x200, 777);
    });
    rt.run();

    std::uint64_t fetched = 0;
    bool fired = false;
    const earth::SlotRef slot =
        rt.node(0).makeSlot(1, [&](earth::NodeRt &) { fired = true; });
    rt.node(0).spawnLocal([&, slot](earth::NodeRt &self) {
        self.getRemote(2, 0x200, &fetched, slot);
    });
    rt.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(fetched, 777u);
}

// ---- Determinism with faults enabled. -----------------------------------

/** A faulty soak plus every observable: counters and stats dumps. */
std::string
faultyRunFingerprint()
{
    sim::FaultModel fault(4242);
    fault.defaults.ber = 1e-4;
    fault.defaults.drop = 2e-5;
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    const auto r = msg::runDeliverySoak(sys, 0, 1, 64, 300);
    std::ostringstream os;
    os << "executed=" << sys.queue().executed()
       << " now=" << sys.queue().now() << " delivered=" << r.delivered
       << " intact=" << r.intact << " retrans=" << r.retransmits
       << " crc=" << r.crcDrops << " dup=" << r.duplicateDiscards
       << " ooo=" << r.outOfOrderDiscards << " to=" << r.timeouts
       << " acks=" << r.acksSent << " nacks=" << r.nacksSent << "\n";
    fault.stats().dump(os);
    sys.ni(0).stats().dump(os);
    sys.ni(1).stats().dump(os);
    return os.str();
}

TEST(Reliability, TwoFaultyRunsWithTheSameSeedAreIdentical)
{
    const std::string first = faultyRunFingerprint();
    const std::string second = faultyRunFingerprint();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // The recovery machinery actually ran (the fingerprint is not a
    // trivially-quiet run).
    EXPECT_NE(first.find("retrans="), std::string::npos);
    EXPECT_EQ(first.find("retrans=0 "), std::string::npos);
}

/**
 * A faulty cross-cluster soak on a 2x2 machine plus every observable:
 * soak counters, a cross-cluster latency row, the fault model's stats,
 * endpoint NI stats, and the full forensic dump. BER and drop faults
 * ride the defaults; one uplink transceiver also goes down for a window
 * mid-soak, so the link-down stall path runs through the second
 * crossbar level too.
 */
std::string
twoClusterFaultyFingerprint()
{
    sim::FaultModel fault(4242);
    fault.defaults.ber = 1e-4;
    fault.defaults.drop = 2e-5;
    sim::FaultConfig flaky = fault.defaults;
    flaky.down.push_back({50 * kTicksPerUs, 90 * kTicksPerUs});
    // The soak's uplink: the driver spreads node 0 -> 2 over u2.
    fault.configure("xcvr.up.c0.u2*", flaky);
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric = machines::powerMannaFabric(2, 2);
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    std::ostringstream os;
    const auto soak = msg::runDeliverySoak(sys, 0, 2, 128, 120);
    os << "delivered=" << soak.delivered << " intact=" << soak.intact
       << " us=" << soak.elapsedUs << " retrans=" << soak.retransmits
       << " crc=" << soak.crcDrops << " dup=" << soak.duplicateDiscards
       << " ooo=" << soak.outOfOrderDiscards << " to=" << soak.timeouts
       << " acks=" << soak.acksSent << " nacks=" << soak.nacksSent
       << "\n";
    os << "lat=" << msg::measureOneWayLatencyUs(sys, 1, 3, 64, 4)
       << "\n";
    {
        sim::Context::Scope scope(sys.context());
        while (sys.queue().step()) {
        }
        os << "now=" << sys.queue().now() << "\n";
        fault.stats().dump(os);
        sys.ni(0).stats().dump(os);
        sys.ni(2).stats().dump(os);
        sys.health().dump(os);
    }
    // The fault counters are live by the time anyone reads them.
    EXPECT_GT(fault.wordsCorrupted.value(), 0.0);
    EXPECT_GT(fault.downStalls.value(), 0.0);
    return os.str();
}

TEST(Reliability, TwoClusterFaultySoakIsByteIdenticalAcrossRuns)
{
    const std::string first = twoClusterFaultyFingerprint();
    const std::string second = twoClusterFaultyFingerprint();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("delivered=120 intact=1"), std::string::npos)
        << first;
    EXPECT_NE(first.find("=== health dump"), std::string::npos) << first;
}

// ---- Link-down window validation. ----------------------------------------

TEST(FaultWindowDeath, InvertedWindowIsRejectedAtConfigureTime)
{
    sim::FaultModel fault;
    sim::FaultConfig cfg;
    cfg.down.push_back({200, 100});
    EXPECT_DEATH(fault.configure("ni.n0*", cfg),
                 "inverted or empty");
}

TEST(FaultWindowDeath, EmptyWindowIsRejectedAtConfigureTime)
{
    sim::FaultModel fault;
    sim::FaultConfig cfg;
    cfg.down.push_back({100, 100});
    EXPECT_DEATH(fault.configure("ni.n0*", cfg),
                 "inverted or empty");
}

TEST(FaultWindowDeath, OverlappingWindowsAreRejectedAtConfigureTime)
{
    sim::FaultModel fault;
    sim::FaultConfig cfg;
    cfg.down.push_back({100, 300});
    cfg.down.push_back({200, 400});
    EXPECT_DEATH(fault.configure("ni.n0*", cfg), "overlap");
}

TEST(FaultWindowDeath, BadDefaultsAreRejectedAtSiteCreation)
{
    // Defaults are only validated when a site materialises from them
    // — exercised here directly rather than through a whole System.
    sim::FaultModel fault;
    fault.defaults.down.push_back({300, 100});
    EXPECT_DEATH(fault.site("wire.x"), "inverted or empty");
}

TEST(FaultWindow, TouchingWindowsAreLegal)
{
    // {100,200} and {200,300} abut without overlapping: upAt() chases
    // through them as one contiguous block.
    sim::FaultModel fault;
    sim::FaultConfig cfg;
    cfg.down.push_back({200, 300});
    cfg.down.push_back({100, 200});
    fault.configure("wire.y", cfg);
    sim::FaultSite *site = fault.site("wire.y");
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->upAt(150), Tick(300));
}

} // namespace
