/**
 * @file
 * Tests for the health subsystem: the progress watchdog (zero events
 * when off, unchanged anchors and clean scans when on, a forensic
 * panic naming the stalled component when tripped), the conservation
 * and quiescence auditors, the event-slab census, forensic dumps, and
 * graceful degradation at the EARTH layer when a peer's retry budget
 * is exhausted for good.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "earth/runtime.hh"
#include "machines/machines.hh"
#include "msg/driver.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "net/symbol.hh"
#include "net/transceiver.hh"
#include "sim/context.hh"
#include "sim/event.hh"
#include "sim/fault.hh"
#include "sim/health.hh"

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

// ---- Watchdog scheduling discipline. -------------------------------------

TEST(HealthMonitor, DisabledWatchdogSchedulesNothing)
{
    sim::EventQueue queue;
    sim::health::Monitor mon(queue);
    EXPECT_FALSE(mon.watchdogEnabled());
    EXPECT_EQ(queue.pending(), 0u);

    mon.enableWatchdog(1000 * kTicksPerUs);
    EXPECT_TRUE(mon.watchdogEnabled());
    EXPECT_EQ(queue.pending(), 1u);

    mon.disableWatchdog();
    EXPECT_FALSE(mon.watchdogEnabled());
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(HealthMonitor, WatchdogOffAddsZeroEventsAndOnAddsOnlyScans)
{
    // Identical probe runs; the only event-count difference permitted
    // between watchdog-off and watchdog-on is the scans themselves.
    std::uint64_t executedOff = 0;
    {
        msg::System sys(smallSystem());
        (void)msg::measureOneWayLatencyUs(sys, 0, 1, 8, 4);
        executedOff = sys.queue().executed();
    }
    msg::System sys(smallSystem());
    sys.health().enableWatchdog(2 * kTicksPerUs,
                                /*deadline=*/1000 * kTicksPerUs);
    (void)msg::measureOneWayLatencyUs(sys, 0, 1, 8, 4);
    const std::uint64_t executedOn = sys.queue().executed();

    std::ostringstream os;
    sys.health().stats().dump(os);
    const std::string stats = os.str();
    const auto pos = stats.find("health.scans ");
    ASSERT_NE(pos, std::string::npos) << stats;
    const unsigned scans = static_cast<unsigned>(
        std::strtoul(stats.c_str() + pos + 13, nullptr, 10));
    EXPECT_GT(scans, 0u) << "watchdog never scanned";
    EXPECT_EQ(executedOn, executedOff + scans)
        << "watchdog perturbed the event stream beyond its own scans";
}

// ---- Anchors are unperturbed by an enabled watchdog. ---------------------

TEST(HealthAnchors, LatencyAndBandwidthIdenticalWithWatchdogEnabled)
{
    double latOff = 0.0, bwOff = 0.0;
    {
        msg::System sys(smallSystem());
        latOff = msg::measureOneWayLatencyUs(sys, 0, 1, 8);
        bwOff = msg::measureUnidirectionalMBps(sys, 0, 1, 4096, 16);
    }
    msg::System sys(smallSystem());
    // Deadline above the protocol's largest legitimate fault-free
    // stall (the ~100 us standalone-ACK latency bound).
    sys.health().enableWatchdog(5 * kTicksPerUs, 1000 * kTicksPerUs);
    const double latOn = msg::measureOneWayLatencyUs(sys, 0, 1, 8);
    const double bwOn = msg::measureUnidirectionalMBps(sys, 0, 1, 4096, 16);

    EXPECT_DOUBLE_EQ(latOn, latOff);
    EXPECT_DOUBLE_EQ(bwOn, bwOff);
}

// ---- Determinism with watchdog + auditors + faults all on. ---------------

std::string
watchdoggedFaultyFingerprint()
{
    sim::FaultModel fault(4242);
    fault.defaults.ber = 1e-4;
    fault.defaults.drop = 2e-5;
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);
    sys.health().enableWatchdog(100 * kTicksPerUs,
                                5000 * kTicksPerUs);

    const auto r = msg::runDeliverySoak(sys, 0, 1, 64, 300);
    std::ostringstream os;
    os << "executed=" << sys.queue().executed()
       << " now=" << sys.queue().now() << " delivered=" << r.delivered
       << " intact=" << r.intact << " retrans=" << r.retransmits
       << " to=" << r.timeouts << " acks=" << r.acksSent << "\n";
    fault.stats().dump(os);
    sys.health().stats().dump(os);
    sys.health().dump(os);
    return os.str();
}

TEST(HealthDeterminism, TwoWatchdoggedFaultyRunsAreIdentical)
{
    const std::string first = watchdoggedFaultyFingerprint();
    const std::string second = watchdoggedFaultyFingerprint();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // The machinery genuinely ran: scans and audits are both nonzero.
    EXPECT_EQ(first.find("health.scans 0 "), std::string::npos);
    EXPECT_EQ(first.find("health.audits_run 0 "), std::string::npos);
}

// ---- Event-slab census. --------------------------------------------------

TEST(HealthAudit, LiveRecordsTracksPendingThroughCancellation)
{
    sim::EventQueue queue;
    auto h1 = queue.scheduleIn(10, [] {});
    (void)queue.scheduleIn(20, [] {});
    (void)queue.scheduleIn(30, [] {});
    EXPECT_EQ(queue.liveRecords(), 3u);
    EXPECT_EQ(queue.liveRecords(), queue.pending());

    queue.cancel(h1);
    EXPECT_EQ(queue.liveRecords(), 2u);
    EXPECT_EQ(queue.liveRecords(), queue.pending());

    queue.run();
    EXPECT_EQ(queue.liveRecords(), 0u);
    EXPECT_EQ(queue.liveRecords(), queue.pending());
}

// ---- Forensic dumps. -----------------------------------------------------

TEST(HealthDump, EventRingIsBoundedAndKeepsTheNewestEntries)
{
    sim::health::EventRing ring(4);
    for (unsigned i = 1; i <= 6; ++i)
        ring.push(i * 100, "entry", i, 0);
    EXPECT_EQ(ring.size(), 4u);

    std::ostringstream os;
    ring.dump(os);
    const std::string text = os.str();
    EXPECT_EQ(text.find("[tick 100]"), std::string::npos)
        << "oldest entries must be overwritten";
    EXPECT_EQ(text.find("[tick 200]"), std::string::npos);
    EXPECT_NE(text.find("[tick 300]"), std::string::npos);
    EXPECT_NE(text.find("[tick 600]"), std::string::npos);
    // Oldest-first within the kept window.
    EXPECT_LT(text.find("[tick 300]"), text.find("[tick 600]"));
}

TEST(HealthDump, MachineDumpNamesEveryRegisteredComponent)
{
    msg::System sys(smallSystem());
    msg::PmComm comm(sys, 0);
    std::ostringstream os;
    sys.health().dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("=== health dump"), std::string::npos);
    EXPECT_NE(text.find("event queue:"), std::string::npos);
    EXPECT_NE(text.find("ni.n0.net0"), std::string::npos);
    EXPECT_NE(text.find("xbar.c0.net0"), std::string::npos);
    EXPECT_NE(text.find("driver.node0"), std::string::npos);
}

TEST(HealthDump, TrappedPanicCarriesTheDumpAndAppendsItToTheDumpFile)
{
    const std::string path = testing::TempDir() + "pm_health_dump.txt";
    std::ofstream(path) << "earlier dump\n";
    msg::System sys(smallSystem());
    msg::PmComm comm(sys, 0);
    sys.health().setDumpFile(path);

    std::string dump;
    {
        sim::PanicTrap trap;
        sim::Context::Scope scope(sys.context());
        try {
            pm_panic("dump file probe");
            FAIL() << "pm_panic returned";
        } catch (const sim::PanicError &e) {
            EXPECT_NE(std::string(e.what()).find("[tick 0] dump file probe"),
                      std::string::npos)
                << e.what();
            dump = e.dump();
        }
    }
    std::ostringstream expected;
    sys.health().dump(expected);
    EXPECT_EQ(dump, expected.str());
    EXPECT_NE(dump.find("driver.node0"), std::string::npos);

    std::ostringstream file;
    file << std::ifstream(path).rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(file.str(), "earlier dump\n" + dump);
}

// ---- Watchdog trip + panic forensics (death tests). ----------------------

/** A soak whose forward path is down for good: progress never comes. */
void
stalledSoak()
{
    sim::FaultModel fault(7);
    fault.defaults.down.push_back({0, kTickNever});
    msg::SystemParams sp = smallSystem();
    sp.fabric.fault = &fault;
    msg::System sys(sp);
    sys.health().enableWatchdog(100 * kTicksPerUs, 500 * kTicksPerUs);
    // 256 B = 33 words with the header: more than the 32-word send
    // FIFO, so the FIFO itself visibly wedges behind the dead link.
    (void)msg::runDeliverySoak(sys, 0, 1, 256, 8);
}

TEST(HealthDeath, WatchdogTripNamesTheStalledComponent)
{
    EXPECT_DEATH(stalledSoak(),
                 "watchdog tripped.*ni\\.n0\\.net0.*send FIFO stuck");
}

TEST(HealthDeath, PanicPrintsTheSimulationTick)
{
    EXPECT_DEATH(stalledSoak(), "\\[tick [0-9]+\\]");
}

TEST(HealthDeath, MidFlightConservationAuditPanics)
{
    msg::System sys(smallSystem());
    msg::PmComm a(sys, 0), b(sys, 1);
    b.postRecv([](std::vector<std::uint64_t>, bool) {});
    a.postSend(1, msg::makePayload(256, 3));
    // Step until payload words are on the wire but not yet received,
    // then audit: the books cannot balance mid-flight.
    while (sys.ni(0).wordsSent.value() == 0.0 && sys.queue().step()) {
    }
    ASSERT_GT(sys.ni(0).wordsSent.value(), 0.0);
    EXPECT_DEATH(sys.auditQuiescent("mid-flight"),
                 "conservation audit failed");
}

TEST(TransceiverDeath, SymbolsBeforeOutputPanics)
{
    sim::EventQueue queue;
    net::TransceiverParams tp;
    tp.name = "xcvr.t";
    net::Transceiver xcvr(tp, queue);
    xcvr.inputPort()->push(net::Symbol::makeData(1));
    EXPECT_DEATH(queue.run(), "before the output was connected");
}

// ---- Graceful degradation at the EARTH layer. ----------------------------

TEST(EarthDegradation, DeadPeerIsWrittenOffAndSurvivorsKeepRunning)
{
    // Node 3 is unreachable for good: its inbound crossbar port and
    // its own transmitter never come back up.
    sim::FaultModel fault(5);
    sim::FaultConfig down;
    down.down.push_back({0, kTickNever});
    fault.configure("xbar.c0.net0.out3", down);
    fault.configure("ni.n3.net0.tx", down);
    msg::SystemParams sp = smallSystem(4);
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    earth::EarthCosts costs;
    costs.driver.retransBase = 2000; // fail fast: the test waits on it
    costs.driver.maxRetries = 2;
    earth::Runtime rt(sys, costs);

    std::vector<std::pair<unsigned, unsigned>> deaths;
    rt.onPeerDeath([&](unsigned node, unsigned dead) {
        deaths.emplace_back(node, dead);
    });

    // Node 0 GETs from the doomed node; the value can never arrive.
    std::uint64_t fetched = 0xABCD;
    bool getFired = false;
    const earth::SlotRef slot0 =
        rt.node(0).makeSlot(1, [&](earth::NodeRt &) { getFired = true; });
    rt.node(0).spawnLocal([&, slot0](earth::NodeRt &self) {
        self.getRemote(3, 0x10, &fetched, slot0);
    });

    // Nodes 1 and 2 exchange split-phase stores on untouched ports.
    bool put1Done = false, put2Done = false;
    const earth::SlotRef slot1 =
        rt.node(1).makeSlot(1, [&](earth::NodeRt &) { put1Done = true; });
    rt.node(1).spawnLocal([&, slot1](earth::NodeRt &self) {
        self.putRemote(2, 0x20, 111, slot1);
    });
    const earth::SlotRef slot2 =
        rt.node(2).makeSlot(1, [&](earth::NodeRt &) { put2Done = true; });
    rt.node(2).spawnLocal([&, slot2](earth::NodeRt &self) {
        self.putRemote(1, 0x30, 222, slot2);
    });

    // Returns despite the dead peer: the abandoned token is written
    // off instead of deadlocking the quiescence check.
    rt.run();

    EXPECT_TRUE(put1Done);
    EXPECT_TRUE(put2Done);
    EXPECT_EQ(rt.node(2).loadLocal(0x20), 111u);
    EXPECT_EQ(rt.node(1).loadLocal(0x30), 222u);

    EXPECT_EQ(rt.deadPeers(), std::vector<unsigned>{3});
    ASSERT_EQ(deaths.size(), 1u);
    EXPECT_EQ(deaths[0], (std::pair<unsigned, unsigned>{0u, 3u}));

    // The GET failed through the error path, not by fabricating data.
    EXPECT_FALSE(getFired);
    EXPECT_EQ(fetched, 0xABCDu);
    EXPECT_EQ(rt.node(0).getsFailed.value(), 1.0);
}

} // namespace
