/**
 * @file
 * Tests for the EARTH-style runtime: fibers, sync slots, split-phase
 * remote memory, remote invocation, quiescence detection, a small
 * distributed computation end to end, two-run determinism of a
 * cross-cluster workload and a cross-cluster peer death, and three
 * survivors reporting one death in the same run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "earth/runtime.hh"
#include "machines/machines.hh"
#include "msg/system.hh"
#include "sim/fault.hh"

namespace {

using namespace pm;
using namespace pm::earth;

msg::SystemParams
clusterParams(unsigned nodes = 4)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = nodes;
    return sp;
}

TEST(Earth, LocalFiberRuns)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    bool ran = false;
    rt.node(0).spawnLocal([&](NodeRt &) { ran = true; });
    const Tick t = rt.run();
    EXPECT_TRUE(ran);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(rt.node(0).fibersRun.value(), 1.0);
}

TEST(Earth, SyncSlotFiresAtZero)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    int fired = 0;
    auto &n0 = rt.node(0);
    const SlotRef slot = n0.makeSlot(3, [&](NodeRt &) { ++fired; });
    n0.spawnLocal([&, slot](NodeRt &self) {
        self.sync(slot);
        self.sync(slot);
    });
    rt.run();
    EXPECT_EQ(fired, 0); // only two of three syncs
    n0.spawnLocal([&, slot](NodeRt &self) { self.sync(slot); });
    rt.run();
    EXPECT_EQ(fired, 1);
}

TEST(Earth, RemoteSyncCrossesTheNetwork)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    bool fired = false;
    const SlotRef slot = rt.node(0).makeSlot(1, [&](NodeRt &) {
        fired = true;
    });
    rt.node(3).spawnLocal([slot](NodeRt &self) { self.sync(slot); });
    rt.run();
    EXPECT_TRUE(fired);
}

TEST(Earth, SplitPhaseRemoteGet)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    // Node 2 owns the value; node 0 fetches it split-phase.
    rt.node(2).spawnLocal([](NodeRt &self) {
        self.storeLocal(0x100, 4242);
    });
    rt.run();

    std::uint64_t fetched = 0;
    bool continued = false;
    auto &n0 = rt.node(0);
    const SlotRef slot = n0.makeSlot(1, [&](NodeRt &) {
        continued = true;
    });
    n0.spawnLocal([&, slot](NodeRt &self) {
        self.getRemote(2, 0x100, &fetched, slot);
    });
    const Tick t = rt.run();
    EXPECT_TRUE(continued);
    EXPECT_EQ(fetched, 4242u);
    // Split-phase round trip: a handful of microseconds, not more.
    EXPECT_LT(ticksToUs(t), 30.0);
}

TEST(Earth, SplitPhaseRemotePut)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    bool acked = false;
    auto &n1 = rt.node(1);
    const SlotRef slot = n1.makeSlot(1, [&](NodeRt &) { acked = true; });
    n1.spawnLocal([&, slot](NodeRt &self) {
        self.putRemote(3, 0x200, 99, slot);
    });
    rt.run();
    EXPECT_TRUE(acked);
    std::uint64_t seen = 0;
    rt.node(3).spawnLocal([&](NodeRt &self) {
        seen = self.loadLocal(0x200);
    });
    rt.run();
    EXPECT_EQ(seen, 99u);
}

TEST(Earth, RemoteInvoke)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    unsigned ranOn = 999;
    std::vector<std::uint64_t> gotArgs;
    rt.registerFunction(7, [&](NodeRt &self,
                               const std::vector<std::uint64_t> &args) {
        ranOn = self.nodeId();
        gotArgs = args;
    });
    rt.node(0).spawnLocal([](NodeRt &self) {
        self.invokeRemote(2, 7, {10, 20, 30});
    });
    rt.run();
    EXPECT_EQ(ranOn, 2u);
    EXPECT_EQ(gotArgs, (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(Earth, InvokeUnregisteredPanics)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    rt.node(0).spawnLocal([](NodeRt &self) {
        self.invokeRemote(1, 404, {});
    });
    EXPECT_DEATH(rt.run(), "unregistered");
}

TEST(Earth, DistributedSumViaPutSync)
{
    // Every node contributes its rank+1 to node 0 with DATA_SYNC into
    // distinct addresses; node 0's slot fires after all arrive.
    constexpr unsigned kNodes = 8;
    msg::System sys(clusterParams(kNodes));
    Runtime rt(sys);
    std::uint64_t total = 0;
    auto &root = rt.node(0);
    const SlotRef allIn = root.makeSlot(kNodes - 1, [&](NodeRt &self) {
        for (unsigned r = 1; r < kNodes; ++r)
            total += self.loadLocal(0x1000 + r * 8);
    });
    for (unsigned r = 1; r < kNodes; ++r) {
        rt.node(r).spawnLocal([r, allIn](NodeRt &self) {
            self.putRemote(0, 0x1000 + r * 8, r + 1, allIn);
        });
    }
    rt.run();
    EXPECT_EQ(total, 2u + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST(Earth, ManyFibersInterleaveAcrossNodes)
{
    constexpr unsigned kNodes = 4;
    msg::System sys(clusterParams(kNodes));
    Runtime rt(sys);
    unsigned completed = 0;
    rt.registerFunction(1, [&](NodeRt &self,
                               const std::vector<std::uint64_t> &args) {
        // Bounce the token onward `args[0]` more times.
        if (args[0] == 0) {
            ++completed;
            return;
        }
        self.invokeRemote((self.nodeId() + 1) % kNodes, 1, {args[0] - 1});
    });
    for (unsigned n = 0; n < kNodes; ++n)
        rt.node(n).spawnLocal([n](NodeRt &self) {
            self.invokeRemote((n + 1) % kNodes, 1, {8});
        });
    rt.run();
    EXPECT_EQ(completed, kNodes);
}

TEST(Earth, RunReturnsZeroWhenNothingToDo)
{
    msg::System sys(clusterParams());
    Runtime rt(sys);
    EXPECT_EQ(rt.run(), 0u);
}

TEST(Earth, RemoteOpLatencyBeatsMessageLayerRoundTrip)
{
    // The point of EARTH on PowerMANNA: a split-phase GET round trip
    // rides two small messages, i.e. ~2x the 8-byte one-way latency
    // plus handler overheads — single-digit microseconds.
    msg::System sys(clusterParams(2));
    Runtime rt(sys);
    rt.node(1).spawnLocal([](NodeRt &self) {
        self.storeLocal(0x40, 5);
    });
    rt.run();
    std::uint64_t v = 0;
    bool done = false;
    const SlotRef s = rt.node(0).makeSlot(1, [&](NodeRt &) {
        done = true;
    });
    rt.node(0).spawnLocal([&, s](NodeRt &self) {
        self.getRemote(1, 0x40, &v, s);
    });
    const Tick t = rt.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(v, 5u);
    EXPECT_GT(ticksToUs(t), 4.0); // two one-way latencies at least
    EXPECT_LT(ticksToUs(t), 15.0);
}

// ---- Across the second crossbar level. -------------------------------------

/** A 2x2 PowerMANNA machine: two clusters of two nodes. */
msg::SystemParams
twoClusterParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric = machines::powerMannaFabric(2, 2);
    return sp;
}

/**
 * A healthy workload spanning both clusters: remote invokes,
 * split-phase puts/gets, and local fibers. Fingerprints the run
 * duration, the fetched values, and every node's counters.
 */
std::string
crossClusterFingerprint()
{
    msg::System sys(twoClusterParams());
    Runtime rt(sys);

    // Node 0 (cluster 0) gets from node 3 (cluster 1); node 2 puts to
    // node 1 across clusters; node 3 invokes a function on node 0.
    rt.registerFunction(1, [](NodeRt &self,
                              const std::vector<std::uint64_t> &args) {
        self.storeLocal(0x500, args.at(0) * 2);
    });
    rt.node(3).storeLocal(0x100, 777);

    std::uint64_t fetched = 0;
    bool getDone = false, putDone = false;
    const SlotRef gslot =
        rt.node(0).makeSlot(1, [&](NodeRt &) { getDone = true; });
    rt.node(0).spawnLocal([&, gslot](NodeRt &self) {
        self.getRemote(3, 0x100, &fetched, gslot);
    });
    const SlotRef pslot =
        rt.node(2).makeSlot(1, [&](NodeRt &) { putDone = true; });
    rt.node(2).spawnLocal([&, pslot](NodeRt &self) {
        self.putRemote(1, 0x200, 4242, pslot);
    });
    rt.node(3).spawnLocal([](NodeRt &self) {
        self.invokeRemote(0, 1, {21});
    });

    const Tick t = rt.run();
    EXPECT_TRUE(getDone);
    EXPECT_TRUE(putDone);

    std::ostringstream os;
    os << "t=" << t << " fetched=" << fetched
       << " put=" << rt.node(1).loadLocal(0x200)
       << " invoked=" << rt.node(0).loadLocal(0x500) << "\n";
    for (unsigned n = 0; n < rt.numNodes(); ++n)
        os << "n" << n << " fibers=" << rt.node(n).fibersRun.value()
           << " syncs=" << rt.node(n).syncsHandled.value()
           << " remote=" << rt.node(n).remoteOps.value() << "\n";
    return os.str();
}

TEST(Earth, CrossClusterWorkloadIsByteIdenticalAcrossRuns)
{
    const std::string first = crossClusterFingerprint();
    EXPECT_EQ(first, crossClusterFingerprint());
    EXPECT_NE(first.find("fetched=777"), std::string::npos) << first;
    EXPECT_NE(first.find("put=4242"), std::string::npos) << first;
    EXPECT_NE(first.find("invoked=42"), std::string::npos) << first;
}

/**
 * The cross-cabinet peer-death soak: node 3 (cluster 1) is unreachable
 * for good, so node 0 (cluster 0) discovers the death across the second
 * crossbar level. The survivors — including node 2, in the dead node's
 * own cluster — must keep exactly-once delivery through the failure and
 * through a second post-death round.
 */
std::string
crossClusterPeerDeathOutcome()
{
    // Node 3 is dead: everything it sends and everything sent to it
    // vanishes. Drops (not down-windows) so the shared downlink into
    // cluster 1 keeps draining — a permanently-down crossbar port
    // would head-of-line-block the survivors' traffic behind the dead
    // node's, which is a network partition, not a node death.
    sim::FaultModel fault(5);
    sim::FaultConfig dead;
    dead.drop = 1.0;
    fault.configure("xbar.c1.net0.out1", dead); // node 3's inbound port
    fault.configure("ni.n3.net0.tx", dead);
    msg::SystemParams sp = twoClusterParams();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    EarthCosts costs;
    costs.driver.retransBase = 2000; // fail fast: the test waits on it
    costs.driver.maxRetries = 2;
    Runtime rt(sys, costs);

    std::vector<std::pair<unsigned, unsigned>> deaths;
    rt.onPeerDeath([&](unsigned node, unsigned deadPeer) {
        deaths.emplace_back(node, deadPeer);
    });

    // Node 0 GETs from the doomed node; the value can never arrive.
    std::uint64_t fetched = 0xABCD;
    bool getFired = false;
    const SlotRef slot0 =
        rt.node(0).makeSlot(1, [&](NodeRt &) { getFired = true; });
    rt.node(0).spawnLocal([&, slot0](NodeRt &self) {
        self.getRemote(3, 0x10, &fetched, slot0);
    });

    // Survivors exchange cross-cluster split-phase stores meanwhile.
    bool put1Done = false, put2Done = false;
    const SlotRef slot1 =
        rt.node(1).makeSlot(1, [&](NodeRt &) { put1Done = true; });
    rt.node(1).spawnLocal([&, slot1](NodeRt &self) {
        self.putRemote(2, 0x20, 111, slot1);
    });
    const SlotRef slot2 =
        rt.node(2).makeSlot(1, [&](NodeRt &) { put2Done = true; });
    rt.node(2).spawnLocal([&, slot2](NodeRt &self) {
        self.putRemote(1, 0x30, 222, slot2);
    });

    rt.run();
    EXPECT_TRUE(put1Done);
    EXPECT_TRUE(put2Done);
    EXPECT_FALSE(getFired);
    EXPECT_EQ(fetched, 0xABCDu);

    // Post-death round: the degraded machine still delivers
    // exactly-once among the survivors.
    bool roundTwo = false;
    const SlotRef slot3 =
        rt.node(2).makeSlot(1, [&](NodeRt &) { roundTwo = true; });
    rt.node(2).spawnLocal([&, slot3](NodeRt &self) {
        self.putRemote(0, 0x40, 333, slot3);
    });
    rt.run();
    EXPECT_TRUE(roundTwo);

    std::ostringstream os;
    os << "dead=";
    for (unsigned d : rt.deadPeers())
        os << d << ",";
    os << " reports=";
    for (const auto &[n, d] : deaths)
        os << n << ":" << d << ",";
    os << " getsFailed=" << rt.node(0).getsFailed.value()
       << " v20=" << rt.node(2).loadLocal(0x20)
       << " v30=" << rt.node(1).loadLocal(0x30)
       << " v40=" << rt.node(0).loadLocal(0x40) << "\n";
    for (unsigned n = 0; n < rt.numNodes(); ++n)
        os << "n" << n << " fibers=" << rt.node(n).fibersRun.value()
           << " syncs=" << rt.node(n).syncsHandled.value()
           << " remote=" << rt.node(n).remoteOps.value() << "\n";
    return os.str();
}

TEST(Earth, CrossClusterPeerDeathIsByteIdenticalAcrossRuns)
{
    const std::string first = crossClusterPeerDeathOutcome();
    EXPECT_EQ(first, crossClusterPeerDeathOutcome());
    EXPECT_NE(first.find("dead=3,"), std::string::npos) << first;
    EXPECT_NE(first.find("reports=0:3,"), std::string::npos) << first;
    EXPECT_NE(first.find("getsFailed=1"), std::string::npos) << first;
    EXPECT_NE(first.find("v40=333"), std::string::npos) << first;
}

/**
 * Three survivors give up on the same dead node in one run: node 3
 * neither sends nor receives a data word, and nodes 2, 0 and 1 each
 * GET from it. Each death is applied inside the driver event that
 * gives up, so the reports arrive in the order the transports fail.
 */
std::string
threeDeathsOutcome()
{
    sim::FaultModel fault(5);
    sim::FaultConfig dead;
    dead.drop = 1.0;
    fault.configure("ni.n3.net0.tx", dead);
    fault.configure("xbar.c0.net0.out3", dead); // node 3's inbound port
    msg::SystemParams sp = clusterParams(8);
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    EarthCosts costs;
    costs.driver.retransBase = 2000; // fail fast: the test waits on it
    costs.driver.maxRetries = 2;
    Runtime rt(sys, costs);

    std::ostringstream os;
    os << "reports=";
    rt.onPeerDeath([&](unsigned node, unsigned deadPeer) {
        os << " " << node << ":" << deadPeer;
    });

    const unsigned getters[] = {2, 0, 1};
    std::uint64_t fetched[] = {7, 7, 7};
    unsigned fired = 0;
    for (unsigned k = 0; k < 3; ++k) {
        NodeRt &node = rt.node(getters[k]);
        const SlotRef slot =
            node.makeSlot(1, [&](NodeRt &) { ++fired; });
        node.spawnLocal([&, k, slot](NodeRt &self) {
            self.getRemote(3, 0x10, &fetched[k], slot);
        });
    }
    const Tick t = rt.run();

    os << "\nt=" << t << " fired=" << fired << " dead=";
    for (unsigned d : rt.deadPeers())
        os << d << ",";
    os << "\n";
    for (unsigned n = 0; n < rt.numNodes(); ++n)
        os << "n" << n << " gets_failed=" << rt.node(n).getsFailed.value()
           << " fibers=" << rt.node(n).fibersRun.value() << "\n";
    for (unsigned k = 0; k < 3; ++k)
        EXPECT_EQ(fetched[k], 7u) << "no value may be fabricated";
    return os.str();
}

TEST(Earth, ThreeSurvivorsReportOneDeathInOrder)
{
    const std::string first = threeDeathsOutcome();
    EXPECT_EQ(first, threeDeathsOutcome());
    EXPECT_EQ(first.rfind("reports= 2:3 0:3 1:3\n", 0), 0u) << first;
    EXPECT_NE(first.find("fired=0 dead=3,\n"), std::string::npos)
        << first;
    for (const char *line : {"n0 gets_failed=1 ", "n1 gets_failed=1 ",
                             "n2 gets_failed=1 "})
        EXPECT_NE(first.find(line), std::string::npos) << first;
}

} // namespace
