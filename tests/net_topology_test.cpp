/**
 * @file
 * Unit tests for the fabric builder and routing: Figure 5a clusters,
 * Figure 5b multi-cabinet systems, route-header correctness, the
 * duplicated network, and configuration validation.
 */

#include <gtest/gtest.h>

#include "fabric/topology.hh"
#include "sim/event.hh"

namespace {

using namespace pm;
using namespace pm::net;
using namespace pm::fabric;

FabricParams
smallParams(unsigned clusters = 1, unsigned nodes = 8, unsigned up = 4)
{
    FabricParams p;
    p.clusters = clusters;
    p.nodesPerCluster = nodes;
    p.uplinksPerCluster = clusters > 1 ? up : 0;
    return p;
}

TEST(Fabric, Figure5aCluster)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    EXPECT_EQ(f.numNodes(), 8u);
    EXPECT_EQ(f.clusterOf(5), 0u);
    EXPECT_EQ(f.localIndex(5), 5u);
}

TEST(Fabric, IntraClusterRouteIsOneByte)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    const auto r = f.route(0, 5);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], 5u);
}

TEST(Fabric, InterClusterRouteIsThreeBytes)
{
    sim::EventQueue q;
    Fabric f(smallParams(4, 8, 4), q);
    const auto r = f.route(0, 8 + 3); // cluster 0 -> cluster 1 node 3
    ASSERT_EQ(r.size(), 3u);
    EXPECT_GE(r[0], 8u); // uplink port on the source cluster crossbar
    EXPECT_LT(r[0], 12u);
    EXPECT_EQ(r[1], 1u); // destination cluster port on the L2 crossbar
    EXPECT_EQ(r[2], 3u); // destination node port
}

TEST(Fabric, SpreadSelectsDifferentUplinks)
{
    sim::EventQueue q;
    Fabric f(smallParams(4, 8, 4), q);
    const auto r0 = f.route(0, 9, 0);
    const auto r1 = f.route(0, 9, 1);
    EXPECT_NE(r0[0], r1[0]);
    EXPECT_EQ(r0[1], r1[1]);
}

TEST(Fabric, RouteToSelfIsRejected)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    EXPECT_DEATH(f.route(3, 3), "route to self");
}

TEST(Fabric, AllPairRoutesAreValidPorts)
{
    sim::EventQueue q;
    Fabric f(smallParams(16, 8, 8), q);
    for (unsigned s = 0; s < f.numNodes(); s += 7) {
        for (unsigned d = 0; d < f.numNodes(); ++d) {
            if (s == d)
                continue;
            const auto r = f.route(s, d);
            ASSERT_LE(r.size(), 3u);
            for (auto byte : r)
                ASSERT_LT(byte, 16u);
            // First byte targets either a node port (same cluster) or
            // an uplink port.
            if (f.clusterOf(s) == f.clusterOf(d)) {
                ASSERT_EQ(r.size(), 1u);
            } else {
                ASSERT_GE(r[0], 8u);
            }
        }
    }
}

TEST(Fabric, DuplicatedNetworksAreIndependent)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    EXPECT_NE(&f.ni(0, 0), &f.ni(0, 1));
    EXPECT_NE(&f.clusterXbar(0, 0), &f.clusterXbar(0, 1));
}

TEST(Fabric, NodeLinksAreWired)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    for (unsigned o = 0; o < 8; ++o)
        EXPECT_TRUE(f.clusterXbar(0).outputConnected(o));
    // Free ports (8..15) of a single-cabinet system stay open.
    EXPECT_FALSE(f.clusterXbar(0).outputConnected(12));
}

TEST(Fabric, UplinkPortsWiredInMultiCluster)
{
    sim::EventQueue q;
    Fabric f(smallParams(2, 8, 4), q);
    for (unsigned u = 0; u < 4; ++u) {
        EXPECT_TRUE(f.clusterXbar(0).outputConnected(8 + u));
        EXPECT_TRUE(f.levelTwoXbar(u).outputConnected(0));
        EXPECT_TRUE(f.levelTwoXbar(u).outputConnected(1));
    }
}

TEST(Fabric, RejectsOversizedConfigs)
{
    sim::EventQueue q;
    FabricParams p = smallParams(2, 14, 4); // 14 + 4 > 16 ports
    EXPECT_EXIT(Fabric(p, q), ::testing::ExitedWithCode(1), "exceed");
    FabricParams p2 = smallParams(17, 8, 4);
    p2.clusters = 17;
    EXPECT_EXIT(Fabric(p2, q), ::testing::ExitedWithCode(1), "");
}

TEST(Fabric, RejectsMultiClusterWithoutUplinks)
{
    sim::EventQueue q;
    FabricParams p = smallParams(2, 8, 4);
    p.uplinksPerCluster = 0;
    EXPECT_EXIT(Fabric(p, q), ::testing::ExitedWithCode(1), "uplinks");
}

TEST(Fabric, SymbolTravelsNodeToNode)
{
    // Push a routed message into node 0's interface; it must arrive at
    // node 3's receive FIFO across the cluster crossbar.
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    auto &src = f.ni(0);
    auto &dst = f.ni(3);
    src.pushSend(Symbol::makeRoute(3), 0);
    src.pushSend(Symbol::makeData(0xCAFE), 0);
    src.pushSend(Symbol::makeClose(), 0);
    q.run();
    ASSERT_EQ(dst.recvAvailable(), 1u);
    EXPECT_EQ(dst.popRecv(), 0xCAFEu);
    ASSERT_TRUE(dst.frontMessageDrained());
    EXPECT_TRUE(dst.consumeMessage().crcOk);
}

TEST(Fabric, SymbolTravelsAcrossCabinets)
{
    sim::EventQueue q;
    Fabric f(smallParams(2, 8, 4), q);
    auto &src = f.ni(1); // cluster 0
    auto &dst = f.ni(12); // cluster 1, local 4
    for (auto byte : f.route(1, 12))
        src.pushSend(Symbol::makeRoute(byte), 0);
    src.pushSend(Symbol::makeData(0xD00D), 0);
    src.pushSend(Symbol::makeClose(), 0);
    q.run();
    ASSERT_EQ(dst.recvAvailable(), 1u);
    EXPECT_EQ(dst.popRecv(), 0xD00Du);
    ASSERT_TRUE(dst.frontMessageDrained());
    EXPECT_TRUE(dst.consumeMessage().crcOk);
}

TEST(Fabric, ResetClearsFifos)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    f.ni(0).pushSend(Symbol::makeRoute(3), 0);
    f.ni(0).pushSend(Symbol::makeData(1), 0);
    f.ni(0).pushSend(Symbol::makeClose(), 0);
    q.run();
    f.reset();
    EXPECT_EQ(f.ni(3).recvAvailable(), 0u);
    EXPECT_EQ(f.ni(3).messagesReceived(), 0u);
}

// A reset must void symbols still on the wire: without it, a message
// abandoned mid-flight (trailing ACKs of a finished measurement run,
// say) worms its route bytes into the next run's freshly-opened
// circuits and a route command reaches a node.
TEST(Fabric, ResetVoidsInFlightSymbols)
{
    sim::EventQueue q;
    Fabric f(smallParams(), q);
    f.ni(0).pushSend(Symbol::makeRoute(3), 0);
    f.ni(0).pushSend(Symbol::makeData(1), 0);
    f.ni(0).pushSend(Symbol::makeClose(), 0);
    // Step just far enough that symbols are in motion, not delivered.
    while (q.step() && f.ni(3).recvAvailable() == 0 &&
           q.now() < 500 * kTicksPerNs) {
    }
    f.reset();
    // The leftovers must neither arrive nor wedge the fresh run.
    f.ni(0).pushSend(Symbol::makeRoute(3), q.now());
    f.ni(0).pushSend(Symbol::makeData(42), q.now());
    f.ni(0).pushSend(Symbol::makeClose(), q.now());
    q.run();
    ASSERT_TRUE(f.ni(3).messageComplete());
    EXPECT_EQ(f.ni(3).messagesReceived(), 1u);
    EXPECT_EQ(f.ni(3).popRecv(), 42u);
}

} // namespace
