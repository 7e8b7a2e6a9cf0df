/**
 * @file
 * Extension bench (paper Section 7 / [18]): EARTH-MANNA-style
 * fine-grain operation overheads on PowerMANNA.
 *
 * The paper argues the lightweight NI plus user-level protocols make
 * PowerMANNA a good EARTH host ("EARTH is currently being ported to
 * the PowerMANNA machine"); [18] characterizes EARTH by the cost of
 * its primitive operations. This bench measures those primitives on
 * the simulated machine: local fiber dispatch, local/remote syncs,
 * split-phase GET/PUT, remote invocation, and a fine-grain token ring.
 */

#include <cstdio>

#include "earth/runtime.hh"
#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

namespace {

using namespace pm;
using namespace pm::earth;

msg::SystemParams
clusterParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 8;
    return sp;
}

double
localFiberCost(msg::System &sys)
{
    Runtime rt(sys);
    constexpr unsigned kFibers = 256;
    unsigned left = kFibers;
    std::function<void(NodeRt &)> chain = [&](NodeRt &self) {
        if (--left > 0)
            self.spawnLocal(chain);
    };
    rt.node(0).spawnLocal(chain);
    return ticksToUs(rt.run()) / kFibers;
}

double
localSyncCost(msg::System &sys)
{
    Runtime rt(sys);
    constexpr unsigned kSyncs = 256;
    auto &n0 = rt.node(0);
    const SlotRef slot = n0.makeSlot(kSyncs, [](NodeRt &) {});
    n0.spawnLocal([slot](NodeRt &self) {
        for (unsigned i = 0; i < kSyncs; ++i)
            self.sync(slot);
    });
    return ticksToUs(rt.run()) / kSyncs;
}

double
remoteSyncCost(msg::System &sys)
{
    Runtime rt(sys);
    constexpr unsigned kRounds = 32;
    unsigned left = kRounds;
    // Ping-pong of SYNC tokens between slots on nodes 0 and 1.
    std::function<void(unsigned)> arm = [&](unsigned onNode) {
        rt.node(onNode).spawnLocal([&, onNode](NodeRt &) {
            if (left-- == 0)
                return;
            const unsigned peer = 1 - onNode;
            const SlotRef s = rt.node(peer).makeSlot(
                1, [&, peer](NodeRt &) { arm(peer); });
            rt.node(onNode).sync(s);
        });
    };
    arm(0);
    return ticksToUs(rt.run()) / kRounds;
}

double
getRoundTrip(msg::System &sys)
{
    Runtime rt(sys);
    rt.node(1).spawnLocal([](NodeRt &self) {
        self.storeLocal(0x80, 7);
    });
    rt.run();
    constexpr unsigned kGets = 32;
    unsigned left = kGets;
    // Local, not static: rt.run() drains every get before this frame
    // returns, and a static here would leak state across sweep points.
    std::uint64_t sink = 0;
    std::function<void(NodeRt &)> again = [&](NodeRt &self) {
        if (left-- == 0)
            return;
        const SlotRef s = rt.node(0).makeSlot(1, again);
        self.getRemote(1, 0x80, &sink, s);
    };
    rt.node(0).spawnLocal(again);
    return ticksToUs(rt.run()) / kGets;
}

double
invokeCost(msg::System &sys)
{
    Runtime rt(sys);
    constexpr unsigned kHops = 64;
    rt.registerFunction(
        1, [&](NodeRt &self, const std::vector<std::uint64_t> &args) {
            if (args[0] == 0)
                return;
            self.invokeRemote((self.nodeId() + 1) % 8, 1, {args[0] - 1});
        });
    rt.node(0).spawnLocal([](NodeRt &self) {
        self.invokeRemote(1, 1, {kHops});
    });
    return ticksToUs(rt.run()) / kHops;
}

} // namespace

int
main(int argc, char **argv)
{
    // One System carries state from each measurement into the next, so
    // there is nothing to fan out; parsed so a stray argument is still
    // an error.
    (void)benchsup::options(argc, argv);
    setInformEnabled(false);
    msg::System sys(clusterParams());

    std::printf("== Extension: EARTH-style fine-grain overheads on "
                "PowerMANNA (Section 7 / [18]) ==\n");
    std::printf("%-42s %10.3f us\n", "local fiber spawn + dispatch",
                localFiberCost(sys));
    std::printf("%-42s %10.3f us\n", "local sync-slot update",
                localSyncCost(sys));
    std::printf("%-42s %10.3f us\n", "remote SYNC (one-way, inc. fiber)",
                remoteSyncCost(sys));
    const double get = getRoundTrip(sys);
    std::printf("%-42s %10.3f us\n", "split-phase GET_SYNC round trip",
                get);
    std::printf("%-42s %10.3f us\n", "remote INVOKE (one hop of a ring)",
                invokeCost(sys));

    const double msgLat = msg::measureOneWayLatencyUs(sys, 0, 1, 40, 4);
    std::printf("\nreference: message-layer one-way latency for a "
                "token-sized (40 B) message: %.2f us\n",
                msgLat);
    std::printf("GET round trip / 2 = %.2f us vs %.2f us: the runtime "
                "adds only handler/dispatch overhead on top of the "
                "lightweight NI — the property [18] exploited on "
                "MANNA\n",
                get / 2, msgLat);
    return 0;
}
