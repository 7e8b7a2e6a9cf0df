/**
 * @file
 * Extension bench: interconnect saturation under uniform-random
 * synthetic traffic (Garnet-style), on the Figure 5a cluster and on a
 * two-cabinet system. Sweeps offered load per node and reports
 * delivered throughput and end-to-end latency — the load/latency curve
 * the paper's blocking-behaviour citations ([5], [6]) reason about.
 *
 * Injectors drive the link interfaces directly (no PIO driver), so
 * this isolates the fabric: links, crossbar arbitration, transceivers.
 *
 * Each (system, offered load) is one pm::sim::sweep point with a
 * fabric of its own; `--jobs N` runs the points on N threads, and the
 * tables print after the join, byte-identically.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/injector.hh"
#include "fabric/topology.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

namespace {

using namespace pm;
using namespace pm::net;
using namespace pm::fabric;

/** One sweep point: a system size and an offered load per node. */
struct Load
{
    unsigned clusters;
    unsigned nodesPerCluster;
    double offered;
};

/** Run one load on a fabric of its own and render its table row. */
std::string
runLoad(const Load &load)
{
    sim::EventQueue queue;
    FabricParams fp;
    fp.clusters = load.clusters;
    fp.nodesPerCluster = load.nodesPerCluster;
    fp.uplinksPerCluster = load.clusters > 1 ? 8 : 0;
    fp.networks = 1;
    Fabric fabric(fp, queue);
    Drain drain(fabric, queue);

    std::vector<std::unique_ptr<Injector>> injectors;
    InjectorParams ip;
    ip.offeredMBps = load.offered;
    ip.payloadWords = 8; // 64 B messages
    constexpr Tick kRun = 3 * kTicksPerMs;
    for (unsigned n = 0; n < fabric.numNodes(); ++n) {
        ip.seed = n + 1;
        injectors.push_back(
            std::make_unique<Injector>(fabric, queue, n, ip));
        injectors.back()->start(kRun);
    }
    // Run generation + a drain tail, then stop the poller.
    queue.run(kRun + 200 * kTicksPerUs);
    drain.stop();
    queue.run();

    double sentTotal = 0;
    double throttledTotal = 0;
    for (auto &inj : injectors) {
        sentTotal += inj->sent.value();
        throttledTotal += inj->throttled.value();
    }
    if (drain.received() == 0 && sentTotal > 0)
        pm_panic("fabric lost all traffic");
    const double ms = ticksToUs(kRun) / 1000.0;
    const double deliveredMBps = drain.received() * 64.0 / (ms * 1000.0);
    std::string row;
    benchsup::appendf(
        row, "%13.0f MB/s %13.1f MB/s %11.2f us %11.2f us %12.0f\n",
        load.offered, deliveredMBps,
        ticksToUs(static_cast<Tick>(drain.latency().mean())),
        ticksToUs(static_cast<Tick>(drain.latency().max())),
        throttledTotal);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = benchsup::options(argc, argv);
    setInformEnabled(false);
    std::printf("== Extension: fabric saturation under synthetic "
                "traffic ==\n");

    // (clusters, nodes per cluster), then one point per offered load.
    const std::vector<std::pair<unsigned, unsigned>> systems{{1, 8},
                                                             {2, 8}};
    const std::vector<double> loads{5.0, 15.0, 30.0, 45.0, 55.0};
    std::vector<Load> work;
    for (const auto &[clusters, nodesPerCluster] : systems)
        for (double offered : loads)
            work.push_back(Load{clusters, nodesPerCluster, offered});
    const auto report = sim::sweep::map(
        work,
        [](const Load &load, const sim::sweep::Point &) {
            return runLoad(load);
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;

    std::size_t next = 0;
    for (const auto &[clusters, nodesPerCluster] : systems) {
        std::printf("\n-- %u cabinet%s, %u nodes, uniform random, 64 B "
                    "payloads --\n",
                    clusters, clusters > 1 ? "s" : "",
                    clusters * nodesPerCluster);
        std::printf("%16s %18s %14s %14s %12s\n", "offered/node",
                    "delivered total", "mean lat", "max lat",
                    "throttled");
        for (std::size_t i = 0; i < loads.size(); ++i)
            std::fputs(report.results[next++].c_str(), stdout);
    }
    std::printf("\nexpected shape: delivered tracks offered until the "
                "60 MB/s links and crossbar arbitration saturate "
                "(~28 MB/s/node for 64 B messages: command, header and "
                "CRC overhead plus ejection-link contention); latency "
                "rises steeply near the knee; with 8 uplinks per "
                "cabinet the two-cabinet system scales per-node "
                "throughput, paying ~0.6 us extra latency for the "
                "3-crossbar + transceiver path\n");
    return 0;
}
