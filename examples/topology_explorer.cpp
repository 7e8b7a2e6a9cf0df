/**
 * @file
 * Topology explorer: builds PowerMANNA configurations from one cabinet
 * up to the 256-processor system of Figure 5b and reports their
 * structural properties — crossbar counts, route-header lengths, path
 * distributions — then pushes random traffic through the largest one
 * to demonstrate the duplicated network carrying real messages between
 * cabinets (over the asynchronous transceivers).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "machines/machines.hh"
#include "msg/driver.hh"
#include "msg/probes.hh"
#include "fabric/topology.hh"
#include "sim/random.hh"

namespace {

using namespace pm;

void
describeFabric(unsigned clusters, unsigned uplinks)
{
    sim::EventQueue queue;
    fabric::FabricParams fp;
    fp.clusters = clusters;
    fp.nodesPerCluster = 8;
    fp.uplinksPerCluster = clusters > 1 ? uplinks : 0;
    fp.networks = 2;
    fabric::Fabric fabric(fp, queue);

    const unsigned nodes = fabric.numNodes();
    std::uint64_t pathSum = 0;
    unsigned pathMax = 0;
    std::uint64_t pairs = 0;
    for (unsigned s = 0; s < nodes; ++s) {
        for (unsigned d = 0; d < nodes; ++d) {
            if (s == d)
                continue;
            const auto h =
                static_cast<unsigned>(fabric.route(s, d).size());
            pathSum += h;
            pathMax = std::max(pathMax, h);
            ++pairs;
        }
    }
    const unsigned xbarsPerNet =
        clusters + (clusters > 1 ? uplinks : 0);
    std::printf("%9u %6u %11u %13u %9.2f %8u\n", nodes, nodes * 2,
                clusters, 2 * xbarsPerNet,
                double(pathSum) / double(pairs), pathMax);
}

} // namespace

int
main()
{
    setInformEnabled(false);

    std::printf("== PowerMANNA configurations (Figure 5) ==\n");
    std::printf("%9s %6s %11s %13s %9s %8s\n", "nodes", "cpus",
                "cabinets", "crossbars", "avg hops", "max hops");
    describeFabric(1, 0); // Figure 5a: one desk-side cabinet
    describeFabric(4, 4);
    describeFabric(8, 8);
    describeFabric(16, 8); // Figure 5b: 128 nodes / 256 processors

    // ---- Drive real random traffic through a two-cabinet machine
    // (nodes included, so the full PIO driver path is exercised; the
    // 16-cabinet fabric above is structural only).
    std::printf("\n== random traffic across two cabinets ==\n");
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 2;
    sp.fabric.nodesPerCluster = 8;
    sp.fabric.uplinksPerCluster = 4;
    msg::System sys(sp);
    sys.resetForRun();

    std::vector<std::unique_ptr<msg::PmComm>> comm;
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        comm.push_back(std::make_unique<msg::PmComm>(sys, n));

    sim::SplitMix64 rng(2026);
    constexpr unsigned kMessages = 48;
    unsigned received = 0;
    for (unsigned m = 0; m < kMessages; ++m) {
        const unsigned src = static_cast<unsigned>(rng.below(16));
        unsigned dst = static_cast<unsigned>(rng.below(15));
        if (dst >= src)
            ++dst;
        auto payload = msg::makePayload(64 + 8 * (m % 32), m);
        comm[src]->postSend(dst, payload);
        comm[dst]->postRecv([&](std::vector<std::uint64_t>, bool ok) {
            if (!ok)
                pm_fatal("random traffic CRC failure");
            ++received;
        });
    }
    const Tick start = sys.queue().now();
    while (received < kMessages && sys.queue().step()) {
    }
    std::printf("%u random messages delivered intact in %.1f us "
                "(inter-cabinet paths cross 3 crossbars + 2 "
                "transceivers)\n",
                received, ticksToUs(sys.queue().now() - start));
    return received == kMessages ? 0 : 1;
}
