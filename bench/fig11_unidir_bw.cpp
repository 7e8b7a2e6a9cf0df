/**
 * @file
 * Figure 11: unidirectional bandwidth over message size, PowerMANNA
 * (measured) vs BIP and FM (models calibrated to [9]).
 *
 * Paper shape: PowerMANNA's curve saturates at the 60 MB/s single-link
 * wire rate — "for larger messages PowerMANNA's performance is limited
 * by its current network technology" — while BIP climbs to the
 * ~126 MB/s the PCI interface allows.
 *
 * Each message size is one pm::sim::sweep point with a System of its
 * own; `--jobs N` runs the points on N threads, byte-identically.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/usercomm.hh"
#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);
    using namespace pm;

    const std::vector<unsigned> sizes{16u,    64u,    256u,   1024u,
                                      4096u, 16384u, 65536u, 262144u};

    std::printf("== Figure 11: unidirectional bandwidth (MB/s) ==\n");
    std::printf("%8s %12s %12s %12s\n", "bytes", "powermanna", "bip",
                "fm");
    const auto report = sim::sweep::map(
        sizes,
        [](unsigned bytes, const sim::sweep::Point &) {
            msg::SystemParams sp;
            sp.node = machines::powerManna();
            sp.fabric.clusters = 1;
            sp.fabric.nodesPerCluster = 8;
            msg::System sys(sp);
            const auto bip = baseline::UserLevelCommModel::bip();
            const auto fm = baseline::UserLevelCommModel::fm();
            const unsigned count = bytes >= 16384 ? 12 : 32;
            const double pmBw =
                msg::measureUnidirectionalMBps(sys, 0, 1, bytes, count);
            std::string row;
            benchsup::appendf(row, "%8u %12.1f %12.1f %12.1f\n", bytes,
                              pmBw, bip.unidirectionalMBps(bytes),
                              fm.unidirectionalMBps(bytes));
            return row;
        },
        opt);
    if (const int rc = benchsup::emitRows(report))
        return rc;

    std::printf("\npaper check: PowerMANNA saturates at ~60 MB/s (the "
                "single-link wire rate); BIP reaches ~126 MB/s\n");
    return 0;
}
