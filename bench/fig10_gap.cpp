/**
 * @file
 * Figure 10: message-sending time at the network saturation point —
 * the LogP gap — over message size, for PowerMANNA (measured) and the
 * BIP/FM baselines (models calibrated to [9]).
 *
 * At saturation the sender streams back-to-back messages; the gap is
 * the steady-state time consumed per message. For PowerMANNA short
 * messages it is dominated by the PIO sends and route setup; for long
 * messages it converges to wire occupancy at 60 MB/s.
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

    const std::vector<unsigned> sizes{4u,   8u,   16u,  32u,   64u,  128u,
                                      256u, 512u, 1024u, 2048u, 4096u};

    std::printf("== Figure 10: message-sending time at saturation (us) "
                "==\n");
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
            const double pmUs = msg::measureGapUs(sys, 0, 1, bytes, 32);
            std::string row;
            benchsup::appendf(row, "%8u %12.2f %12.2f %12.2f\n", bytes,
                              pmUs, bip.gapUs(bytes), fm.gapUs(bytes));
            return row;
        },
        opt);
    return benchsup::emitRows(report);
}
