/**
 * @file
 * Figure 9: one-way latency (half ping-pong) over message size, for
 * PowerMANNA (measured on the simulated machine) and for BIP and FM on
 * the Myrinet PC cluster (cost models calibrated to [9], exactly as
 * the paper takes its baseline numbers from [9]).
 *
 * Paper anchors: 8 bytes in 2.75 us on PowerMANNA vs 6.4 us (BIP) and
 * 9.2 us (FM) — PowerMANNA clearly ahead for short messages; for large
 * messages its 60 MB/s link makes it slower than Myrinet.
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

namespace {

using namespace pm;

msg::SystemParams
figParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 8;
    return sp;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);

    const std::vector<unsigned> sizes{4u,   8u,   16u,  32u,   64u,  128u,
                                      256u, 512u, 1024u, 2048u, 4096u};

    std::printf("== Figure 9: one-way latency (us) over message size "
                "==\n");
    std::printf("%8s %12s %12s %12s\n", "bytes", "powermanna", "bip",
                "fm");
    const auto report = sim::sweep::map(
        sizes,
        [](unsigned bytes, const sim::sweep::Point &) {
            msg::System sys(figParams());
            const auto bip = baseline::UserLevelCommModel::bip();
            const auto fm = baseline::UserLevelCommModel::fm();
            const double pmUs =
                msg::measureOneWayLatencyUs(sys, 0, 1, bytes, 8);
            std::string row;
            benchsup::appendf(row, "%8u %12.2f %12.2f %12.2f\n", bytes,
                              pmUs, bip.oneWayLatencyUs(bytes),
                              fm.oneWayLatencyUs(bytes));
            return row;
        },
        opt);
    if (const int rc = benchsup::emitRows(report))
        return rc;

    msg::System sys(figParams());
    const auto bip = baseline::UserLevelCommModel::bip();
    const auto fm = baseline::UserLevelCommModel::fm();
    std::printf("\npaper anchor check (8 bytes): PowerMANNA %.2f us "
                "(paper: 2.75), BIP %.2f (6.4), FM %.2f (9.2)\n",
                msg::measureOneWayLatencyUs(sys, 0, 1, 8, 8),
                bip.oneWayLatencyUs(8), fm.oneWayLatencyUs(8));
    return 0;
}
