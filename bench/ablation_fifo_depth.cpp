/**
 * @file
 * Ablation for the paper's Figure 12 diagnosis: "This overhead could
 * be significantly reduced if larger FIFO buffers were implemented."
 *
 * Sweeps the link-interface FIFO depth (the hardware is 32 x 64-bit
 * words) and, in lockstep, the driver's direction-switch burst, and
 * measures simultaneous bidirectional bandwidth.
 *
 * Each depth is one pm::sim::sweep point with a System of its own;
 * `--jobs N` runs the points on N threads, byte-identically.
 */

#include <cstdio>
#include <string>
#include <vector>

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

    std::printf("== Ablation: link-interface FIFO depth vs Figure 12 "
                "==\n");
    std::printf("%12s %18s %18s\n", "FIFO words", "bidir MB/s (64KB)",
                "unidir MB/s (64KB)");

    const std::vector<unsigned> depths{8u, 16u, 32u, 64u, 128u, 256u};
    const auto report = sim::sweep::map(
        depths,
        [](unsigned fifoWords, const sim::sweep::Point &) {
            msg::SystemParams sp;
            sp.node = machines::powerManna();
            sp.fabric.clusters = 1;
            sp.fabric.nodesPerCluster = 2;
            sp.fabric.ni.fifoWords = fifoWords;
            msg::System sys(sp);

            // The driver bursts one FIFO's worth before switching.
            const double bi =
                msg::measureBidirectionalMBps(sys, 0, 1, 65536, 8);
            const double uni =
                msg::measureUnidirectionalMBps(sys, 0, 1, 65536, 8);
            std::string row;
            benchsup::appendf(
                row, "%12u %18.1f %18.1f%s\n", fifoWords, bi, uni,
                fifoWords == 32 ? "   <- hardware (paper)" : "");
            return row;
        },
        opt);
    if (const int rc = benchsup::emitRows(report))
        return rc;

    std::printf("\npaper check: bidirectional bandwidth grows with FIFO "
                "depth toward the 120 MB/s duplex capacity while the "
                "unidirectional rate stays wire-limited at 60\n");
    return 0;
}
