/**
 * @file
 * Figure 12: simultaneous bidirectional bandwidth (both directions
 * summed) over message size, PowerMANNA (measured) vs BIP and FM.
 *
 * Paper shape: for short messages PowerMANNA is similar to BIP; for
 * long messages it falls well short of 2x its unidirectional rate —
 * the 32-word link-interface FIFOs force the driving CPU to switch
 * directions every 4 cache lines, and the switching overhead (all PIO)
 * eats the duplex capacity. The companion ablation bench
 * (ablation_fifo_depth) shows larger FIFOs recovering the loss, as the
 * paper suggests.
 *
 * Every table row AND the two 64 KB diagnosis measurements are
 * pm::sim::sweep points with Systems of their own; `--jobs N` runs
 * them on N threads, byte-identically.
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

/** A table row, or one of the two trailing 64 KB diagnosis points. */
struct PointSpec
{
    unsigned bytes;
    bool unidirectional; //!< The diagnosis needs the unidir rate too.
};

struct PointResult
{
    std::string row; //!< Empty for the diagnosis points.
    double mbps = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);

    std::vector<PointSpec> points;
    for (unsigned bytes : {16u, 64u, 256u, 1024u, 4096u, 16384u, 65536u,
                           262144u})
        points.push_back({bytes, false});
    const std::size_t kDiagUni = points.size();
    points.push_back({65536u, true}); // diagnosis: unidirectional
    const std::size_t kDiagBi = points.size();
    points.push_back({65536u, false}); // diagnosis: bidirectional

    std::printf("== Figure 12: simultaneous bidirectional bandwidth "
                "(MB/s, both directions) ==\n");
    std::printf("%8s %12s %12s %12s\n", "bytes", "powermanna", "bip",
                "fm");
    const auto report = sim::sweep::map(
        points,
        [kDiagUni](const PointSpec &pt, const sim::sweep::Point &p) {
            msg::System sys(figParams());
            const unsigned count = pt.bytes >= 16384 ? 12 : 32;
            PointResult res;
            res.mbps =
                pt.unidirectional
                    ? msg::measureUnidirectionalMBps(sys, 0, 1,
                                                     pt.bytes, count)
                    : msg::measureBidirectionalMBps(sys, 0, 1,
                                                    pt.bytes, count);
            if (p.index < kDiagUni) {
                const auto bip = baseline::UserLevelCommModel::bip();
                const auto fm = baseline::UserLevelCommModel::fm();
                benchsup::appendf(res.row, "%8u %12.1f %12.1f %12.1f\n",
                                  pt.bytes, res.mbps,
                                  bip.bidirectionalMBps(pt.bytes),
                                  fm.bidirectionalMBps(pt.bytes));
            }
            return res;
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;
    for (std::size_t i = 0; i < kDiagUni; ++i)
        std::fputs(report.results[i].row.c_str(), stdout);

    // The paper's diagnosis, quantified: unidirectional vs duplex.
    const double uni = report.results[kDiagUni].mbps;
    const double bi = report.results[kDiagBi].mbps;
    std::printf("\npaper check (64 KB): unidirectional %.1f MB/s, "
                "bidirectional total %.1f MB/s (%.0f%% of the 2x%.0f "
                "duplex capacity) — the small-FIFO direction-switching "
                "loss\n",
                uni, bi, 100.0 * bi / (2.0 * uni), uni);
    return 0;
}
