/**
 * @file
 * Extension bench: reliable delivery under injected faults.
 *
 * Sweeps the per-bit error rate of every link in a two-node system
 * and reports effective goodput plus the recovery work (retransmits,
 * CRC drops, NACKs) the go-back-N driver performed to keep delivery
 * exactly-once. The first row (BER 0) doubles as the zero-fault
 * overhead check: its Figure 9 latency and Figure 11 bandwidth must
 * match the fault-free paper anchors (2.75 us, 59.9 MB/s) — the
 * reliability protocol rides in the existing header word and costs
 * nothing when nothing goes wrong.
 *
 * All measurement points — the two anchor machines and the six BER
 * soaks — go through pm::sim::sweep as one work list; `--jobs N`
 * fans them out over N threads with byte-identical output (the BER
 * soaks dominate the wall clock, so this bench is also the CI
 * speedup check for the harness).
 *
 * The BER soaks run on a two-cluster machine, so every message
 * crosses the transceivers and the second crossbar level. The anchor
 * rows stay on the single-cluster machine that defines the paper
 * numbers. Results also land in BENCH_reliability.json as a CI
 * artifact.
 */

#include <cstdio>
#include <vector>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

namespace {

using namespace pm;

msg::SystemParams
baseParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    return sp;
}

/** The BER soak machine: two clusters of two nodes. */
msg::SystemParams
soakParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric = machines::powerMannaFabric(2, 2);
    return sp;
}

// Top of the sweep is tuned to the two-cluster soak path: a word
// crosses ~4 fault sites each way, so frame-loss compounds per hop
// and 2e-4 already costs several transmissions per message. Beyond
// that the go-back-N window stops outrunning the loss rate and the
// retry budget (rightly) declares the link dead — a different bench.
const std::vector<double> kBers{0.0, 1e-7, 1e-6, 1e-5, 1e-4, 2e-4};

/** What one sweep point measured (fields per point kind). */
struct PointResult
{
    // Anchor points.
    double lat = 0.0;
    double bw = 0.0;
    double scans = 0.0;
    // BER soak points.
    double goodput = 0.0;
    double retransmits = 0.0;
    double crcDrops = 0.0;
    double nacksSent = 0.0;
    double timeouts = 0.0;
    bool intact = true;
};

/** Work list: [0] fault-free anchors, [1] watchdogged anchors,
 *  [2..] one soak per kBers entry. */
constexpr std::size_t kAnchorPlain = 0;
constexpr std::size_t kAnchorWatchdog = 1;
constexpr std::size_t kFirstBer = 2;

PointResult
runPoint(std::size_t index)
{
    PointResult res;
    if (index == kAnchorPlain || index == kAnchorWatchdog) {
        msg::System sys(baseParams());
        if (index == kAnchorWatchdog)
            sys.health().enableWatchdog(5 * kTicksPerUs,
                                        1000 * kTicksPerUs);
        res.lat = msg::measureOneWayLatencyUs(sys, 0, 1, 8);
        res.bw = msg::measureUnidirectionalMBps(sys, 0, 1, 16384);
        res.scans = sys.health().scans();
        return res;
    }

    const double ber = kBers[index - kFirstBer];
    sim::FaultModel fault(2024);
    fault.defaults.ber = ber;
    msg::SystemParams sp = soakParams();
    if (fault.anyConfigured())
        sp.fabric.fault = &fault;
    msg::System sys(sp);

    const unsigned count = 1024;
    const std::uint64_t bytes = 256;
    const auto r = msg::runDeliverySoak(sys, 0, 2, bytes, count);
    res.goodput = r.elapsedUs > 0.0
                      ? double(bytes) * r.delivered / r.elapsedUs
                      : 0.0;
    res.retransmits = r.retransmits;
    res.crcDrops = r.crcDrops;
    res.nacksSent = r.nacksSent;
    res.timeouts = r.timeouts;
    res.intact = r.intact;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);

    const auto report = sim::sweep::run(
        kFirstBer + kBers.size(),
        [](const sim::sweep::Point &pt) { return runPoint(pt.index); },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;

    std::printf("\n-- zero-fault overhead vs paper anchors --\n");
    const PointResult &plain = report.results[kAnchorPlain];
    std::printf("fig9  8 B latency : %.3f us (paper 2.75, budget +-1%%)\n",
                plain.lat);
    std::printf("fig11 peak bw     : %.1f MB/s (paper 59.9, budget "
                "+-1%%)\n",
                plain.bw);
    if (plain.lat < 2.75 * 0.99 || plain.lat > 2.75 * 1.01 ||
        plain.bw < 59.9 * 0.99 || plain.bw > 59.9 * 1.01)
        pm_panic("reliability protocol perturbed the fault-free "
                 "anchors");

    // Same anchors with the health watchdog scanning: the monitor is
    // read-only, so an enabled watchdog must not move either number.
    const PointResult &watched = report.results[kAnchorWatchdog];
    std::printf("      with watchdog: %.3f us, %.1f MB/s (%.0f scans)\n",
                watched.lat, watched.bw, watched.scans);
    if (watched.lat != plain.lat || watched.bw != plain.bw)
        pm_panic("enabled watchdog perturbed the fault-free anchors "
                 "(%.3f vs %.3f us, %.1f vs %.1f MB/s)",
                 watched.lat, plain.lat, watched.bw, plain.bw);

    std::printf("\n-- goodput vs bit-error rate (1024 x 256 B, "
                "exactly-once delivery) --\n");
    std::printf("%10s %12s %10s %10s %10s %10s %8s\n", "BER",
                "goodput MB/s", "retrans", "crcdrop", "nack", "timeout",
                "intact");
    for (std::size_t i = 0; i < kBers.size(); ++i) {
        const PointResult &r = report.results[kFirstBer + i];
        std::printf("%10.0e %12.1f %10.0f %10.0f %10.0f %10.0f %8s\n",
                    kBers[i], r.goodput, r.retransmits, r.crcDrops,
                    r.nacksSent, r.timeouts, r.intact ? "yes" : "NO");
        if (!r.intact)
            pm_panic("reliability bench: delivery contract violated at "
                     "BER %g",
                     kBers[i]);
    }

    // ---- BENCH_reliability.json for the CI artifact. ----
    FILE *json = std::fopen("BENCH_reliability.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "ext_reliability: cannot write "
                             "BENCH_reliability.json\n");
        return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"anchors\": {\n"
                 "    \"fig9_latency_us\": %.3f,\n"
                 "    \"fig11_unidir_mbps\": %.1f\n"
                 "  },\n"
                 "  \"ber_sweep\": [\n",
                 plain.lat, plain.bw);
    for (std::size_t i = 0; i < kBers.size(); ++i) {
        const PointResult &r = report.results[kFirstBer + i];
        std::fprintf(json,
                     "    {\"ber\": %.1e, \"goodput_mbps\": %.1f, "
                     "\"retransmits\": %.0f, \"crc_drops\": %.0f, "
                     "\"nacks\": %.0f, \"timeouts\": %.0f}%s\n",
                     kBers[i], r.goodput, r.retransmits, r.crcDrops,
                     r.nacksSent, r.timeouts,
                     i + 1 < kBers.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_reliability.json\n");
    return 0;
}
