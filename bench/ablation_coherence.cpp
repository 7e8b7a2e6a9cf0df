/**
 * @file
 * Ablation: the memory-hierarchy policy matrix over the node design
 * study — 2/4/8 processors x {broadcast snoop, sparse directory} x
 * {MESI, MSI} (DESIGN.md §14).
 *
 * Two halves:
 *
 *  1. Anchor guard — the default configuration (2-way MESI/LRU node
 *     under broadcast snooping) must still reproduce the paper: Fig 9
 *     (2.746 us one-way latency at 8 B), Fig 11 (59.9 MB/s unidir at
 *     16 KB), Fig 12 (85.7 MB/s bidir at 64 KB), each within 1%. MSI
 *     and the directory sit beside the paper's node and must not move
 *     it; drift here is a bug, and the exit code says so.
 *
 *  2. The matrix — every node runs the same mixed workload (streaming
 *     misses + private read-modify-write + a read-shared block) on the
 *     "designed node" memory system of ablation_node_scaling, so the
 *     serialized snooped address phase is what binds at 8 processors.
 *     The paper names that serialization as the >4-processor limiter;
 *     the directory transport replaces it with banked lookups that
 *     probe true sharers only, and the MESI/MSI axis prices the E
 *     state (MSI pays a bus upgrade for every store to clean data).
 *
 * Results go to BENCH_coherence.json for the CI artifact. Exit is
 * nonzero if an anchor drifts, if the directory fails to reduce
 * coherence-phase occupancy at 4 and 8 processors, or if MSI fails to
 * pay more upgrades than MESI.
 *
 * Each matrix entry is one pm::sim::sweep point with a node of its
 * own; `--jobs N` runs the points on N threads, and the matrix prints
 * after the join, byte-identically.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cpu/sched.hh"
#include "cpu/workload.hh"
#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

namespace {

using namespace pm;

// ---- Anchor guard. --------------------------------------------------------

struct Anchors
{
    double latUs = 0.0;
    double uniMBps = 0.0;
    double biMBps = 0.0;
};

Anchors
measureAnchors()
{
    Anchors a;
    {
        msg::SystemParams sp;
        sp.node = machines::powerManna();
        sp.fabric = machines::powerMannaFabric(1, 2);
        msg::System sys(sp);
        a.latUs = msg::measureOneWayLatencyUs(sys, 0, 1, 8);
        a.uniMBps = msg::measureUnidirectionalMBps(sys, 0, 1, 16384);
    }
    {
        msg::SystemParams sp;
        sp.node = machines::powerManna();
        sp.fabric = machines::powerMannaFabric(1, 8);
        msg::System sys(sp);
        a.biMBps = msg::measureBidirectionalMBps(sys, 0, 1, 65536, 12);
    }
    return a;
}

// ---- The matrix workload. -------------------------------------------------

/**
 * The coherence mix, per 4 KB step: stream one block (capacity misses
 * that occupy the coherence phase), read-modify-write eight fresh
 * private lines (first store to clean data — silent under MESI's E,
 * a bus upgrade under MSI), and re-read one line of a block all
 * processors share (multi-sharer directory entries; harmless snoops).
 */
class CoherenceMix : public cpu::Workload
{
  public:
    CoherenceMix(Addr streamBase, Addr rmwBase, Addr sharedBase,
                 std::uint64_t streamBytes)
        : _streamBase(streamBase),
          _rmwBase(rmwBase),
          _sharedBase(sharedBase),
          _streamBytes(streamBytes)
    {}

    std::string name() const override { return "coherence_mix"; }

    bool
    step(cpu::Proc &proc) override
    {
        constexpr std::uint64_t kBlock = 4096;
        constexpr std::uint64_t kLine = 64;
        proc.loadSeq(_streamBase + _pos, kBlock);
        _bytes += kBlock;
        for (unsigned i = 0; i < 8; ++i) {
            proc.load(_rmwBase + _rmwPos);
            proc.store(_rmwBase + _rmwPos);
            _rmwPos += kLine;
            _bytes += kLine;
        }
        proc.load(_sharedBase + (_pos % kBlock));
        _bytes += kLine;
        proc.instr(kBlock / 8);
        _pos += kBlock;
        return _pos < _streamBytes;
    }

    std::uint64_t bytesDone() const { return _bytes; }

  private:
    Addr _streamBase;
    Addr _rmwBase;
    Addr _sharedBase;
    std::uint64_t _streamBytes;
    std::uint64_t _pos = 0;
    std::uint64_t _rmwPos = 0;
    std::uint64_t _bytes = 0;
};

struct MatrixPoint
{
    unsigned cpus = 0;
    mem::TransportKind transport = mem::TransportKind::Snoop;
    mem::CoherenceKind coherence = mem::CoherenceKind::Mesi;
    double mbps = 0.0;
    double addrOcc = 0.0; //!< Fraction of time the address phase was held.
    double dirOcc = 0.0; //!< Mean per-bank directory occupancy fraction.
    double upgrades = 0.0; //!< Bus ownership upgrades (MSI's E tax).
    double probes = 0.0;
    double targetedInvals = 0.0;

    /** Serialized coherence work: address phase or directory banks. */
    double cohOcc() const { return addrOcc + dirOcc; }
};

MatrixPoint
runPoint(unsigned cpus, mem::TransportKind transport,
         mem::CoherenceKind coherence)
{
    node::NodeParams cfg =
        machines::powerMannaAblation(cpus, coherence, transport);
    // The "designed node" of ablation_node_scaling: memory interleave
    // and data-path width scale with the processor count, so the
    // coherence phase — not DRAM — is what binds at 8 processors.
    cfg.dram.banks = 16;
    cfg.bus.dataWidthBytes = 32;

    node::Node node(cfg);
    node.reset();

    const std::uint64_t streamBytes = 2ull * 1024 * 1024;
    std::vector<std::unique_ptr<CoherenceMix>> works;
    std::vector<cpu::Job> jobs;
    for (unsigned c = 0; c < cpus; ++c) {
        // Disjoint stream and RMW regions per processor; one shared
        // read-only block for all of them.
        works.push_back(std::make_unique<CoherenceMix>(
            0x1000'0000 + Addr(c) * 0x0084'3000,
            0x4000'0000 + Addr(c) * 0x0010'1000, 0x7000'0000,
            streamBytes));
        jobs.push_back(cpu::Job{&node.proc(c), works.back().get()});
    }
    cpu::runJobs(jobs);

    MatrixPoint pt;
    pt.cpus = cpus;
    pt.transport = transport;
    pt.coherence = coherence;
    Tick elapsed = 0;
    std::uint64_t bytes = 0;
    for (unsigned c = 0; c < cpus; ++c) {
        elapsed = std::max(elapsed, node.proc(c).time());
        bytes += works[c]->bytesDone();
        pt.upgrades += node.proc(c).busUpgrades.value();
    }
    pt.mbps = static_cast<double>(bytes) / ticksToUs(elapsed);
    const double span = static_cast<double>(elapsed);
    pt.addrOcc = node.bus().addrBusyTicks.value() / span;
    pt.dirOcc = node.bus().dirBusyTicks.value() /
                (span * cfg.bus.dirBanks);
    pt.probes = node.bus().snoopProbes.value();
    pt.targetedInvals = node.bus().targetedInvals.value();
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);
    using namespace pm;

    // ---- Anchors on the default policies. ----
    std::printf("== ablation_coherence: anchor guard (default MESI/LRU/"
                "snoop) ==\n");
    const Anchors a = measureAnchors();
    std::printf("  fig9 %.3f us, fig11 %.1f MB/s, fig12 %.1f MB/s\n",
                a.latUs, a.uniMBps, a.biMBps);
    const auto off = [](double v, double paper) {
        return v < paper * 0.99 || v > paper * 1.01;
    };
    if (off(a.latUs, 2.746) || off(a.uniMBps, 59.9) ||
        off(a.biMBps, 85.7)) {
        std::fprintf(stderr,
                     "ablation_coherence: anchors off the paper values "
                     "(2.746 / 59.9 / 85.7)\n");
        return 1;
    }

    // ---- The 2/4/8 x transport x protocol matrix. ----
    std::printf("\n== policy matrix: coherence mix on the designed "
                "node ==\n");
    std::printf("%5s %6s %5s %9s %9s %8s %9s %8s\n", "cpus", "transp",
                "proto", "MB/s", "addr occ", "dir occ", "upgrades",
                "probes");
    struct Config
    {
        unsigned cpus;
        mem::TransportKind transport;
        mem::CoherenceKind coherence;
    };
    std::vector<Config> work;
    for (const unsigned cpus : {2u, 4u, 8u})
        for (const mem::TransportKind tr :
             {mem::TransportKind::Snoop, mem::TransportKind::Directory})
            for (const mem::CoherenceKind coh :
                 {mem::CoherenceKind::Mesi, mem::CoherenceKind::Msi})
                work.push_back(Config{cpus, tr, coh});
    const auto report = sim::sweep::map(
        work,
        [](const Config &c, const sim::sweep::Point &) {
            return runPoint(c.cpus, c.transport, c.coherence);
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;
    const std::vector<MatrixPoint> &points = report.results;
    for (const MatrixPoint &p : points)
        std::printf("%5u %6s %5s %9.0f %8.0f%% %7.0f%% %9.0f %8.0f\n",
                    p.cpus, mem::transportName(p.transport),
                    mem::coherenceName(p.coherence), p.mbps,
                    100.0 * p.addrOcc, 100.0 * p.dirOcc, p.upgrades,
                    p.probes);

    // ---- The claims the matrix must support. ----
    const auto find = [&points](unsigned cpus, mem::TransportKind tr,
                                mem::CoherenceKind coh) {
        for (const MatrixPoint &p : points)
            if (p.cpus == cpus && p.transport == tr &&
                p.coherence == coh)
                return p;
        pm_fatal("ablation_coherence: matrix point missing");
    };
    int rc = 0;
    for (const unsigned cpus : {4u, 8u}) {
        const MatrixPoint snoop =
            find(cpus, mem::TransportKind::Snoop,
                 mem::CoherenceKind::Mesi);
        const MatrixPoint dir = find(
            cpus, mem::TransportKind::Directory, mem::CoherenceKind::Mesi);
        if (dir.cohOcc() >= snoop.cohOcc()) {
            std::fprintf(stderr,
                         "ablation_coherence: directory did not reduce "
                         "coherence occupancy at %u cpus (%.2f vs "
                         "%.2f)\n",
                         cpus, dir.cohOcc(), snoop.cohOcc());
            rc = 1;
        }
    }
    const MatrixPoint mesi2 = find(2, mem::TransportKind::Snoop,
                                   mem::CoherenceKind::Mesi);
    const MatrixPoint msi2 =
        find(2, mem::TransportKind::Snoop, mem::CoherenceKind::Msi);
    if (msi2.upgrades <= mesi2.upgrades) {
        std::fprintf(stderr,
                     "ablation_coherence: MSI did not pay for the "
                     "missing E state (upgrades %.0f vs %.0f)\n",
                     msi2.upgrades, mesi2.upgrades);
        rc = 1;
    }
    std::printf("\npaper check: the snooped address phase saturates "
                "toward 8 CPUs ('the sequentialization of the address "
                "phases'); the sparse directory's banked targeted "
                "probes keep coherence occupancy low, and MSI pays a "
                "bus upgrade for every store MESI's E state made "
                "silent\n");

    // ---- BENCH_coherence.json for the CI artifact. ----
    FILE *json = std::fopen("BENCH_coherence.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "ablation_coherence: cannot write "
                             "BENCH_coherence.json\n");
        return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"anchors\": {\n"
                 "    \"fig9_latency_us\": %.3f,\n"
                 "    \"fig11_unidir_mbps\": %.1f,\n"
                 "    \"fig12_bidir_mbps\": %.1f\n"
                 "  },\n"
                 "  \"matrix\": [\n",
                 a.latUs, a.uniMBps, a.biMBps);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const MatrixPoint &p = points[i];
        std::fprintf(json,
                     "    {\"cpus\": %u, \"transport\": \"%s\", "
                     "\"coherence\": \"%s\", \"mbps\": %.1f, "
                     "\"addr_occupancy\": %.4f, "
                     "\"dir_occupancy\": %.4f, \"bus_upgrades\": %.0f, "
                     "\"snoop_probes\": %.0f, "
                     "\"targeted_invals\": %.0f}%s\n",
                     p.cpus, mem::transportName(p.transport),
                     mem::coherenceName(p.coherence), p.mbps, p.addrOcc,
                     p.dirOcc, p.upgrades, p.probes, p.targetedInvals,
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("  wrote BENCH_coherence.json\n");
    return rc;
}
