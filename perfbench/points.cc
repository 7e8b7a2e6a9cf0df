/**
 * @file
 * Seeded point lists. Every list is stratified: the seed draws values
 * inside fixed strata (cache-relative working sets, message-size
 * octaves, offered-load bands), only from the middle fifth of each,
 * and in pairs at u and 1-u. It also draws the per-point streams
 * (access mixes, payloads, faults, traffic), node pairs and HINT's
 * base address. So each seed gives different points, while the list's
 * total work — and with it the host time the benchmark measures —
 * stays nearly the same from seed to seed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.hh"
#include "machines/machines.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"

namespace pmbench {

namespace {

using pm::sim::SplitMix64;

constexpr std::pair<Workload, const char *> kWorkloads[] = {
    {Workload::NodeKernels, "node_kernels"},
    {Workload::SmpSharing, "smp_sharing"},
    {Workload::CommProbes, "comm_probes"},
    {Workload::FabricUniform, "fabric_uniform"},
};

/** MatMult rows of C simulated per run (the figures use 24). */
constexpr unsigned kMatMultRows = 2;

/** Total memory operations of one sharing point, split over its CPUs. */
constexpr unsigned kSharingOps = 16 * 1024;

/** Share of each stratum, around its middle, that the seed draws from. */
constexpr double kDrawWidth = 0.2;

/** A seeded position in [0, 1], inside the middle of the stratum. */
double
draw(SplitMix64 &rng)
{
    return 0.5 + (rng.uniform() - 0.5) * kDrawWidth;
}

/** The value at log-uniform position u of [lo, hi]. */
double
logUniform(double lo, double hi, double u)
{
    return lo * std::pow(hi / lo, u);
}

/** The value at position u of [lo, hi]. */
double
linear(double lo, double hi, double u)
{
    return lo + (hi - lo) * u;
}

unsigned
roundTo(double v)
{
    return static_cast<unsigned>(std::lround(v));
}

/** log2 of a power of two. */
unsigned
log2Of(std::uint64_t v)
{
    unsigned k = 0;
    while ((2ull << k) <= v)
        ++k;
    return k;
}

void
nodeKernels(SplitMix64 &rng, std::vector<PointSpec> &out)
{
    const char *machineNames[] = {"powermanna", "sun", "pc180"};
    for (const Kind kind : {Kind::HintDouble, Kind::HintInt,
                            Kind::MatMultNaive, Kind::MatMultTransposed}) {
        const bool hint = kind == Kind::HintDouble || kind == Kind::HintInt;
        for (const char *name : machineNames) {
            const pm::node::NodeParams np = pm::machines::byName(name);
            const double l1 = np.l1.sizeBytes;
            const double l2 = np.l2.sizeBytes;
            // Working-set strata relative to this machine's caches:
            // L1-resident, small and quarter-L2, L2-sized, L2-thrashing.
            const std::pair<double, double> strata[] = {
                {l1 / 4, l1 / 2}, {2 * l1, 4 * l1}, {l2 / 4, l2 / 2},
                {l2 / 2, l2}, {l2, 2 * l2}};
            for (const auto &[lo, hi] : strata) {
                // One draw per stratum serves the 1-CPU point at u and
                // the 2-CPU point at 1-u.
                const double u = draw(rng);
                for (const unsigned cpus : {1u, 2u}) {
                    const double at = cpus == 1 ? u : 1.0 - u;
                    PointSpec p;
                    p.kind = kind;
                    p.machine = name;
                    p.cpus = cpus;
                    if (hint) {
                        // 32-byte records, so log2(m) of a power-of-two
                        // working set: the stratum's top on one CPU,
                        // its bottom on each of two, the same records
                        // either way. The seed moves the base address.
                        const double ws = cpus == 1 ? hi : lo;
                        p.size = log2Of(static_cast<std::uint64_t>(
                            ws / 32));
                        p.seed = rng.below(256);
                    } else {
                        // Three n x n double matrices: 24 n^2 bytes.
                        const double ws = logUniform(lo, hi, at);
                        p.size = std::max(8u, roundTo(std::sqrt(ws / 24)));
                        p.count = kMatMultRows;
                    }
                    out.push_back(p);
                }
            }
        }
    }
}

void
smpSharing(SplitMix64 &rng, std::vector<PointSpec> &out)
{
    // Private working set per CPU: L1-resident, L2-resident, and
    // beyond the 2 MB L2. Write-shared share: light to heavy. Both
    // are drawn linearly, as the cost of a point is about linear in
    // each inside its band.
    const std::pair<double, double> privateKB[] = {
        {8, 24}, {256, 768}, {4096, 6144}};
    const std::pair<double, double> writeShare[] = {
        {0.01, 0.04}, {0.04, 0.1}, {0.1, 0.25}};
    for (const unsigned cpus : {2u, 4u, 8u}) {
        for (const auto transport :
             {pm::mem::TransportKind::Snoop,
              pm::mem::TransportKind::Directory}) {
            for (const auto &[plo, phi] : privateKB) {
                for (const auto &[wlo, whi] : writeShare) {
                    const double u = draw(rng);
                    const double v = draw(rng);
                    for (const bool mirror : {false, true}) {
                        PointSpec p;
                        p.kind = Kind::Sharing;
                        p.cpus = cpus;
                        p.transport = transport;
                        p.count = kSharingOps / cpus;
                        p.privateKB =
                            linear(plo, phi, mirror ? 1.0 - u : u);
                        p.writeShare =
                            linear(wlo, whi, mirror ? 1.0 - v : v);
                        p.seed = rng.next();
                        out.push_back(p);
                    }
                }
            }
        }
    }
}

void
commProbes(SplitMix64 &rng, std::vector<PointSpec> &out)
{
    // The three paper anchors run in every pass, on the figures' own
    // 8-node machine and message counts.
    {
        PointSpec p;
        p.kind = Kind::Latency;
        p.size = 8;
        p.count = 8;
        p.dst = 1;
        p.anchor = "fig9";
        out.push_back(p);
        p.kind = Kind::Unidir;
        p.size = 16384;
        p.count = 12;
        p.anchor = "fig11";
        out.push_back(p);
        p.kind = Kind::Bidir;
        p.size = 65536;
        p.anchor = "fig12";
        out.push_back(p);
    }
    const auto pickPair = [&rng](PointSpec &p) {
        p.src = static_cast<unsigned>(rng.below(8));
        p.dst = (p.src + 1 + static_cast<unsigned>(rng.below(7))) % 8;
    };
    // Probe sizes log-uniform from 4 B to 64 KB, one pair per octave.
    for (const Kind kind :
         {Kind::Latency, Kind::Gap, Kind::Unidir, Kind::Bidir}) {
        for (unsigned k = 2; k < 16; ++k) {
            const double u = draw(rng);
            for (const bool mirror : {false, true}) {
                PointSpec p;
                p.kind = kind;
                p.size = roundTo(logUniform(1u << k, 2u << k,
                                            mirror ? 1.0 - u : u));
                // Fewer messages as they grow keeps one point's work
                // bounded; the figures' own counts are 8 and 32/12.
                const unsigned budget =
                    (kind == Kind::Latency ? 1u << 14 : 1u << 15) / p.size;
                p.count = kind == Kind::Latency
                              ? std::clamp(budget, 2u, 8u)
                              : std::clamp(budget, 4u, 32u);
                pickPair(p);
                out.push_back(p);
            }
        }
    }
    // Reliable-delivery soaks: fault-free, then at a low bit-error rate.
    for (const bool faulty : {false, true}) {
        for (unsigned i = 0; i < 4; ++i) {
            const double u = draw(rng);
            const double v = draw(rng);
            for (const bool mirror : {false, true}) {
                PointSpec p;
                p.kind = Kind::Soak;
                p.size = roundTo(logUniform(64, 1024, mirror ? 1.0 - u : u));
                p.count = 32;
                p.ber = faulty ? logUniform(1e-6, 1e-5, mirror ? 1.0 - v : v)
                               : 0.0;
                p.seed = rng.next();
                pickPair(p);
                out.push_back(p);
            }
        }
    }
}

void
fabricUniform(SplitMix64 &rng, std::vector<PointSpec> &out)
{
    // Offered load per node on both sides of the ~28 MB/s knee.
    const std::pair<double, double> bands[] = {
        {4, 12}, {12, 20}, {20, 28}, {28, 38}, {38, 56}};
    for (const unsigned clusters : {1u, 2u}) {
        for (const auto &[lo, hi] : bands) {
            for (unsigned i = 0; i < 5; ++i) {
                const double u = draw(rng);
                for (const bool mirror : {false, true}) {
                    PointSpec p;
                    p.kind = Kind::Uniform;
                    p.clusters = clusters;
                    p.offeredMBps = linear(lo, hi, mirror ? 1.0 - u : u);
                    p.seed = rng.next();
                    out.push_back(p);
                }
            }
        }
    }
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::HintDouble: return "hint_double";
      case Kind::HintInt: return "hint_int";
      case Kind::MatMultNaive: return "matmult_naive";
      case Kind::MatMultTransposed: return "matmult_transposed";
      case Kind::Sharing: return "sharing";
      case Kind::Latency: return "latency";
      case Kind::Gap: return "gap";
      case Kind::Unidir: return "unidir";
      case Kind::Bidir: return "bidir";
      case Kind::Soak: return "soak";
      case Kind::Uniform: return "uniform";
    }
    return "?";
}

} // namespace

const char *
workloadName(Workload w)
{
    for (const auto &[wl, name] : kWorkloads)
        if (wl == w)
            return name;
    return "?";
}

std::optional<Workload>
workloadByName(std::string_view name)
{
    for (const auto &[wl, n] : kWorkloads)
        if (name == n)
            return wl;
    return std::nullopt;
}

std::string
PointSpec::describe() const
{
    char buf[256];
    switch (kind) {
      case Kind::HintDouble:
      case Kind::HintInt:
        std::snprintf(buf, sizeof(buf),
                      "%s machine=%s cpus=%u log2m=%u base_page=%llu",
                      kindName(kind), machine.c_str(), cpus, size,
                      static_cast<unsigned long long>(seed));
        break;
      case Kind::MatMultNaive:
      case Kind::MatMultTransposed:
        std::snprintf(buf, sizeof(buf),
                      "%s machine=%s cpus=%u n=%u rows=%u", kindName(kind),
                      machine.c_str(), cpus, size, count);
        break;
      case Kind::Sharing:
        std::snprintf(buf, sizeof(buf),
                      "sharing cpus=%u transport=%s private_kb=%.6g "
                      "write_share=%.6g ops_per_cpu=%u seed=%016llx",
                      cpus, pm::mem::transportName(transport), privateKB,
                      writeShare, count,
                      static_cast<unsigned long long>(seed));
        break;
      case Kind::Latency:
      case Kind::Gap:
      case Kind::Unidir:
      case Kind::Bidir:
        std::snprintf(buf, sizeof(buf), "%s bytes=%u count=%u src=%u "
                      "dst=%u%s%s",
                      kindName(kind), size, count, src, dst,
                      anchor ? " anchor=" : "", anchor ? anchor : "");
        break;
      case Kind::Soak:
        std::snprintf(buf, sizeof(buf),
                      "soak bytes=%u count=%u src=%u dst=%u ber=%.6g "
                      "seed=%016llx",
                      size, count, src, dst, ber,
                      static_cast<unsigned long long>(seed));
        break;
      case Kind::Uniform:
        std::snprintf(buf, sizeof(buf),
                      "uniform clusters=%u offered_mbps=%.6g seed=%016llx",
                      clusters, offeredMBps,
                      static_cast<unsigned long long>(seed));
        break;
    }
    return buf;
}

std::vector<PointSpec>
makePoints(Workload w, std::uint64_t seed)
{
    SplitMix64 rng(
        pm::sim::sweep::pointSeed(seed, static_cast<std::size_t>(w)));
    std::vector<PointSpec> out;
    switch (w) {
      case Workload::NodeKernels: nodeKernels(rng, out); break;
      case Workload::SmpSharing: smpSharing(rng, out); break;
      case Workload::CommProbes: commProbes(rng, out); break;
      case Workload::FabricUniform: fabricUniform(rng, out); break;
    }
    return out;
}

} // namespace pmbench
