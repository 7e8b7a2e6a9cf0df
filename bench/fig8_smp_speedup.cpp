/**
 * @file
 * Figure 8: dual-processor MatMult speedup (naive and transposed) on
 * the three nodes.
 *
 * Paper shape to reproduce:
 *  - PowerMANNA: speedup "exactly doubles" (~2.0) — split transactions
 *    plus the point-to-point ADSP data paths leave no memory-access
 *    contention;
 *  - SUN: ~1.9 (about 5% loss) for nontrivial matrices;
 *  - Pentium PC: ~1.7 naive / ~1.6 transposed (15/20% loss) — the
 *    circuit-switched front-side bus serializes whole transactions.
 *
 * Each (version, size, machine) speedup is one pm::sim::sweep point
 * with a node of its own; `--jobs N` runs the points on N threads,
 * and the tables print after the join, byte-identically.
 */

#include <cstdio>
#include <vector>

#include "machines/machines.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"
#include "workloads/runner.hh"

namespace {

constexpr unsigned kSampledRows = 24;

const std::vector<unsigned> kSizes{64, 128, 256, 384, 512};

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);
    using namespace pm;

    const std::vector<node::NodeParams> configs{machines::powerManna(),
                                                machines::sunUltra1(),
                                                machines::pentiumPc180()};
    const std::vector<bool> versions{false, true}; // naive, transposed

    // One point per (version, size, machine), in print order.
    struct Run
    {
        bool transposed;
        unsigned n;
        const node::NodeParams *cfg;
    };
    std::vector<Run> work;
    for (bool transposed : versions)
        for (unsigned n : kSizes)
            for (const auto &cfg : configs)
                work.push_back(Run{transposed, n, &cfg});
    const auto report = sim::sweep::map(
        work,
        [](const Run &r, const sim::sweep::Point &) {
            node::Node node(*r.cfg);
            auto r1 = workloads::runMatMult(node, r.n, r.transposed, 1,
                                            kSampledRows);
            auto r2 = workloads::runMatMult(node, r.n, r.transposed, 2,
                                            kSampledRows,
                                            /*independentCopies=*/true);
            // Both processors run a full MatMult each (the paper's
            // protocol): throughput speedup is aggregate MFLOPS over
            // single-processor MFLOPS.
            return r1.mflops() != 0.0 ? r2.mflops() / r1.mflops() : 0.0;
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;

    std::size_t next = 0;
    for (bool transposed : versions) {
        std::printf("\n== Figure 8%s: dual-processor speedup, MatMult %s "
                    "==\n",
                    transposed ? "b" : "a",
                    transposed ? "transposed" : "naive");
        std::printf("%8s", "n");
        for (const auto &c : configs)
            std::printf(" %14s", c.name.c_str());
        std::printf("\n");

        for (unsigned n : kSizes) {
            std::printf("%8u", n);
            for (std::size_t m = 0; m < configs.size(); ++m)
                std::printf(" %14.2f", report.results[next++]);
            std::printf("\n");
        }
    }
    return 0;
}
