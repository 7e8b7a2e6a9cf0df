/**
 * @file
 * Figure 7: single-processor MatMult MFLOPS over matrix size, odd
 * strides — (a) naive version, (b) transposed version — for the
 * PowerMANNA node, the SUN ULTRA-I and the clocked-down Pentium II PC.
 *
 * Paper shape to reproduce:
 *  - transposed >> naive on every machine;
 *  - PowerMANNA clearly best in the transposed version (2 MB L2 and
 *    64-byte-line prefetch fully effective);
 *  - in the naive version PowerMANNA degrades most (factor ~2.5 at
 *    small sizes, ~6 at large sizes vs its own transposed run), the
 *    PC performing best at large sizes.
 *
 * Each (version, size, machine) run is one pm::sim::sweep point with
 * a node of its own; `--jobs N` runs the points on N threads, and the
 * tables print after the join, byte-identically.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "machines/machines.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"
#include "workloads/runner.hh"

namespace {

constexpr unsigned kSampledRows = 24;

const std::vector<unsigned> kSizes{48, 64, 96, 128, 192, 256, 384, 512, 768};

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
            return workloads::runMatMult(node, r.n, r.transposed, 1,
                                         kSampledRows)
                .mflops();
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;
    const auto mflops = [&](std::size_t version, std::size_t size,
                            std::size_t machine) {
        return report.results[(version * kSizes.size() + size) *
                                  configs.size() +
                              machine];
    };

    for (std::size_t v = 0; v < versions.size(); ++v) {
        const bool transposed = versions[v];
        std::printf("\n== Figure 7%s: MatMult %s version, 1 CPU, MFLOPS "
                    "==\n",
                    transposed ? "b" : "a",
                    transposed ? "transposed" : "naive");
        std::printf("%8s", "n");
        for (const auto &c : configs)
            std::printf(" %14s", c.name.c_str());
        std::printf("\n");

        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            std::printf("%8u", kSizes[i]);
            for (std::size_t m = 0; m < configs.size(); ++m)
                std::printf(" %14.1f", mflops(v, i, m));
            std::printf("\n");
        }
    }

    std::printf("\npaper check: naive/transposed ratio for PowerMANNA "
                "(expect ~2.5 small, ~6 large)\n");
    for (unsigned n : {64u, 768u}) {
        const auto i = static_cast<std::size_t>(
            std::find(kSizes.begin(), kSizes.end(), n) - kSizes.begin());
        std::printf("  n=%4u  ratio=%.2f\n", n,
                    mflops(1, i, 0) / mflops(0, i, 0));
    }
    return 0;
}
