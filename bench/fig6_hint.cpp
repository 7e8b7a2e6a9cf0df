/**
 * @file
 * Figure 6: HINT QUIPS-over-time curves for data types DOUBLE and INT
 * on the four node configurations (PowerMANNA, SUN, PC at 180 MHz and
 * at 266 MHz).
 *
 * Paper shape to reproduce:
 *  - every curve rises while the working set sits in the caches, then
 *    steps down as L1 and later L2 are exhausted, memory access
 *    ultimately dominating;
 *  - DOUBLE: PowerMANNA slightly better than the reduced-clock PC in
 *    the cache region, the PC better in the memory region (load
 *    pipelining + less superfluous prefetch traffic);
 *  - INT: PowerMANNA and PC about equal, both above the SUN;
 *  - PowerMANNA/PC do better on INT than DOUBLE; the SUN is lower.
 *
 * Each (data type, machine) curve is one pm::sim::sweep point with a
 * node of its own; `--jobs N` runs the points on N threads, and the
 * tables print after the join, byte-identically.
 */

#include <cstdio>
#include <vector>

#include "machines/machines.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"
#include "workloads/runner.hh"

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);
    using namespace pm;
    using workloads::HintParams;
    using workloads::HintType;

    const auto configs = machines::allNodeConfigs();
    const std::vector<HintType> types{HintType::Double, HintType::Int};

    // One point per (type, machine), type-major.
    struct Curve
    {
        HintType type;
        const node::NodeParams *cfg;
    };
    std::vector<Curve> work;
    for (HintType type : types)
        for (const auto &cfg : configs)
            work.push_back(Curve{type, &cfg});
    const auto report = sim::sweep::map(
        work,
        [](const Curve &c, const sim::sweep::Point &) {
            node::Node node(*c.cfg);
            HintParams hp;
            hp.type = c.type;
            hp.minLog2m = 9;
            hp.maxLog2m = 20;
            return workloads::runHint(node, hp);
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;

    for (std::size_t t = 0; t < types.size(); ++t) {
        const bool dbl = types[t] == HintType::Double;
        std::printf("\n== Figure 6%s: HINT %s — QUIPS (millions) over "
                    "working set ==\n",
                    dbl ? "a" : "b", dbl ? "DOUBLE" : "INT");
        std::printf("%12s %10s", "wset", "m");
        for (const auto &c : configs)
            std::printf(" %12s", c.name.c_str());
        std::printf("\n");

        // This type's curves, one per machine, printed row-per-size.
        const std::vector<std::vector<workloads::HintPoint>> curves(
            report.results.begin() + t * configs.size(),
            report.results.begin() + (t + 1) * configs.size());

        for (std::size_t row = 0; row < curves[0].size(); ++row) {
            const auto &ref = curves[0][row];
            std::printf("%10lluKB %10llu",
                        (unsigned long long)(ref.workingSetBytes / 1024),
                        (unsigned long long)ref.subintervals);
            for (const auto &curve : curves)
                std::printf(" %12.2f", curve[row].quips() / 1e6);
            std::printf("\n");
        }

        std::printf("-- elapsed per size (us), for the time axis --\n");
        std::printf("%12s %10s", "wset", "m");
        for (const auto &c : configs)
            std::printf(" %12s", c.name.c_str());
        std::printf("\n");
        for (std::size_t row = 0; row < curves[0].size(); ++row) {
            const auto &ref = curves[0][row];
            std::printf("%10lluKB %10llu",
                        (unsigned long long)(ref.workingSetBytes / 1024),
                        (unsigned long long)ref.subintervals);
            for (const auto &curve : curves)
                std::printf(" %12.1f", ticksToUs(curve[row].elapsed));
            std::printf("\n");
        }
    }
    return 0;
}
