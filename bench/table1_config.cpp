/**
 * @file
 * Table 1: configuration of the three test systems, printed from the
 * machine models actually used by every other bench — so the table is
 * generated from the same single source of truth as the experiments.
 */

#include <cstdio>

#include "machines/machines.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

int
main(int argc, char **argv)
{
    // Nothing to fan out; parsed so a stray argument is still an error.
    (void)pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);
    using namespace pm;

    const auto configs = machines::allNodeConfigs();

    std::printf("== Table 1: configuration of test systems ==\n");
    std::printf("%-18s", "System Type");
    for (const auto &c : configs)
        std::printf(" %14s", c.name.c_str());
    std::printf("\n");

    auto row = [&](const char *label, auto field) {
        std::printf("%-18s", label);
        for (const auto &c : configs)
            std::printf(" %14s", field(c).c_str());
        std::printf("\n");
    };

    auto fmt = [](const char *f, auto... v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), f, v...);
        return std::string(buf);
    };

    row("Processor Type", [&](const node::NodeParams &c) {
        return c.cpu.name;
    });
    row("Processor Clock", [&](const node::NodeParams &c) {
        return fmt("%.0f MHz", c.cpu.clockMhz);
    });
    row("Bus Clock", [&](const node::NodeParams &c) {
        return fmt("%.0f MHz", c.bus.clockMhz);
    });
    row("Processors", [&](const node::NodeParams &c) {
        return fmt("%u", c.numCpus);
    });
    row("Primary Cache", [&](const node::NodeParams &c) {
        return fmt("%u Kbyte", c.l1.sizeBytes / 1024);
    });
    row("Secondary Cache", [&](const node::NodeParams &c) {
        return fmt("%u Kbyte", c.l2.sizeBytes / 1024);
    });
    row("Cache line", [&](const node::NodeParams &c) {
        return fmt("%u byte", c.l1.lineSize);
    });
    row("Memory bandwidth", [&](const node::NodeParams &c) {
        return fmt("%.0f MB/s", c.dram.aggregateMBps());
    });
    row("Split transact.", [&](const node::NodeParams &c) {
        return std::string(c.bus.splitTransactions ? "yes" : "no");
    });
    row("P2P data paths", [&](const node::NodeParams &c) {
        return std::string(c.bus.pointToPointData ? "yes" : "no");
    });

    std::printf("\n");
    for (const auto &c : configs)
        std::printf("%s\n", machines::describe(c).c_str());
    return 0;
}
