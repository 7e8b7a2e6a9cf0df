/**
 * @file
 * Ablation/verification for the link-protocol claims of Section 3.2:
 * 60 MB/s per direction per link, 120 MB/s full duplex, and 240 MB/s
 * total node bandwidth when both links of the duplicated network are
 * used for application traffic (the paper's planned "future work"
 * driver, here driven by both processors of the SMP node — one per
 * link interface, which is exactly the configuration the two-way node
 * enables).
 *
 * The four configurations are pm::sim::sweep points with Systems of
 * their own; `--jobs N` runs them on N threads, byte-identically.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "sim/logging.hh"
#include "sweep_support.hh"

namespace {

using namespace pm;

/** Aggregate MB/s with `links` interfaces streaming a->b, one CPU per
 *  link. */
double
multiLinkStream(unsigned links, unsigned bytes, unsigned count,
                bool bidirectional)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    sp.fabric.networks = 2;
    msg::System sys(sp);
    sys.resetForRun();

    std::vector<std::unique_ptr<msg::PmComm>> ends;
    unsigned received = 0;
    unsigned expected = 0;
    const Tick start = sys.queue().now();

    for (unsigned l = 0; l < links; ++l) {
        ends.push_back(std::make_unique<msg::PmComm>(sys, 0, l, l));
        ends.push_back(std::make_unique<msg::PmComm>(sys, 1, l, l));
        msg::PmComm &a = *ends[ends.size() - 2];
        msg::PmComm &b = *ends[ends.size() - 1];
        auto payload = msg::makePayload(bytes, l);
        for (unsigned i = 0; i < count; ++i) {
            a.postSend(1, payload);
            b.postRecv([&](std::vector<std::uint64_t>, bool ok) {
                if (!ok)
                    pm_panic("CRC failure");
                ++received;
            });
            ++expected;
            if (bidirectional) {
                b.postSend(0, payload);
                a.postRecv([&](std::vector<std::uint64_t>, bool ok) {
                    if (!ok)
                        pm_panic("CRC failure");
                    ++received;
                });
                ++expected;
            }
        }
    }
    while (received < expected && sys.queue().step()) {
    }
    const double us = ticksToUs(sys.queue().now() - start);
    return double(bytes) * expected / us;
}

struct Config
{
    unsigned links;
    bool bidirectional;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pm::benchsup::options(argc, argv);
    pm::setInformEnabled(false);

    std::printf("== Ablation: link and duplicated-network bandwidth "
                "(Section 3.2) ==\n");
    constexpr unsigned kBytes = 65536;
    constexpr unsigned kCount = 8;

    const std::vector<Config> configs{
        {1, false}, {1, true}, {2, false}, {2, true}};
    const auto report = sim::sweep::map(
        configs,
        [](const Config &c, const sim::sweep::Point &) {
            return multiLinkStream(c.links, kBytes, kCount,
                                   c.bidirectional);
        },
        opt);
    if (const int rc = benchsup::checkFailures(report))
        return rc;

    const double oneUni = report.results[0];
    const double oneBi = report.results[1];
    const double twoUni = report.results[2];
    const double twoBi = report.results[3];

    std::printf("%-44s %10.1f MB/s (paper: 60)\n",
                "one link, one direction", oneUni);
    std::printf("%-44s %10.1f MB/s (paper limit: 120; Fig. 12 shows the "
                "FIFO loss)",
                "one link, full duplex (1 CPU drives both)", oneBi);
    std::printf("\n%-44s %10.1f MB/s (paper: 120)\n",
                "both links, one direction (2 CPUs)", twoUni);
    std::printf("%-44s %10.1f MB/s (paper: 240 wire capacity)\n",
                "both links, full duplex (2 CPUs)", twoBi);
    return 0;
}
