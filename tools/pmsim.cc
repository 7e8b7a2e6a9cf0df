/**
 * @file
 * pmsim — command-line front end to the PowerMANNA simulator.
 *
 * Build any of the Table 1 machines, run a node workload or a
 * communication measurement, and dump statistics, without writing
 * C++:
 *
 *   pmsim info --machine powermanna
 *   pmsim node --machine pc180 --workload matmult --n 256 \
 *              --transposed --cpus 2 --stats
 *   pmsim node --machine powermanna --workload hint --type int
 *   pmsim comm --nodes 8 --clusters 2 --op latency --bytes 8
 *   pmsim comm --op bibw --bytes 65536 --count 16
 *
 * A comm measurement can sweep one axis across a range, optionally
 * fanned out over worker threads (one fully isolated System per
 * point; results are byte-identical for any --jobs value):
 *
 *   pmsim comm --op latency --sweep bytes=8:256:*2
 *   pmsim comm --op soak --count 256 --fault-ber 1e-6 \
 *              --sweep bytes=64:512:64 --jobs 4
 *
 * Every subcommand reads its flags through cli::tokenize and the
 * strict cli::Fields lookups (comm through cli::JobSpec), so an
 * unknown flag or a malformed value is a usage error (exit 2) on all
 * of them. SIGINT drains gracefully: in-flight points run to
 * wire-quiescence, completed rows (and --stats) are printed, and
 * pmsim exits 130.
 */

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/jobspec.hh"
#include "machines/machines.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"
#include "workloads/runner.hh"

namespace {

using namespace pm;

/**
 * SIGINT latch. First ^C requests a graceful drain (workers stop
 * claiming sweep points; points in flight drain to quiescence);
 * second ^C aborts immediately for the user who meant it.
 */
std::atomic<bool> gInterrupted{false};

extern "C" void
onSigint(int)
{
    if (gInterrupted.exchange(true))
        _exit(130);
}

void
installSigint()
{
    struct sigaction sa = {};
    sa.sa_handler = onSigint;
    sigaction(SIGINT, &sa, nullptr);
}

void usage();

/** Report a usage error in `cmd` and return the usage exit code. */
int
usageError(const char *cmd, const std::string &err)
{
    std::fprintf(stderr, "pmsim %s: %s\n", cmd, err.c_str());
    usage();
    return 2;
}

int
cmdInfo(const std::vector<std::string> &tokens)
{
    static const std::set<std::string> known = {"machine"};
    cli::FlagMap kv;
    std::string err;
    const cli::Fields f{kv, err};
    std::string machine;
    if (!cli::tokenize(tokens, known, kv, err) || !f.machine(machine))
        return usageError("info", err);
    std::printf("%s\n",
                machines::describe(machines::byName(machine)).c_str());
    return 0;
}

int
cmdNode(const std::vector<std::string> &tokens)
{
    static const std::set<std::string> known = {
        "machine", "workload", "n", "transposed", "cpus", "rows",
        "independent", "type", "minlog2", "maxlog2", "stats"};
    cli::FlagMap kv;
    std::string err;
    const cli::Fields f{kv, err};
    std::string machine;
    unsigned cpus = 1;
    unsigned n = 256;
    unsigned rows = 24;
    workloads::HintParams hp;
    hp.minLog2m = 9;
    hp.maxLog2m = 18;
    if (!cli::tokenize(tokens, known, kv, err) || !f.machine(machine) ||
        !f.num("cpus", cpus) || !f.num("n", n) || !f.num("rows", rows) ||
        !f.num("minlog2", hp.minLog2m) || !f.num("maxlog2", hp.maxLog2m))
        return usageError("node", err);
    const std::string workload = f.str("workload", "matmult");
    if (workload != "matmult" && workload != "hint")
        return usageError("node", "unknown workload '" + workload +
                                      "' (matmult|hint)");
    const std::string type = f.str("type", "double");
    if (type != "double" && type != "int")
        return usageError("node", "--type expects double or int, got '" +
                                      type + "'");
    // Range checks the workloads would otherwise pm_fatal on.
    if (cpus == 0)
        return usageError("node", "--cpus must be at least 1");
    if (n == 0)
        return usageError("node", "--n must be at least 1");
    if (hp.minLog2m == 0 || hp.minLog2m > hp.maxLog2m ||
        hp.maxLog2m > workloads::kHintMaxLog2m)
        return usageError(
            "node", "--minlog2 " + std::to_string(hp.minLog2m) +
                        " --maxlog2 " + std::to_string(hp.maxLog2m) +
                        ": HINT needs 1 <= minlog2 <= maxlog2 <= " +
                        std::to_string(workloads::kHintMaxLog2m));
    hp.type = type == "int" ? workloads::HintType::Int
                            : workloads::HintType::Double;

    node::NodeParams cfg = machines::byName(machine);
    if (cpus > cfg.numCpus)
        cfg.numCpus = cpus;
    node::Node node(cfg);

    if (workload == "matmult") {
        const bool transposed = f.has("transposed");
        const bool independent = f.has("independent");
        auto r = workloads::runMatMult(node, n, transposed, cpus, rows,
                                       independent);
        std::printf("matmult %s n=%u cpus=%u%s: %.1f MFLOPS "
                    "(%.1f us simulated)\n",
                    transposed ? "transposed" : "naive", n, cpus,
                    independent ? " independent" : "", r.mflops(),
                    ticksToUs(r.elapsed));
    } else {
        auto pts = workloads::runHint(node, hp);
        std::printf("%12s %12s %12s\n", "wset", "QUIPS(M)", "us");
        for (const auto &p : pts)
            std::printf("%10lluKB %12.2f %12.1f\n",
                        (unsigned long long)(p.workingSetBytes / 1024),
                        p.quips() / 1e6, ticksToUs(p.elapsed));
    }

    if (f.has("stats")) {
        std::ostringstream os;
        node.stats().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    return 0;
}

int
cmdComm(const std::vector<std::string> &tokens)
{
    cli::JobSpec spec;
    std::string err;
    if (!cli::JobSpec::parse(tokens, spec, err))
        return usageError("comm", err);

    installSigint();

    if (!spec.haveSweep) {
        // One point on the calling thread; a panic (a watchdog trip)
        // aborts with its dump.
        const std::string row = cli::runPoint(spec);
        std::fputs(row.c_str(), stdout);
        return gInterrupted.load() ? 130 : 0;
    }

    cli::JobSpec base = spec;
    base.haveSweep = false;
    base.sweep = sim::parse::AxisSpec{};

    sim::sweep::Options opt;
    opt.jobs = spec.jobs;
    opt.seed = spec.faultSeed;
    opt.cancel = &gInterrupted;
    const auto report = sim::sweep::map(
        spec.sweep.values,
        [&base, &spec](double v, const sim::sweep::Point &) {
            // The user's fault seed is kept per point, so every sweep
            // row is byte-identical to the same single-point run.
            cli::JobSpec cfg = base;
            cfg.applyAxisValue(spec.sweep.axis, v);
            return cli::runPoint(cfg);
        },
        opt);

    std::size_t nextFail = 0;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        if (nextFail < report.failures.size() &&
            report.failures[nextFail].index == i) {
            ++nextFail; // reported on stderr below; keep stdout rows
            continue;
        }
        if (!report.completed[i])
            continue; // cancelled before it started
        std::printf("[%s] %s", spec.pointLabel(i).c_str(),
                    report.results[i].c_str());
    }
    if (!report.ok()) {
        const auto &f = report.firstFailure();
        std::fprintf(stderr, "sweep point %zu (%s) failed:\n%s\n%s",
                     f.index, spec.pointLabel(f.index).c_str(),
                     f.message.c_str(), f.dump.c_str());
    }
    if (gInterrupted.load()) {
        std::fprintf(stderr,
                     "interrupted: %zu/%zu points completed "
                     "(in-flight points drained to quiescence)\n",
                     report.completedCount(), spec.numPoints());
        return 130;
    }
    return report.ok() ? 0 : 1;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: pmsim <info|node|comm> [--key value ...]\n"
                 "  info --machine M\n"
                 "  node --machine M --workload matmult|hint [--n N]\n"
                 "       [--transposed] [--cpus C] [--rows R]\n"
                 "       [--independent] [--type double|int]\n"
                 "       [--minlog2 L] [--maxlog2 H] [--stats]\n"
                 "         (HINT sizes 2^L..2^H, 1 <= L <= H <= %u)\n"
                 "  comm [--machine M] [--nodes N] [--clusters K]\n"
                 "       [--coherence mesi|msi]\n"
                 "       [--transport snoop|dir]  (dir: sparse-directory\n"
                 "         coherence; needs a split-transaction machine)\n"
                 "       [--node-cpus N]  (processors per node, 1..8)\n"
                 "       [--fifo W] --op latency|gap|unibw|bibw|soak\n"
                 "       [--bytes B] [--count C] [--src S] [--dst D]\n"
                 "       [--fault-ber P] [--fault-drop P]\n"
                 "       [--fault-seed S] [--fault-link-down FROM:TO]\n"
                 "       [--watchdog US] [--watchdog-deadline US]\n"
                 "       [--dump-file PATH] [--stats]\n"
                 "       [--sweep AXIS=LO:HI:STEP] [--jobs N]\n"
                 "         AXIS: bytes|count|nodes|clusters|fifo|ber;\n"
                 "         STEP: additive, or *F for a factor\n"
                 "       SIGINT drains in-flight points to quiescence,\n"
                 "       prints completed rows, exits 130\n"
                 "machines: powermanna sun pc180 pc266\n",
                 workloads::kHintMaxLog2m);
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const std::vector<std::string> tokens(argv + 2, argv + argc);
    if (cmd == "info")
        return cmdInfo(tokens);
    if (cmd == "node")
        return cmdNode(tokens);
    if (cmd == "comm")
        return cmdComm(tokens);
    usage();
    return 2;
}
