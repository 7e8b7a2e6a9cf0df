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
 * The comm flags are parsed by svc::JobSpec — the same specification
 * the pmsimd service accepts over its socket — so a job means exactly
 * the same thing typed here or submitted there. SIGINT drains
 * gracefully: in-flight points run to wire-quiescence, completed rows
 * (and --stats) are printed, and pmsim exits 130.
 */

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "machines/machines.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/sweep.hh"
#include "svc/jobspec.hh"
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

/** Minimal --key value / --key=value / --flag argument parser. */
class Args
{
  public:
    Args(int argc, char **argv, int from)
    {
        for (int i = from; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                pm_fatal("unexpected argument '%s'", argv[i]);
            key = key.substr(2);
            const auto eq = key.find('=');
            if (eq != std::string::npos) {
                _kv[key.substr(0, eq)] = key.substr(eq + 1);
            } else if (i + 1 < argc &&
                       std::strncmp(argv[i + 1], "--", 2) != 0) {
                _kv[key] = argv[++i];
            } else {
                _kv[key] = "";
            }
        }
    }

    bool has(const std::string &k) const { return _kv.count(k) > 0; }

    std::string
    str(const std::string &k, const std::string &dflt) const
    {
        auto it = _kv.find(k);
        return it == _kv.end() ? dflt : it->second;
    }

    // Numeric lookups parse strictly: `--jobs garbage` or
    // `--bytes 64k` is a usage error naming the flag, never a silent
    // 0 or truncated prefix.

    unsigned
    num(const std::string &k, unsigned dflt) const
    {
        auto it = _kv.find(k);
        if (it == _kv.end())
            return dflt;
        unsigned v = 0;
        if (!sim::parse::u32(it->second.c_str(), v))
            pm_fatal("--%s expects an unsigned number, got '%s'",
                     k.c_str(), it->second.c_str());
        return v;
    }

  private:
    std::map<std::string, std::string> _kv;
};

int
cmdInfo(const Args &args)
{
    const auto cfg = machines::byName(args.str("machine", "powermanna"));
    std::printf("%s\n", machines::describe(cfg).c_str());
    return 0;
}

int
cmdNode(const Args &args)
{
    node::NodeParams cfg =
        machines::byName(args.str("machine", "powermanna"));
    const unsigned cpus = args.num("cpus", 1);
    if (cpus > cfg.numCpus)
        cfg.numCpus = cpus;
    node::Node node(cfg);

    const std::string workload = args.str("workload", "matmult");
    if (workload == "matmult") {
        const unsigned n = args.num("n", 256);
        const bool transposed = args.has("transposed");
        const unsigned rows = args.num("rows", 24);
        const bool independent = args.has("independent");
        auto r = workloads::runMatMult(node, n, transposed, cpus, rows,
                                       independent);
        std::printf("matmult %s n=%u cpus=%u%s: %.1f MFLOPS "
                    "(%.1f us simulated)\n",
                    transposed ? "transposed" : "naive", n, cpus,
                    independent ? " independent" : "", r.mflops(),
                    ticksToUs(r.elapsed));
    } else if (workload == "hint") {
        workloads::HintParams hp;
        hp.type = args.str("type", "double") == "int"
                      ? workloads::HintType::Int
                      : workloads::HintType::Double;
        hp.minLog2m = args.num("minlog2", 9);
        hp.maxLog2m = args.num("maxlog2", 18);
        auto pts = workloads::runHint(node, hp);
        std::printf("%12s %12s %12s\n", "wset", "QUIPS(M)", "us");
        for (const auto &p : pts)
            std::printf("%10lluKB %12.2f %12.1f\n",
                        (unsigned long long)(p.workingSetBytes / 1024),
                        p.quips() / 1e6, ticksToUs(p.elapsed));
    } else {
        pm_fatal("unknown workload '%s' (matmult|hint)",
                 workload.c_str());
    }

    if (args.has("stats")) {
        std::ostringstream os;
        node.stats().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    return 0;
}

// ---- comm: the shared JobSpec drives everything. --------------------------

void usage();

int
cmdComm(int argc, char **argv)
{
    std::vector<std::string> tokens;
    for (int i = 2; i < argc; ++i)
        tokens.emplace_back(argv[i]);

    svc::JobSpec spec;
    std::string err;
    if (!svc::JobSpec::parse(tokens, spec, err)) {
        std::fprintf(stderr, "pmsim comm: %s\n", err.c_str());
        usage();
        return 2;
    }

    installSigint();

    if (!spec.haveSweep) {
        // One point on the calling thread; a panic (watchdog trip,
        // strict-soak failure) aborts with its dump, as ever.
        const std::string row = svc::runPoint(spec);
        std::fputs(row.c_str(), stdout);
        return gInterrupted.load() ? 130 : 0;
    }

    svc::JobSpec base = spec;
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
            svc::JobSpec cfg = base;
            cfg.applyAxisValue(spec.sweep.axis, v);
            return svc::runPoint(cfg);
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
                 "       [--independent] [--type double|int] [--stats]\n"
                 "  comm [--machine M] [--nodes N] [--clusters K]\n"
                 "       [--coherence mesi|msi] [--replacement lru|srrip]\n"
                 "       [--transport snoop|dir]  (dir: sparse-directory\n"
                 "         coherence; needs a split-transaction machine)\n"
                 "       [--node-cpus N]  (processors per node, 1..8)\n"
                 "       [--fifo W] --op latency|gap|unibw|bibw|soak\n"
                 "       [--bytes B] [--count C] [--src S] [--dst D]\n"
                 "       [--fault-ber P] [--fault-drop P]\n"
                 "       [--fault-seed S] [--fault-link-down FROM:TO]\n"
                 "       [--watchdog US] [--watchdog-deadline US]\n"
                 "       [--deadline-us US]  (watchdog shorthand:\n"
                 "         scan US/8, stall deadline US)\n"
                 "       [--strict]  (soak delivery-contract failure\n"
                 "         panics with a forensic dump)\n"
                 "       [--dump-file PATH] [--stats]\n"
                 "       [--sweep AXIS=LO:HI:STEP] [--jobs N]\n"
                 "         AXIS: bytes|count|nodes|clusters|fifo|ber;\n"
                 "         STEP: additive, or *F for a factor\n"
                 "       SIGINT drains in-flight points to quiescence,\n"
                 "       prints completed rows, exits 130\n"
                 "machines: powermanna sun pc180 pc266\n");
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
    if (cmd == "comm")
        return cmdComm(argc, argv);
    Args args(argc, argv, 2);
    if (cmd == "info")
        return cmdInfo(args);
    if (cmd == "node")
        return cmdNode(args);
    usage();
    return 2;
}
