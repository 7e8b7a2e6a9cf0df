/**
 * @file
 * pmbench: the simulator benchmark driver.
 *
 *   pmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           [--expected-dir <dir>] [--spans <file>] [--results-out <file>]
 *   pmbench --workload <name> --seed <n> --list-points
 *
 * Generates the workload's point list from the seed and runs it, one
 * pass after another through sim::sweep::map with one worker, until
 * the time budget is spent. Every pass must reproduce the first
 * pass's simulated results; at the default seed they must also match
 * the stored expectation. With --trace 1, untraced and traced passes
 * alternate: the traced ones record host-time spans and give the
 * per-layer metrics, and the difference is the tracing overhead.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and the metrics. The exit code is nonzero on any failure.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/sweep.hh"

namespace pmbench {

namespace {

/** The seed the stored expectations were recorded at. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Args
{
    Workload workload = Workload::NodeKernels;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool listPoints = false;
    std::string expectedDir;
    std::string spansOut;
    std::string resultsOut;
    std::string samplesOut;
};

/** Everything one pass over the point list produced. */
struct Pass
{
    bool traced = false;
    double wallNs = 0.0; //!< Monotonic clock, for the run budget.
    double cpuNs = 0.0; //!< Host CPU ns in the points, unscaled.
    double scale = 1.0; //!< Nominal over measured reference speed.
    // Host times below are CPU ns times `scale`.
    HostNs host{};
    Counters counters{};
    std::vector<double> pointNs; //!< Per point.
    std::vector<double> setupNs; //!< Of which in the constructors.
    std::vector<double> refNs; //!< Reference slice after each point.
    std::vector<std::string> lines; //!< "describe =>canon", per point.
    std::vector<std::string> problems; //!< Per point, "" when clean.
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pmbench: %s\n"
                 "usage: pmbench --workload <node_kernels|smp_sharing|"
                 "comm_probes|fabric_uniform> --seed <n> --seconds <s> "
                 "--trace <0|1> [--expected-dir <dir>] [--spans <file>] "
                 "[--results-out <file>] [--list-points]\n",
                 why);
    // pmlint: abort-ok(usage error before any simulation exists)
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-points") {
            a.listPoints = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            const auto w = workloadByName(v);
            if (!w)
                usage("unknown workload");
            a.workload = *w;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!pm::sim::parse::u64(v, a.seed))
                usage("--seed expects an unsigned number");
        } else if (flag == "--seconds") {
            if (!pm::sim::parse::f64(v, a.seconds) || a.seconds <= 0)
                usage("--seconds expects a positive number");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace expects 0 or 1");
            a.trace = v[0] == '1';
        } else if (flag == "--expected-dir") {
            a.expectedDir = v;
        } else if (flag == "--spans") {
            a.spansOut = v;
        } else if (flag == "--results-out") {
            a.resultsOut = v;
        } else if (flag == "--samples-out") {
            a.samplesOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

Pass
runPass(const std::vector<PointSpec> &points, std::uint64_t seed,
        Tracer *tracer, Reference &ref, unsigned passIndex)
{
    pm::sim::sweep::Options opt;
    opt.jobs = 1;
    opt.seed = seed;
    opt.inform = false;
    Pass pass;
    pass.traced = tracer != nullptr;
    pass.refNs.resize(points.size());
    const std::int64_t t0 = nowNs();
    const auto report = pm::sim::sweep::map(
        points,
        [tracer, passIndex, &ref, &pass](const PointSpec &spec,
                                         const pm::sim::sweep::Point &pt) {
            if (tracer)
                tracer->setPoint(passIndex,
                                 static_cast<unsigned>(pt.index));
            PointResult r = runPoint(spec, tracer);
            pass.refNs[pt.index] = ref.slice();
            return r;
        },
        opt);
    pass.wallNs = static_cast<double>(nowNs() - t0);

    pass.lines.resize(points.size());
    pass.problems.resize(points.size());
    pass.pointNs.resize(points.size());
    pass.setupNs.resize(points.size());
    for (const auto &f : report.failures)
        pass.problems[f.index] = "panicked: " + f.message;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &r = report.results[i];
        pass.lines[i] = points[i].describe() + " =>" +
                        (report.completed[i] ? r.canon : " FAILED");
        if (!report.completed[i])
            continue;
        if (!r.problem.empty())
            pass.problems[i] = r.problem;
        pass.pointNs[i] = r.pointNs;
        pass.setupNs[i] = at(r.host, Layer::NodeBuild) +
                          at(r.host, Layer::MsgBuild) +
                          at(r.host, Layer::FabricBuild);
        for (std::size_t k = 0; k < r.host.size(); ++k)
            pass.host[k] += r.host[k];
        for (std::size_t k = 0; k < r.counters.size(); ++k)
            pass.counters[k] += r.counters[k];
    }

    // Scale every host time of the pass to a host running the
    // reference kernel at its nominal speed.
    pass.cpuNs = sum(pass.pointNs);
    pass.scale = Reference::kNominalSliceNs *
                 static_cast<double>(points.size()) / sum(pass.refNs);
    for (double &ns : pass.pointNs)
        ns *= pass.scale;
    for (double &ns : pass.setupNs)
        ns *= pass.scale;
    for (double &ns : pass.host)
        ns *= pass.scale;
    return pass;
}

/** Linear-interpolated quantile q in [0, 1] of unsorted samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Per point, the median over `passes` of its host time in `field`: a
 * pass the shared host slowed down moves no point's figure.
 */
std::vector<double>
perPointMedian(const std::vector<const Pass *> &passes,
               std::vector<double> Pass::*field)
{
    const std::size_t n = (passes.front()->*field).size();
    std::vector<double> out(n);
    std::vector<double> v(passes.size());
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < passes.size(); ++k)
            v[k] = (passes[k]->*field)[i];
        out[i] = median(v);
    }
    return out;
}

/** Host seconds for the whole point list: the per-point medians' sum. */
double
runSeconds(const std::vector<const Pass *> &passes)
{
    return sum(perPointMedian(passes, &Pass::pointNs)) / 1e9;
}

std::vector<std::string>
readLines(const std::string &path, bool &ok)
{
    std::ifstream in(path);
    ok = static_cast<bool>(in);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * This program's memory high-water mark, VmHWM. Unlike getrusage's
 * ru_maxrss it is not carried over from the process that exec'd us
 * (a Python wrapper's own footprint would hide a small simulator's).
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The per-layer metrics of a traced run (see README.md's table). */
std::vector<Metric>
layerMetrics(const std::vector<const Pass *> &traced,
             const std::vector<const Pass *> &untraced)
{
    const Counters &c = traced.front()->counters;
    const auto hostS = [&traced](Layer l) {
        std::vector<double> v;
        for (const Pass *p : traced)
            v.push_back(at(p->host, l) / 1e9);
        return median(v);
    };
    const double kernelS = hostS(Layer::MsgLatency) + hostS(Layer::MsgGap) +
                           hostS(Layer::MsgUnidir) + hostS(Layer::MsgBidir) +
                           hostS(Layer::MsgSoak) + hostS(Layer::SimRun);
    const double cpuS =
        hostS(Layer::Hint) + hostS(Layer::MatMult) + hostS(Layer::RunJobs);
    const double events = at(c, Counter::Events);
    const double memOps = at(c, Counter::MemOps);
    const double delivered = at(c, Counter::FabricDelivered);
    return {
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event", ratio(kernelS * 1e9, events), "ns"},
        {"node.build_s", hostS(Layer::NodeBuild), "s"},
        {"msg.build_s", hostS(Layer::MsgBuild), "s"},
        {"fabric.build_s", hostS(Layer::FabricBuild), "s"},
        {"cpu.mem_ops", memOps, "count"},
        {"cpu.fp_ops", at(c, Counter::FpOps), "count"},
        {"cpu.tlb_misses", at(c, Counter::TlbMisses), "count"},
        {"cpu.miss_stall_ticks", at(c, Counter::MissStallTicks), "ticks"},
        {"cpu.host_ns_per_mem_op", cpuS > 0.0 ? ratio(cpuS * 1e9, memOps)
                                              : 0.0,
         "ns"},
        {"mem.l1.accesses", at(c, Counter::L1Accesses), "count"},
        {"mem.l1.hit_ratio",
         ratio(at(c, Counter::L1Hits), at(c, Counter::L1Accesses)), "ratio"},
        {"mem.l2.accesses", at(c, Counter::L2Accesses), "count"},
        {"mem.l2.hit_ratio",
         ratio(at(c, Counter::L2Hits), at(c, Counter::L2Accesses)), "ratio"},
        {"mem.l2.evictions", at(c, Counter::L2Evictions), "count"},
        {"mem.l2.writebacks", at(c, Counter::L2Writebacks), "count"},
        {"mem.l2.snoop_invalidations",
         at(c, Counter::L2SnoopInvalidations), "count"},
        {"mem.l2.interventions", at(c, Counter::L2Interventions), "count"},
        {"mem.l2.upgrades", at(c, Counter::L2Upgrades), "count"},
        {"mem.bus.snoop_probes", at(c, Counter::BusSnoopProbes), "count"},
        {"mem.bus.dir_lookups", at(c, Counter::BusDirLookups), "count"},
        {"mem.bus.addr_busy_ticks", at(c, Counter::BusAddrBusyTicks),
         "ticks"},
        {"mem.bus.addr_wait_mean_ticks",
         ratio(at(c, Counter::BusAddrWaitSum),
               at(c, Counter::BusAddrWaitCount)),
         "ticks"},
        {"mem.bus.transactions", at(c, Counter::BusTransactions), "count"},
        {"mem.bus.dram_reads", at(c, Counter::BusDramReads), "count"},
        {"mem.bus.dram_writes", at(c, Counter::BusDramWrites), "count"},
        {"mem.bus.pio_beats", at(c, Counter::BusPioBeats), "count"},
        {"ni.words_sent", at(c, Counter::NiWordsSent), "count"},
        {"ni.words_received", at(c, Counter::NiWordsReceived), "count"},
        {"ni.crc_errors", at(c, Counter::NiCrcErrors), "count"},
        {"net.xbar.routes", at(c, Counter::XbarRoutes), "count"},
        {"net.xbar.symbols", at(c, Counter::XbarSymbols), "count"},
        {"net.xbar.route_conflicts", at(c, Counter::XbarRouteConflicts),
         "count"},
        {"fabric.injected", at(c, Counter::FabricInjected), "count"},
        {"fabric.throttled", at(c, Counter::FabricThrottled), "count"},
        {"fabric.delivered", delivered, "count"},
        {"fabric.delivery_ratio",
         ratio(delivered, at(c, Counter::FabricInjected)), "ratio"},
        {"fabric.latency_mean_us",
         ratio(at(c, Counter::FabricLatencySumTicks), delivered) / 1e6,
         "us"},
        {"msg.host_s.latency", hostS(Layer::MsgLatency), "s"},
        {"msg.host_s.gap", hostS(Layer::MsgGap), "s"},
        {"msg.host_s.unidir", hostS(Layer::MsgUnidir), "s"},
        {"msg.host_s.bidir", hostS(Layer::MsgBidir), "s"},
        {"msg.host_s.soak", hostS(Layer::MsgSoak), "s"},
        {"msg.retransmits", at(c, Counter::MsgRetransmits), "count"},
        {"msg.timeouts", at(c, Counter::MsgTimeouts), "count"},
        {"msg.acks_sent", at(c, Counter::MsgAcksSent), "count"},
        {"workloads.matmult_host_s", hostS(Layer::MatMult), "s"},
        {"workloads.hint_host_s", hostS(Layer::Hint), "s"},
        {"workloads.flops", at(c, Counter::WorkloadFlops), "count"},
        {"trace.overhead_s", runSeconds(traced) - runSeconds(untraced),
         "s"},
    };
}

/** Self time per span name: duration minus the children's durations. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] +=
            static_cast<double>(spans[i].endNs - spans[i].startNs) -
            child[i];
    return self;
}

int
run(const Args &args)
{
    const std::vector<PointSpec> points =
        makePoints(args.workload, args.seed);
    const char *wname = workloadName(args.workload);
    if (args.listPoints) {
        for (const PointSpec &p : points)
            std::printf("%s\n", p.describe().c_str());
        return 0;
    }

    std::vector<std::string> expected;
    bool haveExpected = false;
    if (args.seed == kDefaultSeed && !args.expectedDir.empty()) {
        expected = readLines(args.expectedDir + "/" + wname + ".txt",
                             haveExpected);
        if (!haveExpected)
            std::printf("warning: no stored expectation for %s\n", wname);
    }

    // Pass 0 warms the process up (heap growth, first page faults) and
    // is checked but not timed. With tracing, untraced and traced
    // passes then alternate, ending on a traced one.
    Tracer tracer;
    Reference ref;
    std::vector<Pass> passes;
    const double budgetNs = args.seconds * 1e9;
    const std::int64_t start = nowNs();
    for (unsigned i = 0;; ++i) {
        const bool traced = args.trace && i > 0 && i % 2 == 0;
        passes.push_back(runPass(points, args.seed,
                                 traced ? &tracer : nullptr, ref, i));
        const double elapsed = static_cast<double>(nowNs() - start);
        if (passes.size() >= 2 && traced == args.trace &&
            elapsed + passes.back().wallNs > budgetNs)
            break;
    }

    // Correctness: every pass repeats the first one's simulated
    // results (traced or not), which match the stored expectation.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string firstProblem;
    for (const Pass &pass : passes) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            ++attempted;
            std::string problem = pass.problems[i];
            if (problem.empty() && pass.lines[i] != passes[0].lines[i])
                problem = pass.traced ? "traced result differs from untraced"
                                      : "result differs between passes";
            if (problem.empty() && haveExpected &&
                (i >= expected.size() || expected[i] != pass.lines[i]))
                problem = "result differs from the stored expectation";
            if (!problem.empty()) {
                ++failed;
                if (firstProblem.empty())
                    firstProblem = "point " + std::to_string(i) + " (" +
                                   points[i].describe() + "): " + problem;
            }
        }
    }
    if (haveExpected && expected.size() != points.size()) {
        ++failed;
        firstProblem = "stored expectation has a different point count";
    }
    if (!firstProblem.empty())
        std::printf("FAILED %s\n", firstProblem.c_str());

    if (!args.resultsOut.empty()) {
        std::ofstream out(args.resultsOut);
        for (const std::string &line : passes.back().lines)
            out << line << '\n';
    }
    if (!args.samplesOut.empty()) {
        std::ofstream out(args.samplesOut);
        out << "# pass\ttraced\tpoint\tpoint_cpu_ns\tref_cpu_ns\n";
        for (std::size_t p = 0; p < passes.size(); ++p)
            for (std::size_t i = 0; i < points.size(); ++i)
                out << p << '\t' << passes[p].traced << '\t' << i << '\t'
                    << passes[p].pointNs[i] / passes[p].scale << '\t'
                    << passes[p].refNs[i] << '\n';
    }

    std::vector<const Pass *> untraced;
    std::vector<const Pass *> traced;
    for (std::size_t i = 1; i < passes.size(); ++i)
        (passes[i].traced ? traced : untraced).push_back(&passes[i]);
    std::vector<double> pointMs = perPointMedian(untraced, &Pass::pointNs);
    for (double &v : pointMs)
        v /= 1e6;
    const double p90 = quantile(pointMs, 0.9);
    const auto beyond = std::count_if(pointMs.begin(), pointMs.end(),
                                      [p90](double v) { return v > p90; });

    std::printf("workload %s seed %llu: %zu points per pass, one warm-up, "
                "%zu untraced and %zu traced passes\n",
                wname, static_cast<unsigned long long>(args.seed),
                points.size(), untraced.size(), traced.size());
    std::printf("failed_frac %.6g (%zu failed of %zu attempted)\n",
                ratio(double(failed), double(attempted)), failed, attempted);
    std::printf("point samples %zu (each the median of %zu passes), %ld "
                "beyond p90\n",
                pointMs.size(), untraced.size(), static_cast<long>(beyond));
    std::map<std::string, std::pair<unsigned, double>> byKind;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string d = points[i].describe();
        auto &k = byKind[d.substr(0, d.find(' '))];
        ++k.first;
        k.second += pointMs[i];
    }
    std::printf("host ms per kind (points, sum of medians):");
    for (const auto &[kind, k] : byKind)
        std::printf(" %s %u %.1f", kind.c_str(), k.first, k.second);
    std::printf("\n");
    std::printf("pass seconds, wall/CPU/scaled (w warm-up, t traced):");
    for (std::size_t i = 0; i < passes.size(); ++i)
        std::printf(" %.3f/%.3f/%.3f%s", passes[i].wallNs / 1e9,
                    passes[i].cpuNs / 1e9, sum(passes[i].pointNs) / 1e9,
                    i == 0 ? "w" : passes[i].traced ? "t" : "");
    std::printf("\nreference slice ms per pass:");
    for (const Pass &p : passes)
        std::printf(" %.3f", sum(p.refNs) / 1e6 /
                                 static_cast<double>(p.refNs.size()));
    std::printf(" (checksum %016llx)\n",
                static_cast<unsigned long long>(ref.checksum()));
    const Counters &work = passes[0].counters;
    std::printf("work per pass: %.0f events, %.0f memory ops, %.0f bus "
                "transactions, %.0f PIO beats, %.0f NI words sent\n",
                at(work, Counter::Events), at(work, Counter::MemOps),
                at(work, Counter::BusTransactions),
                at(work, Counter::BusPioBeats),
                at(work, Counter::NiWordsSent));

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = layerMetrics(traced, untraced);
        for (const auto &[name, ns] : selfTimes(tracer.spans()))
            std::printf("self_s %-20s %.6f (all traced passes)\n",
                        name.c_str(), ns / 1e9);
        if (!args.spansOut.empty() && !tracer.write(args.spansOut))
            std::printf("warning: could not write %s\n",
                        args.spansOut.c_str());
    } else {
        metrics = {
            {"run_s", runSeconds(untraced), "s"},
            {"point_p50_ms", quantile(pointMs, 0.5), "ms"},
            {"point_p90_ms", p90, "ms"},
            {"setup_s", sum(perPointMedian(untraced, &Pass::setupNs)) / 1e9,
             "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    }
    for (const Metric &m : metrics)
        std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit);

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace

} // namespace pmbench

int
main(int argc, char **argv)
{
    pm::setInformEnabled(false);
    return pmbench::run(pmbench::parseArgs(argc, argv));
}
