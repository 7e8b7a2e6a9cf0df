/**
 * @file
 * Running one point: build its machine, drive it through the
 * simulator's public entry points, read the layer counters before and
 * after each call, and check the simulated result.
 */

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <type_traits>

#include "bench.hh"
#include "cpu/sched.hh"
#include "cpu/workload.hh"
#include "fabric/injector.hh"
#include "fabric/topology.hh"
#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "node/node.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "workloads/runner.hh"

namespace pmbench {

namespace {

using namespace pm;

/** Time `fn` into res.host[layer] and, when tracing, a span. */
template <typename F>
decltype(auto)
timed(Layer layer, Tracer *tracer, PointResult &res, F &&fn)
{
    SpanScope span(tracer, layerName(layer));
    const std::int64_t t0 = cpuNs();
    if constexpr (std::is_void_v<std::invoke_result_t<F &>>) {
        fn();
        at(res.host, layer) += static_cast<double>(cpuNs() - t0);
    } else {
        auto out = fn();
        at(res.host, layer) += static_cast<double>(cpuNs() - t0);
        return out;
    }
}

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/** Add (sign +1) or subtract (sign -1) a node's counters. */
void
snapNode(Counters &c, node::Node &n, double sign)
{
    for (unsigned i = 0; i < n.numCpus(); ++i) {
        cpu::Proc &p = n.proc(i);
        at(c, Counter::MemOps) += sign * (p.loads.value() + p.stores.value());
        at(c, Counter::FpOps) += sign * p.fpOps.value();
        at(c, Counter::TlbMisses) += sign * p.tlbMisses.value();
        at(c, Counter::MissStallTicks) += sign * p.missStalls.value();
        mem::Cache &l1 = n.l1(i);
        at(c, Counter::L1Accesses) +=
            sign * (l1.hits.value() + l1.misses.value());
        at(c, Counter::L1Hits) += sign * l1.hits.value();
        mem::Cache &l2 = n.l2(i);
        at(c, Counter::L2Accesses) +=
            sign * (l2.hits.value() + l2.misses.value());
        at(c, Counter::L2Hits) += sign * l2.hits.value();
        at(c, Counter::L2Evictions) += sign * l2.evictions.value();
        at(c, Counter::L2Writebacks) += sign * l2.writebacks.value();
        at(c, Counter::L2SnoopInvalidations) +=
            sign * l2.snoopInvalidations.value();
        at(c, Counter::L2Interventions) += sign * l2.interventions.value();
        at(c, Counter::L2Upgrades) += sign * l2.upgrades.value();
    }
    mem::NodeBus &b = n.bus();
    at(c, Counter::BusSnoopProbes) += sign * b.snoopProbes.value();
    at(c, Counter::BusDirLookups) += sign * b.dirLookups.value();
    at(c, Counter::BusAddrBusyTicks) += sign * b.addrBusyTicks.value();
    at(c, Counter::BusAddrWaitSum) += sign * b.addrWait.sum();
    at(c, Counter::BusAddrWaitCount) +=
        sign * static_cast<double>(b.addrWait.count());
    at(c, Counter::BusTransactions) += sign * b.transactions.value();
    at(c, Counter::BusDramReads) += sign * b.dramReads.value();
    at(c, Counter::BusDramWrites) += sign * b.dramWrites.value();
    at(c, Counter::BusPioBeats) += sign * b.pioBeats.value();
}

void
snapXbar(Counters &c, net::Crossbar &x, double sign)
{
    at(c, Counter::XbarRoutes) += sign * x.routesEstablished.value();
    at(c, Counter::XbarSymbols) += sign * x.symbolsForwarded.value();
    at(c, Counter::XbarRouteConflicts) += sign * x.routeConflicts.value();
}

void
snapFabric(Counters &c, fabric::Fabric &f, double sign)
{
    const fabric::FabricParams &p = f.params();
    for (unsigned net = 0; net < p.networks; ++net) {
        for (unsigned n = 0; n < f.numNodes(); ++n) {
            ni::LinkInterface &ni = f.ni(n, net);
            at(c, Counter::NiWordsSent) += sign * ni.wordsSent.value();
            at(c, Counter::NiWordsReceived) +=
                sign * ni.wordsReceived.value();
            at(c, Counter::NiCrcErrors) += sign * ni.crcErrors.value();
        }
        for (unsigned k = 0; k < p.clusters; ++k)
            snapXbar(c, f.clusterXbar(k, net), sign);
        if (p.clusters > 1)
            for (unsigned u = 0; u < p.uplinksPerCluster; ++u)
                snapXbar(c, f.levelTwoXbar(u, net), sign);
    }
}

void
snapSystem(Counters &c, msg::System &sys, double sign)
{
    at(c, Counter::Events) +=
        sign * static_cast<double>(sys.queue().executed());
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        snapNode(c, sys.node(n), sign);
    snapFabric(c, sys.fabric(), sign);
}

bool
positive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

// ---- node_kernels ---------------------------------------------------------

/**
 * HINT at one size on `cpus` processors, each running its own copy on
 * disjoint records (the SMP protocol of the paper's Figure 8).
 */
std::vector<std::vector<workloads::HintPoint>>
hintCopies(node::Node &node, const workloads::HintParams &hp, unsigned cpus)
{
    if (cpus == 1)
        return {workloads::runHint(node, hp)};
    node.reset();
    std::vector<std::unique_ptr<workloads::Hint>> works;
    std::vector<cpu::Job> jobs;
    for (unsigned c = 0; c < cpus; ++c) {
        workloads::HintParams p = hp;
        p.base += Addr(c) * 0x0843'7000;
        works.push_back(std::make_unique<workloads::Hint>(p));
        jobs.push_back(cpu::Job{&node.proc(c), works.back().get()});
    }
    cpu::runJobs(jobs);
    std::vector<std::vector<workloads::HintPoint>> curves;
    for (const auto &w : works)
        curves.push_back(w->points());
    return curves;
}

void
runNodeKernel(const PointSpec &s, Tracer *tracer, PointResult &res)
{
    auto node = timed(Layer::NodeBuild, tracer, res, [&] {
        return std::make_unique<node::Node>(machines::byName(s.machine));
    });
    snapNode(res.counters, *node, -1.0);
    if (s.kind == Kind::HintDouble || s.kind == Kind::HintInt) {
        workloads::HintParams hp;
        hp.type = s.kind == Kind::HintDouble ? workloads::HintType::Double
                                             : workloads::HintType::Int;
        hp.minLog2m = hp.maxLog2m = s.size;
        hp.base += Addr(s.seed) * 0x1000;
        const auto curves = timed(Layer::Hint, tracer, res, [&] {
            return hintCopies(*node, hp, s.cpus);
        });
        for (std::size_t c = 0; c < curves.size(); ++c) {
            if (curves[c].size() != 1) {
                res.problem = "HINT returned the wrong number of sizes";
                continue;
            }
            const workloads::HintPoint &hpt = curves[c].front();
            appendf(res.canon, " cpu%zu elapsed=%llu quality=%.17g", c,
                    static_cast<unsigned long long>(hpt.elapsed),
                    hpt.quality);
            if (hpt.elapsed == 0 || !positive(hpt.quality))
                res.problem = "HINT produced no time or quality";
        }
    } else {
        const auto r = timed(Layer::MatMult, tracer, res, [&] {
            return workloads::runMatMult(
                *node, s.size, s.kind == Kind::MatMultTransposed, s.cpus,
                s.count, /*independentCopies=*/s.cpus > 1);
        });
        appendf(res.canon, " elapsed=%llu flops=%llu",
                static_cast<unsigned long long>(r.elapsed),
                static_cast<unsigned long long>(r.flops));
        at(res.counters, Counter::WorkloadFlops) +=
            static_cast<double>(r.flops);
        if (r.elapsed == 0 || r.flops == 0)
            res.problem = "MatMult produced no time or flops";
    }
    snapNode(res.counters, *node, +1.0);
}

// ---- smp_sharing ----------------------------------------------------------

constexpr std::uint32_t kLine = 64;
constexpr Addr kWriteSharedBase = 0x7000'0000;
constexpr unsigned kWriteSharedLines = 64;
constexpr Addr kReadSharedBase = 0x7800'0000;
constexpr unsigned kReadSharedLines = 512;
constexpr double kReadShare = 0.25;

/**
 * A seeded mix of loads and stores over this CPU's private lines, a
 * block every CPU reads, and a few hot lines every CPU writes. One
 * step() issues a chunk of 256 operations.
 */
class SharingMix final : public cpu::Workload
{
  public:
    SharingMix(const PointSpec &s, unsigned cpuIndex, Tracer *tracer)
        : _tracer(tracer),
          _rng(s.seed + cpuIndex),
          _ops(s.count),
          _writeShare(s.writeShare),
          _privateBase(0x1000'0000 + Addr(cpuIndex) * 0x0084'3000),
          _privateLines(std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(s.privateKB * 1024 / kLine)))
    {
    }

    std::string name() const override { return "sharing_mix"; }

    bool
    step(cpu::Proc &proc) override
    {
        SpanScope span(_tracer, "cpu.step");
        constexpr unsigned kChunk = 256;
        for (unsigned i = 0; i < kChunk && _done < _ops; ++i, ++_done) {
            const double r = _rng.uniform();
            if (r < _writeShare) {
                const Addr a =
                    kWriteSharedBase + _rng.below(kWriteSharedLines) * kLine;
                if (_rng.chance(0.5))
                    proc.store(a);
                else
                    proc.load(a);
            } else if (r < _writeShare + kReadShare) {
                proc.load(kReadSharedBase +
                          _rng.below(kReadSharedLines) * kLine);
            } else {
                const Addr a = _privateBase + _rng.below(_privateLines) * kLine;
                if (_rng.chance(0.3))
                    proc.store(a);
                else
                    proc.load(a);
            }
            proc.instr(4);
        }
        return _done < _ops;
    }

  private:
    Tracer *_tracer;
    sim::SplitMix64 _rng;
    std::uint64_t _ops;
    std::uint64_t _done = 0;
    double _writeShare;
    Addr _privateBase;
    std::uint64_t _privateLines;
};

/** MESI single-writer check over the lines every CPU may write. */
bool
singleWriter(node::Node &node)
{
    for (unsigned l = 0; l < kWriteSharedLines + kReadSharedLines; ++l) {
        const Addr a = l < kWriteSharedLines
                           ? kWriteSharedBase + Addr(l) * kLine
                           : kReadSharedBase +
                                 Addr(l - kWriteSharedLines) * kLine;
        unsigned owners = 0;
        unsigned valid = 0;
        for (unsigned c = 0; c < node.numCpus(); ++c) {
            const mem::MesiState st = node.l2(c).lineState(a);
            owners += st == mem::MesiState::Modified ||
                      st == mem::MesiState::Exclusive;
            valid += st != mem::MesiState::Invalid;
        }
        if (owners > 1 || (owners == 1 && valid > 1))
            return false;
    }
    return true;
}

void
runSharing(const PointSpec &s, Tracer *tracer, PointResult &res)
{
    auto node = timed(Layer::NodeBuild, tracer, res, [&] {
        return std::make_unique<node::Node>(machines::powerMannaAblation(
            s.cpus, mem::CoherenceKind::Mesi, s.transport));
    });
    snapNode(res.counters, *node, -1.0);
    std::vector<std::unique_ptr<SharingMix>> works;
    std::vector<cpu::Job> jobs;
    for (unsigned c = 0; c < s.cpus; ++c) {
        works.push_back(std::make_unique<SharingMix>(s, c, tracer));
        jobs.push_back(cpu::Job{&node->proc(c), works.back().get()});
    }
    timed(Layer::RunJobs, tracer, res, [&] { cpu::runJobs(jobs); });
    snapNode(res.counters, *node, +1.0);
    const Counters &delta = res.counters;

    Tick elapsed = 0;
    for (unsigned c = 0; c < s.cpus; ++c)
        elapsed = std::max(elapsed, node->proc(c).time());
    appendf(res.canon,
            " elapsed=%llu transactions=%.0f snoop_invals=%.0f "
            "interventions=%.0f upgrades=%.0f dram_reads=%.0f",
            static_cast<unsigned long long>(elapsed),
            at(delta, Counter::BusTransactions),
            at(delta, Counter::L2SnoopInvalidations),
            at(delta, Counter::L2Interventions),
            at(delta, Counter::L2Upgrades), at(delta, Counter::BusDramReads));
    if (at(delta, Counter::MemOps) != double(s.count) * s.cpus)
        res.problem = "memory operations issued != operations retired";
    else if (elapsed == 0)
        res.problem = "no simulated time elapsed";
    else if (!singleWriter(*node))
        res.problem = "a shared line has more than one owner";
}

// ---- comm_probes ----------------------------------------------------------

/** Exact paper anchors at the figures' printed precision. */
bool
anchorHolds(const char *anchor, double v)
{
    char buf[32];
    if (std::string_view(anchor) == "fig9") {
        std::snprintf(buf, sizeof(buf), "%.3f", v);
        return std::string_view(buf) == "2.746";
    }
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string_view(buf) ==
           (std::string_view(anchor) == "fig11" ? "59.9" : "85.7");
}

void
runComm(const PointSpec &s, Tracer *tracer, PointResult &res)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 8;
    std::optional<sim::FaultModel> fault;
    if (s.ber > 0.0) {
        fault.emplace(s.seed);
        fault->defaults.ber = s.ber;
        sp.fabric.fault = &*fault;
    }
    auto sys = timed(Layer::MsgBuild, tracer, res, [&] {
        return std::make_unique<msg::System>(sp);
    });
    snapSystem(res.counters, *sys, -1.0);
    double value = 0.0;
    switch (s.kind) {
      case Kind::Latency:
        value = timed(Layer::MsgLatency, tracer, res, [&] {
            return msg::measureOneWayLatencyUs(*sys, s.src, s.dst, s.size,
                                               s.count);
        });
        break;
      case Kind::Gap:
        value = timed(Layer::MsgGap, tracer, res, [&] {
            return msg::measureGapUs(*sys, s.src, s.dst, s.size, s.count);
        });
        break;
      case Kind::Unidir:
        value = timed(Layer::MsgUnidir, tracer, res, [&] {
            return msg::measureUnidirectionalMBps(*sys, s.src, s.dst,
                                                  s.size, s.count);
        });
        break;
      case Kind::Bidir:
        value = timed(Layer::MsgBidir, tracer, res, [&] {
            return msg::measureBidirectionalMBps(*sys, s.src, s.dst,
                                                 s.size, s.count);
        });
        break;
      default: {
        const msg::SoakResult r = timed(Layer::MsgSoak, tracer, res, [&] {
            return msg::runDeliverySoak(*sys, s.src, s.dst, s.size,
                                        s.count, s.seed);
        });
        appendf(res.canon,
                " delivered=%u elapsed_us=%.17g retransmits=%.0f "
                "crc_drops=%.0f timeouts=%.0f acks=%.0f nacks=%.0f",
                r.delivered, r.elapsedUs, r.retransmits, r.crcDrops,
                r.timeouts, r.acksSent, r.nacksSent);
        at(res.counters, Counter::MsgRetransmits) += r.retransmits;
        at(res.counters, Counter::MsgTimeouts) += r.timeouts;
        at(res.counters, Counter::MsgAcksSent) += r.acksSent;
        if (!r.intact || r.delivered != s.count || r.senderDead ||
            r.receiverDead)
            res.problem = "soak broke exactly-once in-order delivery";
        snapSystem(res.counters, *sys, +1.0);
        return;
      }
    }
    snapSystem(res.counters, *sys, +1.0);
    appendf(res.canon, " value=%.17g", value);
    if (!positive(value))
        res.problem = "probe measured nothing";
    else if (s.anchor != nullptr && !anchorHolds(s.anchor, value))
        res.problem = std::string("paper anchor ") + s.anchor + " drifted";
}

// ---- fabric_uniform -------------------------------------------------------

constexpr Tick kInjectTicks = 300 * kTicksPerUs;
constexpr Tick kTailTicks = 100 * kTicksPerUs;

void
runUniform(const PointSpec &s, Tracer *tracer, PointResult &res)
{
    sim::EventQueue queue;
    fabric::FabricParams fp;
    fp.clusters = s.clusters;
    fp.nodesPerCluster = 8;
    fp.uplinksPerCluster = s.clusters > 1 ? 8 : 0;
    fp.networks = 1;
    auto fab = timed(Layer::FabricBuild, tracer, res, [&] {
        return std::make_unique<fabric::Fabric>(fp, queue);
    });
    fabric::Drain drain(*fab, queue);
    std::vector<std::unique_ptr<fabric::Injector>> injectors;
    for (unsigned n = 0; n < fab->numNodes(); ++n) {
        fabric::InjectorParams ip;
        ip.offeredMBps = s.offeredMBps;
        ip.payloadWords = 8; // 64 B messages
        ip.seed = s.seed + n;
        injectors.push_back(
            std::make_unique<fabric::Injector>(*fab, queue, n, ip));
    }
    snapFabric(res.counters, *fab, -1.0);
    const double events0 = static_cast<double>(queue.executed());
    timed(Layer::SimRun, tracer, res, [&] {
        for (auto &inj : injectors)
            inj->start(kInjectTicks);
        queue.run(kInjectTicks + kTailTicks);
        drain.stop();
        queue.run();
    });
    snapFabric(res.counters, *fab, +1.0);
    at(res.counters, Counter::Events) +=
        static_cast<double>(queue.executed()) - events0;

    double injected = 0.0;
    double throttled = 0.0;
    for (const auto &inj : injectors) {
        injected += inj->sent.value();
        throttled += inj->throttled.value();
    }
    const double delivered = static_cast<double>(drain.received());
    at(res.counters, Counter::FabricInjected) += injected;
    at(res.counters, Counter::FabricThrottled) += throttled;
    at(res.counters, Counter::FabricDelivered) += delivered;
    at(res.counters, Counter::FabricLatencySumTicks) += drain.latency().sum();
    appendf(res.canon,
            " injected=%.0f throttled=%.0f delivered=%.0f "
            "latency_mean_ticks=%.17g latency_max_ticks=%.17g",
            injected, throttled, delivered, drain.latency().mean(),
            drain.latency().max());
    if (delivered == 0.0)
        res.problem = "the fabric delivered nothing";
    else if (delivered != injected)
        res.problem = "the fabric lost or duplicated messages";
}

} // namespace

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::NodeBuild: return "node.build";
      case Layer::MsgBuild: return "msg.build";
      case Layer::FabricBuild: return "fabric.build";
      case Layer::Hint: return "workloads.hint";
      case Layer::MatMult: return "workloads.matmult";
      case Layer::RunJobs: return "cpu.run_jobs";
      case Layer::MsgLatency: return "msg.latency";
      case Layer::MsgGap: return "msg.gap";
      case Layer::MsgUnidir: return "msg.unidir";
      case Layer::MsgBidir: return "msg.bidir";
      case Layer::MsgSoak: return "msg.soak";
      case Layer::SimRun: return "sim.run";
      case Layer::Count_: break;
    }
    return "?";
}

std::int32_t
Tracer::open(const char *name)
{
    const auto index = static_cast<std::int32_t>(_spans.size());
    _spans.push_back(Span{name, nowNs(), 0,
                          _stack.empty() ? -1 : _stack.back(), _pass,
                          _point});
    _stack.push_back(index);
    return index;
}

void
Tracer::close(std::int32_t index)
{
    _spans[static_cast<std::size_t>(index)].endNs = nowNs();
    _stack.pop_back();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "# index\tname\tstart_ns\tend_ns\tparent\tpass\tpoint\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out << i << '\t' << s.name << '\t' << s.startNs << '\t' << s.endNs
            << '\t' << s.parent << '\t' << s.pass << '\t' << s.point
            << '\n';
    }
    return static_cast<bool>(out);
}

PointResult
runPoint(const PointSpec &spec, Tracer *tracer)
{
    PointResult res;
    SpanScope span(tracer, "point");
    const std::int64_t t0 = cpuNs();
    switch (spec.kind) {
      case Kind::Sharing: runSharing(spec, tracer, res); break;
      case Kind::Latency:
      case Kind::Gap:
      case Kind::Unidir:
      case Kind::Bidir:
      case Kind::Soak: runComm(spec, tracer, res); break;
      case Kind::Uniform: runUniform(spec, tracer, res); break;
      default: runNodeKernel(spec, tracer, res); break;
    }
    res.pointNs = static_cast<double>(cpuNs() - t0);
    return res;
}

} // namespace pmbench
