/**
 * @file
 * The simulator benchmark's shared types: workloads, the seeded point
 * list, per-point results, layer counters and host-time spans.
 *
 * A workload is a fixed list of simulation points generated from a
 * seed. Each point builds its own machine, runs it, and checks its
 * simulated result. Host time is what the simulator takes; simulated
 * time (ticks) is what the modelled machine would take.
 */

#ifndef PMBENCH_BENCH_HH
#define PMBENCH_BENCH_HH

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mem/policy.hh"

namespace pmbench {

enum class Workload { NodeKernels, SmpSharing, CommProbes, FabricUniform };

const char *workloadName(Workload w);
std::optional<Workload> workloadByName(std::string_view name);

/** What one point runs. */
enum class Kind {
    HintDouble,
    HintInt,
    MatMultNaive,
    MatMultTransposed,
    Sharing,
    Latency,
    Gap,
    Unidir,
    Bidir,
    Soak,
    Uniform,
};

/** One point of a workload's list; fields a kind does not use stay 0. */
struct PointSpec
{
    Kind kind = Kind::Latency;
    std::string machine; //!< machines::byName() name (node points).
    unsigned cpus = 1;
    unsigned size = 0; //!< HINT log2(m), MatMult n, or message bytes.
    unsigned count = 0; //!< Messages, or memory ops per CPU (sharing).
    unsigned src = 0; //!< Sending node (comm points).
    unsigned dst = 0; //!< Receiving node (comm points).
    unsigned clusters = 1; //!< Fabric cabinets (uniform points).
    pm::mem::TransportKind transport = pm::mem::TransportKind::Snoop;
    double privateKB = 0.0; //!< Private working set per CPU (sharing).
    double writeShare = 0.0; //!< Share of ops on write-shared lines.
    double ber = 0.0; //!< Per-bit error rate (soak points).
    double offeredMBps = 0.0; //!< Offered load per node (uniform).
    std::uint64_t seed = 0; //!< Per-point stream (mix, payloads, faults).
    const char *anchor = nullptr; //!< "fig9", "fig11", "fig12" or null.

    /** One-line canonical description (point lists, the oracle). */
    std::string describe() const;
};

/** The workload's point list: a pure function of (workload, seed). */
std::vector<PointSpec> makePoints(Workload w, std::uint64_t seed);

/** Simulated-machine counters, summed over one point's calls. */
enum class Counter {
    Events,
    MemOps,
    FpOps,
    TlbMisses,
    MissStallTicks,
    L1Accesses,
    L1Hits,
    L2Accesses,
    L2Hits,
    L2Evictions,
    L2Writebacks,
    L2SnoopInvalidations,
    L2Interventions,
    L2Upgrades,
    BusSnoopProbes,
    BusDirLookups,
    BusAddrBusyTicks,
    BusAddrWaitSum,
    BusAddrWaitCount,
    BusTransactions,
    BusDramReads,
    BusDramWrites,
    BusPioBeats,
    NiWordsSent,
    NiWordsReceived,
    NiCrcErrors,
    XbarRoutes,
    XbarSymbols,
    XbarRouteConflicts,
    FabricInjected,
    FabricThrottled,
    FabricDelivered,
    FabricLatencySumTicks,
    MsgRetransmits,
    MsgTimeouts,
    MsgAcksSent,
    WorkloadFlops,
    Count_
};

using Counters = std::array<double, static_cast<std::size_t>(Counter::Count_)>;

inline double &
at(Counters &c, Counter k)
{
    return c[static_cast<std::size_t>(k)];
}

inline double
at(const Counters &c, Counter k)
{
    return c[static_cast<std::size_t>(k)];
}

/** Host-time layers: the benchmark's calls into the simulator. */
enum class Layer {
    NodeBuild, //!< node::Node constructor.
    MsgBuild, //!< msg::System constructor.
    FabricBuild, //!< fabric::Fabric constructor.
    Hint, //!< workloads::runHint / HINT copies through cpu::runJobs.
    MatMult, //!< workloads::runMatMult.
    RunJobs, //!< cpu::runJobs over the sharing mix.
    MsgLatency,
    MsgGap,
    MsgUnidir,
    MsgBidir,
    MsgSoak,
    SimRun, //!< sim::EventQueue::run over injected traffic.
    Count_
};

const char *layerName(Layer l);

using HostNs = std::array<double, static_cast<std::size_t>(Layer::Count_)>;

inline double &
at(HostNs &h, Layer l)
{
    return h[static_cast<std::size_t>(l)];
}

inline double
at(const HostNs &h, Layer l)
{
    return h[static_cast<std::size_t>(l)];
}

/** Host monotonic clock in nanoseconds: the run budget and the spans. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of the calling thread in nanoseconds: every host-time
 * metric. Unlike the monotonic clock it does not count the time the
 * thread waits while the shared host runs something else.
 */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** One recorded host-time span. */
struct Span
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t parent; //!< Index of the enclosing span, -1 at the root.
    std::uint32_t pass;
    std::uint32_t point;
};

/**
 * In-memory span recorder for traced passes. Spans nest by the order
 * they open; all of them are written out once, at exit.
 */
class Tracer
{
  public:
    void setPoint(unsigned pass, unsigned point)
    {
        _pass = pass;
        _point = point;
    }

    /** Open a span; returns its index for close(). */
    std::int32_t open(const char *name);
    void close(std::int32_t index);

    const std::vector<Span> &spans() const { return _spans; }

    /** Write every span as one tab-separated line. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> _spans;
    std::vector<std::int32_t> _stack;
    unsigned _pass = 0;
    unsigned _point = 0;
};

/** RAII span; a no-op when the tracer is null (untraced passes). */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name)
        : _tracer(tracer), _index(tracer ? tracer->open(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (_tracer)
            _tracer->close(_index);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *_tracer;
    std::int32_t _index;
};

/**
 * The reference kernel (reference.cc): fixed work independent of the
 * simulator. Its host time, taken between points, says how fast the
 * shared host is running at that moment.
 */
class Reference
{
  public:
    /**
     * A slice's host CPU ns on a quiet host (a Xeon with 4 vCPUs).
     * Host times are scaled by this over the slices' measured mean.
     */
    static constexpr double kNominalSliceNs = 2.0e6;

    Reference();

    /** Run one fixed slice of work; returns its host CPU ns. */
    double slice();

    /** Depends on every slice run, so none can be optimised away. */
    std::uint64_t checksum() const { return _sum; }

  private:
    std::vector<std::uint32_t> _table;
    std::vector<std::uint64_t> _heap;
    std::uint64_t _sum = 0;
};

/** What one point produced. */
struct PointResult
{
    std::string canon; //!< Simulated result, canonical text.
    std::string problem; //!< Empty when every check passed.
    Counters counters{};
    HostNs host{}; //!< Host CPU ns per layer.
    double pointNs = 0.0; //!< Build + run + check, host CPU ns.
};

/**
 * Run one point. `tracer` is null on untraced passes; host times per
 * layer are measured either way (setup_s needs the build times).
 */
PointResult runPoint(const PointSpec &spec, Tracer *tracer);

} // namespace pmbench

#endif // PMBENCH_BENCH_HH
