/**
 * @file
 * The health subsystem: stall watchdog, conservation auditors, and
 * forensic crash dumps.
 *
 * The paper's NI has no hardware protection — correctness rests on
 * driver discipline (Sec. 3.3) — so when that discipline slips, the
 * simulator's failure mode used to be a one-line panic (or worse, a
 * silent drain) with zero machine state. This subsystem closes that
 * gap in three deterministic, virtual-time layers:
 *
 *  - A *progress watchdog* (Monitor::enableWatchdog) that periodically
 *    scans registered Reporters for components that have stopped making
 *    progress — a crossbar circuit held past its deadline, a FIFO
 *    full-and-unmoving, a retransmit queue not draining, starved EARTH
 *    fibers — and trips with a diagnosis naming the stalled component.
 *    Off by default; when off it schedules *zero* events and adds zero
 *    hot-path cost.
 *
 *  - *Conservation auditors* (Monitor::runAudit) that run at phase
 *    boundaries (System::resetForRun, System::drain) and
 *    check invariants that should hold whenever the machine is quiet:
 *    word/symbol conservation across link→crossbar→NI, flow-control
 *    consistency (no routed circuits, no waiting inputs), and
 *    event-slab live counts.
 *
 *  - *Forensic crash dumps*: every Reporter carries a dumpState() hook
 *    and components keep a bounded EventRing of recent activity; the
 *    owning System's sim::Context holds the Monitor, so every
 *    pm_panic / pm_assert failure and every watchdog trip emits
 *    a structured machine snapshot (tick, FIFO occupancies, route
 *    tables, seq/ack windows, pending-event census) to stderr and an
 *    optional dump file before aborting.
 *
 * Everything rides the existing EventQueue (the watchdog is one
 * periodic event) and iterates reporters in registration order, so
 * two-run bit-for-bit determinism is preserved.
 */

#ifndef PM_SIM_HEALTH_HH
#define PM_SIM_HEALTH_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::sim::health {

class Monitor;

/**
 * Watchdog scan context handed to Reporter::checkHealth().
 *
 * A reporter compares its own last-progress timestamps against the
 * deadline via expired() and report()s every component that has been
 * stuck too long. Findings accumulate on one line (the watchdog trip
 * panic message must name the stalled components itself — the
 * multi-line machine state follows in the panic dump).
 */
class Check
{
  public:
    Check(Tick now, Tick deadline) : _now(now), _deadline(deadline) {}

    /** Simulated time of this scan. */
    Tick now() const { return _now; }

    /** Stall deadline: progress older than this is a finding. */
    Tick deadline() const { return _deadline; }

    /** True when `since` (a last-progress tick) is past the deadline. */
    bool expired(Tick since) const { return since + _deadline <= _now; }

    /** Record one finding, prefixed with the current component name. */
    void report(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    /** Name prepended to subsequent report()s. */
    void setComponent(const std::string &name) { _component = name; }

    /** Number of findings so far. */
    unsigned findings() const { return _findings; }

    /** All findings, "; "-joined on a single line. */
    const std::string &text() const { return _text; }

  private:
    Tick _now;
    Tick _deadline;
    std::string _component;
    std::string _text;
    unsigned _findings = 0;
};

/**
 * Invariant-audit context handed to Reporter::audit().
 *
 * The audit point tells the reporter how quiet the machine claims to
 * be: PostReset runs right after System::resetForRun() (everything
 * torn down, nothing in flight), Quiescent runs once System::drain
 * reaches a quiet machine (endpoints quiescent, wires empty — but
 * e.g. receive FIFOs may still hold unconsumed payload).
 */
class Auditor
{
  public:
    enum class Point {
        PostReset, //!< After System::resetForRun(): machine empty.
        Quiescent, //!< After a drain: endpoints quiescent, wires empty.
    };

    explicit Auditor(Point point) : _point(point) {}

    Point point() const { return _point; }

    /**
     * Check one invariant; failures collect the formatted message
     * prefixed with the current component name.
     */
    void check(bool ok, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /** Name prepended to subsequent check() failures. */
    void setComponent(const std::string &name) { _component = name; }

    unsigned checks() const { return _checks; }
    unsigned failures() const { return _failures; }
    const std::string &text() const { return _text; }

  private:
    Point _point;
    std::string _component;
    std::string _text;
    unsigned _checks = 0;
    unsigned _failures = 0;
};

/**
 * Interface a component implements to participate in health checks.
 * All hooks default to no-ops so a component can opt into any subset.
 */
class Reporter
{
  public:
    virtual ~Reporter() = default;

    /** Stable component name used in findings and dump headers. */
    virtual const std::string &healthName() const = 0;

    /** Watchdog scan: report() anything stuck past check.deadline(). */
    virtual void checkHealth(Check & /* check */) {}

    /** Phase-boundary audit: check() quiet-machine invariants. */
    virtual void audit(Auditor & /* audit */) {}

    /** Forensic dump: write a structured state snapshot. */
    virtual void dumpState(std::ostream & /* os */) const {}
};

/**
 * A bounded ring of recent component events for forensic dumps.
 *
 * Entries are POD — a tick, a static string, and two payload words —
 * so pushing is cheap enough for per-message (not per-symbol) paths.
 * The `what` pointer must outlive the ring; string literals only.
 */
class EventRing
{
  public:
    struct Entry
    {
        Tick tick;
        const char *what;
        std::uint64_t a;
        std::uint64_t b;
    };

    explicit EventRing(std::size_t capacity = 32) : _capacity(capacity) {}

    /** Append an entry, evicting the oldest once full. */
    void
    push(Tick tick, const char *what, std::uint64_t a = 0,
         std::uint64_t b = 0)
    {
        if (_entries.size() < _capacity) {
            _entries.push_back(Entry{tick, what, a, b});
        } else {
            _entries[_head] = Entry{tick, what, a, b};
            _head = (_head + 1) % _capacity;
        }
    }

    /** Entries currently held. */
    std::size_t size() const { return _entries.size(); }

    /** Write entries oldest-first, one per line. */
    void dump(std::ostream &os, const char *indent = "    ") const;

    void
    clear()
    {
        _entries.clear();
        _head = 0;
    }

  private:
    std::size_t _capacity;
    std::size_t _head = 0; //!< Oldest entry once the ring is full.
    std::vector<Entry> _entries;
};

/**
 * The health monitor: owns the watchdog event and the reporter
 * registry, and writes the forensic dump that follows every panic.
 *
 * One Monitor per System, held by that System's sim::Context — never
 * by process-global state — so concurrent Systems cannot see each
 * other's forensics. Reporters register in construction order
 * (deterministic) and must deregister before destruction.
 */
class Monitor
{
  public:
    explicit Monitor(EventQueue &queue);
    ~Monitor();

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    /** Register a reporter (scanned/audited/dumped in this order). */
    void add(Reporter *reporter);

    /** Deregister; required before the reporter dies. */
    void remove(Reporter *reporter);

    /**
     * Enable the progress watchdog.
     * @param interval Virtual-time scan period (ticks); must be > 0.
     * @param deadline Stall deadline; 0 means 10x the interval.
     */
    void enableWatchdog(Tick interval, Tick deadline = 0);

    /** Cancel the watchdog; the queue returns to zero health events. */
    void disableWatchdog();

    /** True while a watchdog scan is scheduled. */
    bool watchdogEnabled() const { return _queue.scheduled(_scanEvent); }

    /**
     * Run all reporter audits plus the event-slab census check;
     * panics with every failure if any invariant does not hold.
     * @param point How quiet the machine claims to be.
     * @param where Phase-boundary name for the failure message.
     */
    void runAudit(Auditor::Point point, const char *where);

    /** Also append forensic dumps to this file ("" disables). */
    void setDumpFile(std::string path) { _dumpFile = std::move(path); }

    /** Write the full machine snapshot: census + every reporter. */
    void dump(std::ostream &os) const;

    /** The tick a panic is stamped with. */
    Tick now() const { return _queue.now(); }

    /**
     * The panic path's dump (sim/logging.cc): dump() into `os`, and
     * the same text appended to the dump file, which survives even a
     * trapped panic. A panic raised while the dump runs (a reporter
     * walking suspect state) writes no second dump and cannot mask
     * the first panic.
     */
    void panicDump(std::ostream &os);

    /** Health counters ("health" stat group: scans, audits). */
    StatGroup &stats() { return _stats; }

    /** Watchdog scans completed so far. */
    double scans() const { return _scans.value(); }

  private:
    /** One watchdog scan; trips on findings, else reschedules. */
    void scan();

    EventQueue &_queue;
    std::vector<Reporter *> _reporters;
    Tick _interval = 0;
    Tick _deadline = 0;
    EventHandle _scanEvent;
    std::string _dumpFile;
    bool _dumping = false; //!< Recursive-panic guard.

    StatGroup _stats{"health"};
    Scalar _scans{"scans", "watchdog scans completed"};
    Scalar _auditsRun{"audits_run", "phase-boundary audits run"};
    Scalar _auditChecks{"audit_checks", "individual audit checks passed"};
};

} // namespace pm::sim::health

#endif // PM_SIM_HEALTH_HH
