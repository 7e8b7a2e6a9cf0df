/**
 * @file
 * A whole PowerMANNA machine: nodes plus the duplicated communication
 * fabric, sharing one event queue. This is the top-level object the
 * examples and communication benches instantiate.
 */

#ifndef PM_MSG_SYSTEM_HH
#define PM_MSG_SYSTEM_HH

#include <memory>
#include <vector>

#include "fabric/topology.hh"
#include "node/node.hh"
#include "sim/context.hh"
#include "sim/event.hh"
#include "sim/health.hh"

namespace pm::msg {

/** Static configuration of a full machine. */
struct SystemParams
{
    node::NodeParams node; //!< Per-node configuration (all identical).
    fabric::FabricParams fabric; //!< Interconnect topology.
};

/**
 * Per-run protocol state that System::resetForRun() must quiesce.
 * Endpoints (PmComm) register themselves so that resetting the machine
 * between experiment phases also resets endpoints a caller still holds
 * — a stale driver with unacknowledged traffic keeps polling the link
 * interface and would steal words from the next phase's messages.
 */
class Resettable
{
  public:
    virtual ~Resettable() = default;
    virtual void resetForRun() = 0;
};

/** Nodes + fabric + event queue. */
class System
{
  public:
    explicit System(const SystemParams &params);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemParams &params() const { return _p; }

    /** The event queue that drives the whole machine. */
    sim::EventQueue &queue() { return _queue; }

    fabric::Fabric &fabric() { return *_fabric; }
    unsigned numNodes() const { return _fabric->numNodes(); }
    node::Node &node(unsigned i) { return *_nodes.at(i); }
    ni::LinkInterface &ni(unsigned nodeId, unsigned net = 0)
    {
        return _fabric->ni(nodeId, net);
    }

    /**
     * The machine's health monitor: watchdog, auditors, forensic
     * dumps. Every fabric component is registered at construction;
     * endpoints (PmComm, EARTH runtimes) register themselves.
     */
    sim::health::Monitor &health() { return _health; }

    /**
     * This machine's ambient simulation state — panic tick/dump hooks
     * and the inform() gate — fully isolated from every other System
     * in the process. Simulation entry points (probes, collectives,
     * earth::Runtime::run) bind it with sim::Context::Scope so a
     * mid-run panic resolves this machine's forensics; anything else
     * that steps queue() directly and wants panics attributed should
     * do the same.
     */
    sim::Context &context() { return _ctx; }

    /**
     * Conservation + invariant audit for a wire-quiescent machine:
     * words sent by all NIs since the last audit must equal words
     * received plus words dropped by fault injection, and every
     * registered reporter's quiet-machine invariants must hold.
     * Callers must drain to Fabric::wireQuiet() first.
     */
    void auditQuiescent(const char *where);

    /**
     * Reset node caches/timing, link interfaces, and any registered
     * endpoints between experiment runs, and bring every processor's
     * local clock up to the event queue's current time (queue time is
     * monotonic).
     */
    void resetForRun();

    void addResettable(Resettable *r) { _resettables.push_back(r); }
    void removeResettable(Resettable *r)
    {
        std::erase(_resettables, r);
    }

  private:
    SystemParams _p;
    sim::Context _ctx;
    sim::EventQueue _queue;
    sim::health::Monitor _health;
    std::unique_ptr<fabric::Fabric> _fabric;
    std::vector<std::unique_ptr<node::Node>> _nodes;
    std::vector<Resettable *> _resettables;

    /**
     * Conservation baselines: word counters at the last audit (or
     * reset). Deltas, not lifetime sums — resetForRun() voids symbols
     * still in flight, which would skew a cumulative balance forever.
     */
    double _auditBaseSent = 0.0;
    double _auditBaseReceived = 0.0;
    double _auditBaseDropped = 0.0;

    /** Sum NI word counters across all networks and nodes. */
    void sumNiWords(double &sent, double &received);

    /** Re-snapshot the conservation baselines at current counters. */
    void snapshotAuditBaselines();
};

} // namespace pm::msg

#endif // PM_MSG_SYSTEM_HH
