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

class PmComm;

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
     * endpoints through attach(), EARTH runtimes themselves.
     */
    sim::health::Monitor &health() { return _health; }

    /**
     * This machine's ambient simulation state — its health monitor,
     * which stamps and dumps a panic, and the inform() gate — fully
     * isolated from every other System in the process. drain(),
     * runDry() and the simulation entry points (probes, collectives,
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
     * drain() runs it once the machine is quiet().
     */
    void auditQuiescent(const char *where);

    /**
     * Reset node caches/timing, link interfaces, and every attached
     * endpoint between experiment runs, and bring every processor's
     * local clock up to the event queue's current time (queue time is
     * monotonic).
     */
    void resetForRun();

    /**
     * Attach a live endpoint: resetForRun() resets it, quiet() waits
     * for it, and the health monitor scans, audits and dumps it.
     * Resetting matters because a stale driver with unacknowledged
     * traffic keeps polling its link interface and would steal words
     * from the next phase's messages. PmComm attaches itself for its
     * lifetime.
     */
    void attach(PmComm *endpoint);
    void detach(PmComm *endpoint);

    /**
     * The machine is quiet: every attached endpoint is quiescent
     * (PmComm::quiescent()) and the fabric is wireQuiet(). Quiescence,
     * not idleness: an echo server's perpetually re-armed receive keeps
     * its driver polling, and the event queue non-empty, forever. And
     * quiet endpoints alone are not enough: a duplicate retransmit can
     * still be mid-fabric after both ends went quiet (the original's
     * ACK overtook it).
     */
    [[nodiscard]] bool quiet() const;

    /**
     * The earliest tick at which an attached endpoint on node `nodeId`
     * can still issue on the node bus: the minimum of queue().now()
     * and those endpoints' processor clocks. An endpoint issues from
     * its engine, which first brings its processor up to now(), or
     * from postRecv()'s stash path at its processor's clock; an
     * endpoint attached later first issues from an engine run at or
     * after now(). A processor with no endpoint is not counted: it
     * must not issue below this floor. PmComm's engine sets it as its
     * node bus's time floor, which the bus checks.
     */
    [[nodiscard]] Tick timeFloor(unsigned nodeId) const;

    /**
     * End a run on a quiet, audited machine: step the queue until
     * quiet(), then auditQuiescent(where). The last messages' ACK
     * handshakes are still in flight when a run's own condition is
     * met, and left on the wire they would pollute a later run on the
     * same machine. Returns false, without the audit, once an attached
     * endpoint has given up on a peer: its wedged send never quiesces.
     */
    bool drain(const char *where);

    /**
     * Run the events still scheduled past the quiet point (delayed ACK
     * timers), so the queue clock reaches the last of them — unless a
     * watchdog is armed: its scan reschedules itself forever, so the
     * queue never runs dry and the machine stays where drain() left
     * it.
     */
    void runDry();

  private:
    SystemParams _p;
    sim::EventQueue _queue;
    sim::health::Monitor _health;
    sim::Context _ctx{&_health};
    std::unique_ptr<fabric::Fabric> _fabric;
    std::vector<std::unique_ptr<node::Node>> _nodes;
    std::vector<PmComm *> _endpoints;

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
