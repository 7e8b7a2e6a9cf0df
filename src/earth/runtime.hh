/**
 * @file
 * An EARTH-style fine-grain multithreading runtime on PowerMANNA.
 *
 * Section 7 of the paper: "for the forerunner MANNA machine, the EARTH
 * system was shown to offer low communication cost close to the
 * hardware limits. In a cooperation project with the University of
 * Delaware, EARTH is currently being ported to the PowerMANNA
 * machine." This module is that port, built on the simulator's
 * user-level driver.
 *
 * The EARTH model (Hum et al. [18]): programs decompose into *fibers*
 * — short, non-preemptive code sequences scheduled when their inputs
 * are ready. Readiness is tracked by *sync slots*: counters that fire
 * a fiber when they reach zero. Communication is *split-phase*: a
 * remote load (GET_SYNC) or store (DATA_SYNC) is issued and the
 * requesting fiber ends; the response decrements a sync slot, which
 * eventually schedules the continuation fiber. Each node conceptually
 * has an Execution Unit running fibers and a Synchronization Unit
 * handling remote requests; on PowerMANNA both are the node CPU
 * driving the link interface — exactly the lightweight-NI usage the
 * paper advocates.
 *
 * All operations are charged on the simulated processor and travel as
 * real messages (CRC-checked) through the crossbar network.
 */

#ifndef PM_EARTH_RUNTIME_HH
#define PM_EARTH_RUNTIME_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "msg/driver.hh"
#include "msg/system.hh"
#include "sim/event.hh"
#include "sim/health.hh"
#include "sim/stats.hh"

namespace pm::earth {

class NodeRt;
class Runtime;

/** A fiber body: runs to completion on its node's processor. */
using FiberFn = std::function<void(NodeRt &)>;

/** A registered (SPMD) threaded function invocable remotely. */
using ThreadedFn =
    std::function<void(NodeRt &, const std::vector<std::uint64_t> &)>;

/** Handle of a sync slot on some node. */
struct SlotRef
{
    unsigned node = 0;
    std::uint32_t id = 0;
};

/** Per-fiber / per-op cost knobs (EARTH-MANNA-style overheads). */
struct EarthCosts
{
    Cycles fiberDispatch = 30; //!< EU: pick + start one ready fiber.
    Cycles syncUpdate = 15; //!< SU: decrement a sync slot.
    Cycles requestHandling = 40; //!< SU: decode + serve a remote op.
    msg::DriverCosts driver{}; //!< Transport knobs (retry budget etc.)
                               //!< for every node's PmComm.
};

/** One node's EARTH runtime (EU + SU on the node CPU). */
class NodeRt
{
  public:
    NodeRt(Runtime &rt, unsigned nodeId);

    /** Cancels any still-scheduled EU event. */
    ~NodeRt();

    NodeRt(const NodeRt &) = delete;
    NodeRt &operator=(const NodeRt &) = delete;

    unsigned nodeId() const { return _nodeId; }
    cpu::Proc &proc();

    // ---- Sync slots. --------------------------------------------------

    /**
     * Create a sync slot that schedules `continuation` locally when
     * its count reaches zero.
     */
    SlotRef makeSlot(unsigned count, FiberFn continuation);

    /** Decrement a slot (local or remote: SYNC token). */
    void sync(SlotRef slot);

    // ---- Fibers. -------------------------------------------------------

    /** Enqueue a fiber on this node's ready queue. */
    void spawnLocal(FiberFn fiber);

    /**
     * Invoke registered function `fnId` on `node` with `args`
     * (INVOKE token). Fire-and-forget; completion is signalled by
     * whatever syncs the function body performs.
     */
    void invokeRemote(unsigned node, std::uint32_t fnId,
                      std::vector<std::uint64_t> args);

    // ---- Split-phase global memory. ------------------------------------

    /** Write to this node's slice of global memory (local, charged). */
    void storeLocal(Addr addr, std::uint64_t value);

    /** Read this node's slice (local, charged). */
    std::uint64_t loadLocal(Addr addr);

    /**
     * GET_SYNC: fetch `addr` from `node`'s memory into `dest` (host
     * storage of the continuation), then sync `slot`.
     */
    void getRemote(unsigned node, Addr addr, std::uint64_t *dest,
                   SlotRef slot);

    /** DATA_SYNC: store `value` to `addr` on `node`, then sync `slot`. */
    void putRemote(unsigned node, Addr addr, std::uint64_t value,
                   SlotRef slot);

    sim::Scalar fibersRun{"fibers_run", ""};
    sim::Scalar syncsHandled{"syncs", ""};
    sim::Scalar remoteOps{"remote_ops", ""};
    sim::Scalar getsFailed{"gets_failed", ""};

  private:
    friend class Runtime;

    struct Slot
    {
        unsigned count = 0;
        FiberFn continuation;
    };

    /** A GET_SYNC awaiting its reply from `target`. */
    struct PendingGet
    {
        std::uint64_t *dest = nullptr;
        unsigned target = 0;
        SlotRef slot;
    };

    Runtime &_rt;
    unsigned _nodeId;
    msg::PmComm _comm;
    std::deque<FiberFn> _ready;
    std::map<std::uint32_t, Slot> _slots;
    std::uint32_t _nextSlot = 1;
    std::map<Addr, std::uint64_t> _memory; //!< This node's global slice.
    std::map<std::uint32_t, PendingGet> _gets;
    std::uint32_t _nextGet = 1;
    sim::EventHandle _euEvent; //!< Live while an EU step is queued.

    /** The event queue this node's EU and driver live on. */
    sim::EventQueue &queue() { return _comm.queue(); }

    void armReceiver();
    void failPendingGets(unsigned deadPeer);
    void handleToken(std::vector<std::uint64_t> token);
    void scheduleEu();
    void euStep();
    void syncLocal(std::uint32_t slotId);
    void send(unsigned dstNode, std::vector<std::uint64_t> token);
    void noteActivity();
};

/**
 * Called when a node's transport gives up on a peer for good.
 * @param node The node whose send exhausted the retry budget.
 * @param deadPeer The peer now considered dead machine-wide.
 */
using PeerDeathFn = std::function<void(unsigned node, unsigned deadPeer)>;

/** The machine-wide EARTH runtime. */
class Runtime : public sim::health::Reporter
{
  public:
    /**
     * @param sys The machine (one NodeRt is built per node).
     * @param costs Software overhead knobs.
     */
    explicit Runtime(msg::System &sys, EarthCosts costs = {});

    ~Runtime() override;

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    msg::System &system() { return _sys; }
    const EarthCosts &costs() const { return _costs; }
    NodeRt &node(unsigned i) { return *_nodes.at(i); }
    unsigned numNodes() const
    {
        return static_cast<unsigned>(_nodes.size());
    }

    /**
     * Register an SPMD function under `fnId` on every node. Must be
     * done before it is invoked remotely.
     */
    void registerFunction(std::uint32_t fnId, ThreadedFn fn);

    /**
     * Run until global quiescence: no ready fibers, no in-flight
     * tokens, no pending syncs.
     * @return Simulated ticks elapsed.
     */
    Tick run();

    // ---- Graceful peer-death degradation. ------------------------------

    /**
     * Nodes some transport has given up on (retry budget exhausted),
     * ascending. The rest of the machine keeps running: tokens bound
     * for a dead peer fail instead of hanging the run, GETs awaiting
     * its reply are dropped (their sync slot never fires — the program
     * observes the gap through onPeerDeath), and run() still returns
     * when the survivors go quiescent.
     */
    std::vector<unsigned> deadPeers() const;

    /**
     * Install a handler invoked once per (node, dead peer) report,
     * inside the driver event in which the transport gave up.
     */
    void onPeerDeath(PeerDeathFn fn) { _onPeerDeath = std::move(fn); }

    /** @name sim::health::Reporter */
    /// @{
    const std::string &healthName() const override
    {
        return _healthName;
    }
    void checkHealth(sim::health::Check &check) override;
    void dumpState(std::ostream &os) const override;
    /// @}

  private:
    friend class NodeRt;

    msg::System &_sys;
    EarthCosts _costs;
    std::vector<std::unique_ptr<NodeRt>> _nodes;
    std::map<std::uint32_t, ThreadedFn> _functions;
    std::set<unsigned> _deadPeers;
    PeerDeathFn _onPeerDeath;
    std::string _healthName = "earth";

    /**
     * Tokens sent but not yet handled or written off. Signed and
     * possibly negative: a write-off is an upper bound (a lost ACK
     * makes delivery of the oldest message ambiguous — two-generals),
     * so <= 0 reads as "none in flight".
     */
    std::int64_t _inFlight = 0;
    Tick _lastActivity = 0; //!< Latest send/handle/fiber on any node.

    bool quiescent() const;
    const ThreadedFn &function(std::uint32_t fnId) const;

    /**
     * `node`'s transport gave up on `deadPeer` at `seq`, abandoning
     * `abandoned` tokens: warn, mark the peer dead machine-wide, write
     * off the tokens, drop `node`'s GETs awaiting the peer, and fire
     * the user callback. Runs inside the failing driver event.
     */
    void peerDied(NodeRt &node, unsigned deadPeer, std::uint64_t seq,
                  unsigned abandoned);
};

} // namespace pm::earth

#endif // PM_EARTH_RUNTIME_HH
