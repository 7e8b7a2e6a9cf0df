#include "earth/runtime.hh"

#include <algorithm>

#include "sim/context.hh"
#include "sim/logging.hh"

namespace pm::earth {

namespace {

/** Token opcodes (word 0 on the wire). */
enum Op : std::uint64_t {
    kSync = 1,
    kInvoke = 2,
    kGetReq = 3,
    kGetReply = 4,
    kPut = 5,
};

} // namespace

// ---- NodeRt. ------------------------------------------------------------

NodeRt::NodeRt(Runtime &rt, unsigned nodeId)
    : _rt(rt),
      _nodeId(nodeId),
      _comm(rt.system(), nodeId, /*cpu=*/0, /*net=*/0, rt.costs().driver)
{
    // CRC failures are absorbed by the driver's retransmit protocol;
    // only an exhausted retry budget (a dead link) reaches the runtime.
    // Rather than stopping the whole machine, degrade without the peer.
    _comm.onDeliveryFailure(
        [this](unsigned dst, std::uint64_t seq, unsigned abandoned) {
            _rt.peerDied(*this, dst, seq, abandoned);
        });
    // Resumed machines (a System that ran probes before the runtime
    // was built) start the clock at the drained machine's "now".
    noteActivity();
    armReceiver();
}

NodeRt::~NodeRt()
{
    // Harmlessly returns false if the EU step already ran.
    queue().cancel(_euEvent);
}

cpu::Proc &
NodeRt::proc()
{
    return _comm.proc();
}

void
NodeRt::armReceiver()
{
    // The SU: one perpetually re-armed receive that dispatches tokens.
    // Corrupted messages never surface here — the driver NACKs and the
    // sender retransmits below this interface.
    _comm.postRecv([this](std::vector<std::uint64_t> words, bool) {
        handleToken(std::move(words));
        armReceiver();
    });
}

SlotRef
NodeRt::makeSlot(unsigned count, FiberFn continuation)
{
    if (count == 0)
        pm_fatal("earth: sync slot with zero count would never be "
                 "awaited consistently; spawn the fiber directly");
    const std::uint32_t id = _nextSlot++;
    _slots[id] = Slot{count, std::move(continuation)};
    return SlotRef{_nodeId, id};
}

void
NodeRt::syncLocal(std::uint32_t slotId)
{
    auto it = _slots.find(slotId);
    if (it == _slots.end())
        pm_panic("earth: sync on unknown slot %u at node %u", slotId,
                 _nodeId);
    ++syncsHandled;
    proc().stallCycles(_rt.costs().syncUpdate);
    if (--it->second.count == 0) {
        FiberFn fiber = std::move(it->second.continuation);
        _slots.erase(it);
        spawnLocal(std::move(fiber));
    }
}

void
NodeRt::sync(SlotRef slot)
{
    if (slot.node == _nodeId) {
        syncLocal(slot.id);
        return;
    }
    send(slot.node, {kSync, slot.id});
}

void
NodeRt::spawnLocal(FiberFn fiber)
{
    _ready.push_back(std::move(fiber));
    scheduleEu();
}

void
NodeRt::invokeRemote(unsigned node, std::uint32_t fnId,
                     std::vector<std::uint64_t> args)
{
    if (node == _nodeId) {
        // Local invoke: just a fiber.
        spawnLocal([this, fnId, args = std::move(args)](NodeRt &self) {
            _rt.function(fnId)(self, args);
        });
        return;
    }
    std::vector<std::uint64_t> token{kInvoke, fnId, args.size()};
    token.insert(token.end(), args.begin(), args.end());
    send(node, std::move(token));
}

void
NodeRt::storeLocal(Addr addr, std::uint64_t value)
{
    proc().store(addr);
    _memory[addr] = value;
}

std::uint64_t
NodeRt::loadLocal(Addr addr)
{
    proc().load(addr);
    auto it = _memory.find(addr);
    return it == _memory.end() ? 0 : it->second;
}

void
NodeRt::getRemote(unsigned node, Addr addr, std::uint64_t *dest,
                  SlotRef slot)
{
    ++remoteOps;
    if (node == _nodeId) {
        *dest = loadLocal(addr);
        sync(slot);
        return;
    }
    const std::uint32_t getId = _nextGet++;
    _gets[getId] = PendingGet{dest, node, slot};
    send(node, {kGetReq, addr, _nodeId, getId, slot.node, slot.id});
}

void
NodeRt::putRemote(unsigned node, Addr addr, std::uint64_t value,
                  SlotRef slot)
{
    ++remoteOps;
    if (node == _nodeId) {
        storeLocal(addr, value);
        sync(slot);
        return;
    }
    send(node, {kPut, addr, value, slot.node, slot.id});
}

void
NodeRt::noteActivity()
{
    _rt._lastActivity =
        std::max({_rt._lastActivity, _comm.now(), _comm.proc().time()});
}

void
NodeRt::send(unsigned dstNode, std::vector<std::uint64_t> token)
{
    ++_rt._inFlight;
    noteActivity();
    _comm.postSend(dstNode, std::move(token));
}

void
NodeRt::failPendingGets(unsigned deadPeer)
{
    for (auto it = _gets.begin(); it != _gets.end();) {
        if (it->second.target != deadPeer) {
            ++it;
            continue;
        }
        // The value can never arrive, and fabricating one would be
        // worse than silence — drop the request without firing the
        // sync slot. The program learns of the gap via onPeerDeath.
        pm_warn("earth: node %u abandoning GET %u to dead node %u "
                "(slot %u@%u will not fire)",
                _nodeId, it->first, deadPeer, it->second.slot.id,
                it->second.slot.node);
        ++getsFailed;
        it = _gets.erase(it);
    }
}

void
NodeRt::handleToken(std::vector<std::uint64_t> w)
{
    --_rt._inFlight;
    proc().stallCycles(_rt.costs().requestHandling);
    noteActivity();
    if (w.empty())
        pm_panic("earth: empty token");
    switch (w[0]) {
      case kSync:
        syncLocal(static_cast<std::uint32_t>(w[1]));
        return;
      case kInvoke: {
        const std::uint32_t fnId = static_cast<std::uint32_t>(w[1]);
        const std::uint64_t nargs = w[2];
        std::vector<std::uint64_t> args(w.begin() + 3,
                                        w.begin() + 3 + nargs);
        spawnLocal([this, fnId, args = std::move(args)](NodeRt &self) {
            _rt.function(fnId)(self, args);
        });
        return;
      }
      case kGetReq: {
        const Addr addr = w[1];
        const unsigned requester = static_cast<unsigned>(w[2]);
        const std::uint64_t value = loadLocal(addr);
        // Reply carries the value plus the slot to sync afterwards.
        send(requester, {kGetReply, w[3], value, w[4], w[5]});
        return;
      }
      case kGetReply: {
        const std::uint32_t getId = static_cast<std::uint32_t>(w[1]);
        auto it = _gets.find(getId);
        if (it == _gets.end())
            pm_panic("earth: GET reply for unknown request %u", getId);
        *it->second.dest = w[2];
        _gets.erase(it);
        sync(SlotRef{static_cast<unsigned>(w[3]),
                     static_cast<std::uint32_t>(w[4])});
        return;
      }
      case kPut: {
        storeLocal(w[1], w[2]);
        sync(SlotRef{static_cast<unsigned>(w[3]),
                     static_cast<std::uint32_t>(w[4])});
        return;
      }
      default:
        pm_panic("earth: unknown token opcode %llu",
                 (unsigned long long)w[0]);
    }
}

void
NodeRt::scheduleEu()
{
    auto &q = queue();
    if (q.scheduled(_euEvent) || _ready.empty())
        return;
    const Tick when = std::max(q.now(), proc().time());
    _euEvent = q.schedule(when, [this] { euStep(); });
}

void
NodeRt::euStep()
{
    if (_ready.empty())
        return;
    proc().advanceTo(queue().now());
    proc().stallCycles(_rt.costs().fiberDispatch);
    FiberFn fiber = std::move(_ready.front());
    _ready.pop_front();
    ++fibersRun;
    fiber(*this);
    noteActivity();
    scheduleEu();
}

// ---- Runtime. -------------------------------------------------------------

Runtime::Runtime(msg::System &sys, EarthCosts costs)
    : _sys(sys),
      _costs(costs)
{
    sys.resetForRun();
    sys.health().add(this);
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        _nodes.push_back(std::make_unique<NodeRt>(*this, n));
}

Runtime::~Runtime()
{
    _sys.health().remove(this);
}

void
Runtime::registerFunction(std::uint32_t fnId, ThreadedFn fn)
{
    if (_functions.count(fnId))
        pm_fatal("earth: function %u registered twice", fnId);
    _functions[fnId] = std::move(fn);
}

const ThreadedFn &
Runtime::function(std::uint32_t fnId) const
{
    auto it = _functions.find(fnId);
    if (it == _functions.end())
        pm_panic("earth: invoke of unregistered function %u", fnId);
    return it->second;
}

bool
Runtime::quiescent() const
{
    if (_inFlight > 0)
        return false;
    for (const auto &n : _nodes)
        if (!n->_ready.empty() || n->queue().scheduled(n->_euEvent))
            return false;
    return true;
}

Tick
Runtime::run()
{
    // Bind the machine's context: a deadlock panic below (or any
    // pm_assert inside the fibers) must resolve this System's tick
    // and machine dump even with sibling simulations in the process.
    sim::Context::Scope scope(_sys.context());
    const Tick start = _lastActivity;

    while (!quiescent() && _sys.queue().step()) {
    }
    if (!quiescent())
        pm_panic("earth: deadlock — event queue drained while fibers or "
                 "tokens remain");

    // The program is done; elapsed time is measured on the activity
    // stamp, not on the queue clock.
    const Tick end = _lastActivity;

    // Drain trailing ACK handshakes so the next run() — and any
    // post-run stats read — starts from a quiet machine. Not once a
    // peer died: its wedged sends never quiesce, so the survivors'
    // state is read where the program ended (and a death during the
    // drain stops it).
    if (_deadPeers.empty())
        _sys.drain("earth.run");

    return end > start ? end - start : 0;
}

// ---- Graceful peer-death degradation. -------------------------------------

void
Runtime::peerDied(NodeRt &node, unsigned deadPeer, std::uint64_t seq,
                  unsigned abandoned)
{
    pm_warn("earth: node %u gave up on node %u at seq %llu "
            "(%u tokens written off); degrading without it",
            node._nodeId, deadPeer, (unsigned long long)seq, abandoned);
    _deadPeers.insert(deadPeer);
    // The abandoned tokens will never be handled; leaving them counted
    // would turn every later run() into the deadlock panic.
    _inFlight -= abandoned;
    node.failPendingGets(deadPeer);
    if (_onPeerDeath)
        _onPeerDeath(node._nodeId, deadPeer);
}

std::vector<unsigned>
Runtime::deadPeers() const
{
    return {_deadPeers.begin(), _deadPeers.end()};
}

void
Runtime::checkHealth(sim::health::Check &check)
{
    if (_inFlight > 0 && check.expired(_lastActivity))
        check.report("%llu token(s) in flight but none handled since "
                     "tick %llu (fibers starved?)",
                     (unsigned long long)_inFlight,
                     (unsigned long long)_lastActivity);
}

void
Runtime::dumpState(std::ostream &os) const
{
    os << "  inFlight=" << std::max<std::int64_t>(0, _inFlight)
       << " deadPeers={";
    const char *sep = "";
    for (unsigned p : _deadPeers) {
        os << sep << p;
        sep = ",";
    }
    os << "}\n";
    for (const auto &n : _nodes) {
        os << "  node" << n->_nodeId << ": ready=" << n->_ready.size()
           << " slots=" << n->_slots.size()
           << " pendingGets=" << n->_gets.size()
           << " euScheduled="
           << (n->queue().scheduled(n->_euEvent) ? "yes" : "no")
           << "\n";
    }
}

} // namespace pm::earth
