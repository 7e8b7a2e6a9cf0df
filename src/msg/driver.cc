#include "msg/driver.hh"

#include <algorithm>

#include "net/symbol.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pm::msg {

namespace {

/** Wire header message types (the top nibble of the header word). */
enum : unsigned {
    kData = 1,
    kAck = 2,
    kNack = 3,
};

/** Decoded form of the 64-bit wire header. */
struct Header
{
    unsigned type = 0;
    unsigned src = 0;
    std::uint16_t seq = 0;
    std::uint16_t ack = 0;
    std::uint32_t len = 0;
};

std::uint64_t
packHeader(unsigned type, unsigned src, std::uint16_t seq,
           std::uint16_t ack, std::uint32_t len)
{
    return (static_cast<std::uint64_t>(type & 0xf) << 60) |
           (static_cast<std::uint64_t>(src & 0xfff) << 48) |
           (static_cast<std::uint64_t>(seq) << 32) |
           (static_cast<std::uint64_t>(ack) << 16) |
           static_cast<std::uint64_t>(len & 0xffff);
}

Header
decodeHeader(std::uint64_t w)
{
    Header h;
    h.type = static_cast<unsigned>(w >> 60) & 0xf;
    h.src = static_cast<unsigned>(w >> 48) & 0xfff;
    h.seq = static_cast<std::uint16_t>(w >> 32);
    h.ack = static_cast<std::uint16_t>(w >> 16);
    h.len = static_cast<std::uint32_t>(w & 0xffff);
    return h;
}

/**
 * Circular 16-bit sequence compare: negative when `a` is before `b`.
 * Well-defined as long as fewer than 32768 messages are in flight to
 * one destination (enforced in postSend).
 */
int
seqDiff(std::uint16_t a, std::uint16_t b)
{
    return static_cast<std::int16_t>(static_cast<std::uint16_t>(a - b));
}

} // namespace

PmComm::PmComm(System &sys, unsigned nodeId, unsigned cpu, unsigned net,
               DriverCosts costs)
    : _sys(sys),
      _queue(sys.queue()),
      _nodeId(nodeId),
      _net(net),
      _costs(costs),
      _proc(sys.node(nodeId).proc(cpu)),
      _ni(sys.ni(nodeId, net)),
      _clk(sys.node(nodeId).proc(cpu).params().clockMhz),
      _stats("driver.node" + std::to_string(nodeId))
{
    _stats.add(&messagesSent);
    _stats.add(&messagesReceived);
    _stats.add(&retransmits);
    _stats.add(&crcDrops);
    _stats.add(&duplicateDiscards);
    _stats.add(&outOfOrderDiscards);
    _stats.add(&timeouts);
    _stats.add(&acksSent);
    _stats.add(&nacksSent);
    _stats.add(&deliveryFailures);
    sys.attach(this);
    // Wake the engine when receive work appears while it is dormant
    // (no posted receives, nothing unacked): a late retransmit or
    // delayed ACK must still be drained, or the incoming link wedges.
    // While the engine is scheduled — always, during active traffic —
    // this kick is a no-op, so the event stream of a busy run does not
    // change.
    _ni.onRecvActivity([this] { kick(); });
}

PmComm::~PmComm()
{
    _ni.onRecvActivity(sim::EventFn());
    _sys.detach(this);
    // Harmlessly return false for events that already ran.
    _queue.cancel(_engineEvent);
    for (auto &[dst, peer] : _tx)
        _queue.cancel(peer.timer);
    for (auto &[src, peer] : _rx)
        _queue.cancel(peer.ackTimer);
}

void
PmComm::resetForRun()
{
    _queue.cancel(_engineEvent);
    for (auto &[dst, peer] : _tx)
        _queue.cancel(peer.timer);
    for (auto &[src, peer] : _rx)
        _queue.cancel(peer.ackTimer);
    _sends.clear();
    _recvs.clear();
    _tx.clear();
    _rx.clear();
    _cur = {};
    _stash.clear();
    _lastProgress = _queue.now();
}

bool
PmComm::quiescent() const
{
    return _sends.empty() && !_cur.haveHeader && !anyUnacked();
}

bool
PmComm::anyUnacked() const
{
    for (const auto &[dst, peer] : _tx)
        if (!peer.unacked.empty())
            return true;
    return false;
}

void
PmComm::postSend(unsigned dstNode, std::vector<std::uint64_t> payload,
                 std::function<void()> onDone, Addr srcAddr)
{
    if (payload.size() > kMaxPayloadWords)
        pm_fatal("driver node%u: %zu-word payload exceeds the "
                 "%u-word wire header length field",
                 _nodeId, payload.size(), kMaxPayloadWords);
    TxPeer &peer = _tx[dstNode];
    if (peer.dead) {
        // The retry budget to this destination is already exhausted;
        // fail fast instead of queueing behind a dead link.
        ++deliveryFailures;
        if (_onFailure) {
            _onFailure(dstNode, peer.nextSeq, /*abandoned=*/1);
            return;
        }
        pm_panic("driver node%u: send to node %u after delivery failure",
                 _nodeId, dstNode);
    }
    if (peer.unacked.size() >= kMaxUnacked)
        pm_fatal("driver node%u: over %u unacknowledged messages to "
                 "node %u (16-bit sequence space)",
                 _nodeId, kMaxUnacked, dstNode);

    const std::uint16_t seq = peer.nextSeq++;
    auto sp = std::make_shared<std::vector<std::uint64_t>>(
        std::move(payload));
    peer.unackedWords += sp->size();
    peer.unacked.push_back(Unacked{seq, sp, srcAddr, true});
    peer.lastAdvance = _queue.now();

    SendOp op;
    op.dst = dstNode;
    op.seq = seq;
    op.payload = std::move(sp);
    op.srcAddr = srcAddr;
    op.onDone = std::move(onDone);
    op.route = _sys.fabric().route(_nodeId, dstNode,
                                   /*spread=*/_nodeId + dstNode);
    _sends.push_back(std::move(op));
    armRetransTimer(dstNode, peer);
    kick();
}

void
PmComm::postRecv(RecvCallback onDone, Addr dstAddr)
{
    if (!_stash.empty()) {
        // A message already arrived in order with no receive posted;
        // hand it over now (copied into place through the cache).
        std::vector<std::uint64_t> words = std::move(_stash.front());
        _stash.pop_front();
        _proc.stallCycles(_costs.recvSetup);
        for (std::size_t i = 0; i < words.size(); ++i)
            _proc.store(dstAddr + i * 8);
        if (onDone)
            onDone(std::move(words), true);
        return;
    }
    RecvOp op;
    op.dstAddr = dstAddr;
    op.onDone = std::move(onDone);
    _recvs.push_back(std::move(op));
    kick();
}

void
PmComm::kick()
{
    const Tick when =
        _proc.time() > _queue.now() ? _proc.time() : _queue.now();
    scheduleEngine(when);
}

void
PmComm::scheduleEngine(Tick when)
{
    if (_queue.scheduled(_engineEvent))
        return;
    _engineEvent = _queue.schedule(when, [this] { engine(); });
}

// ---- Receive side. ------------------------------------------------------

/**
 * Decode the just-drained header and decide how the rest of the
 * message drains: only an in-sequence DATA message is copied to the
 * posted receive's buffer (and requires one to be posted); control
 * messages, duplicates, and ahead-of-sequence messages drain freely
 * and are dealt with when the CRC verdict is in.
 */
void
PmComm::classify(RxAssembly &cur)
{
    const Header h = decodeHeader(cur.header);
    cur.inOrderData = false;
    if (h.type == kData && h.src < _sys.numNodes() && h.src != _nodeId) {
        const auto it = _rx.find(h.src);
        const std::uint16_t expect =
            it == _rx.end() ? 0 : it->second.expect;
        if (seqDiff(h.seq, expect) == 0) {
            cur.inOrderData = true;
            cur.words.reserve(h.len);
        }
    }
}

/**
 * Drain the receive FIFO, at most one burst: completed messages are
 * finalized (protocol actions + delivery), further words accumulate
 * into the in-progress assembly.
 * @return true if anything progressed.
 */
bool
PmComm::serviceRecv()
{
    // The receive engine runs while software expects anything inbound
    // — a posted receive, a half-drained message, or pending ACKs for
    // unacknowledged sends — and also while the NI actually holds
    // traffic: a duplicate retransmitted after the last posted receive
    // completed must still be drained and re-ACKed, or the sender
    // burns its whole retry budget against a wedged link.
    if (_recvs.empty() && !_cur.haveHeader && !anyUnacked() &&
        _ni.recvAvailable() == 0 && !_ni.frontMessageDrained())
        return false;
    if (!_recvs.empty() && !_recvs.front().started) {
        _recvs.front().started = true;
        _proc.stallCycles(_costs.recvSetup);
    }

    bool progress = false;

    // Status read: how many words are visible right now?
    _proc.pioBeat();

    const unsigned depth = _ni.params().fifoWords;
    unsigned burst = 0;
    while (burst < depth) {
        if (_ni.frontMessageDrained()) {
            finishMessage();
            progress = true;
            continue;
        }
        if (_ni.recvAvailable() == 0)
            break;
        // Backpressure: an in-sequence DATA payload needs the posted
        // receive's buffer; everything else drains unconditionally so
        // duplicates and control traffic can never wedge the link.
        if (_cur.haveHeader && _cur.inOrderData && _recvs.empty())
            break;
        _proc.pioBeat(); // uncached FIFO read
        const std::uint64_t w = _ni.popRecv();
        ++burst;
        progress = true;
        if (!_cur.haveHeader) {
            _cur.haveHeader = true;
            _cur.header = w;
            classify(_cur);
        } else {
            if (_cur.inOrderData && !_recvs.empty())
                _proc.store(_recvs.front().dstAddr +
                            _cur.words.size() * 8);
            _cur.words.push_back(w);
        }
    }
    return progress;
}

/** The front message's words are all drained and its CRC verdict is in. */
void
PmComm::finishMessage()
{
    const ni::LinkInterface::RecvMsgInfo info = _ni.consumeMessage();
    RxAssembly cur = std::move(_cur);
    _cur = RxAssembly{};

    if (!cur.haveHeader) {
        _proc.stallCycles(_costs.protocolCheck);
        // Wire damage erased the whole frame, header included; nothing
        // to NACK (unknown source) — the sender's timeout recovers.
        ++crcDrops;
        pm_trace(_proc.time(), "driver",
                 "node%u: dropped headerless frame", _nodeId);
        return;
    }

    const Header h = decodeHeader(cur.header);
    const bool plausible =
        (h.type == kData || h.type == kAck || h.type == kNack) &&
        h.src < _sys.numNodes() && h.src != _nodeId;

    if (!info.crcOk) {
        _proc.stallCycles(_costs.protocolCheck);
        ++crcDrops;
        pm_trace(_proc.time(), "driver",
                 "node%u: CRC drop (%zu words, type %u from %u)",
                 _nodeId, cur.words.size(), h.type, h.src);
        // Only trust the header enough to route a NACK when it is at
        // least plausible; otherwise stay silent and let the sender's
        // timeout do the work.
        if (plausible && h.type == kData)
            queueControl(kNack, h.src);
        return;
    }
    if (!plausible) {
        _proc.stallCycles(_costs.protocolCheck);
        ++crcDrops;
        pm_trace(_proc.time(), "driver",
                 "node%u: dropped implausible header %016llx", _nodeId,
                 (unsigned long long)cur.header);
        return;
    }

    // Every message type carries a cumulative ACK.
    handleAck(h.src, h.ack);

    if (h.type == kAck) {
        _proc.stallCycles(_costs.protocolCheck);
        return;
    }
    if (h.type == kNack) {
        _proc.stallCycles(_costs.protocolCheck);
        const auto it = _tx.find(h.src);
        if (it != _tx.end() && !it->second.dead &&
            !it->second.unacked.empty()) {
            pm_trace(_proc.time(), "driver",
                     "node%u: NACK from %u, rewinding", _nodeId, h.src);
            rewind(h.src, it->second);
            kick();
        }
        return;
    }

    // DATA. A CRC-clean message always has exactly the advertised
    // length; check defensively anyway.
    if (cur.words.size() != h.len) {
        _proc.stallCycles(_costs.protocolCheck);
        ++crcDrops;
        queueControl(kNack, h.src);
        return;
    }
    RxPeer &peer = _rx[h.src];
    const int d = seqDiff(h.seq, peer.expect);
    if (d < 0) {
        // Already delivered (the ACK was lost or late); re-ACK so the
        // sender stops retransmitting.
        _proc.stallCycles(_costs.protocolCheck);
        ++duplicateDiscards;
        pm_trace(_proc.time(), "driver",
                 "node%u: duplicate seq %u from %u discarded", _nodeId,
                 h.seq, h.src);
        queueControl(kAck, h.src);
        return;
    }
    if (d > 0) {
        // A gap: an earlier message of the go-back-N window was lost.
        _proc.stallCycles(_costs.protocolCheck);
        ++outOfOrderDiscards;
        pm_trace(_proc.time(), "driver",
                 "node%u: out-of-order seq %u (expect %u) from %u",
                 _nodeId, h.seq, peer.expect, h.src);
        queueControl(kNack, h.src);
        return;
    }
    peer.expect = static_cast<std::uint16_t>(peer.expect + 1);
    ++messagesReceived;
    _ring.push(_queue.now(), "recvd", h.src, h.seq);
    noteDelivered(h.src);
    pm_trace(_proc.time(), "driver",
             "node%u: received %zu-word message seq %u from %u",
             _nodeId, cur.words.size(), h.seq, h.src);
    deliver(std::move(cur.words));
}

void
PmComm::deliver(std::vector<std::uint64_t> words)
{
    if (_recvs.empty()) {
        _stash.push_back(std::move(words));
        return;
    }
    RecvOp op = std::move(_recvs.front());
    _recvs.pop_front();
    if (op.onDone)
        op.onDone(std::move(words), /*crcOk=*/true);
}

/** Account one in-order delivery towards the cumulative-ACK policy. */
void
PmComm::noteDelivered(unsigned src)
{
    RxPeer &peer = _rx[src];
    ++peer.sinceAck;
    if (peer.sinceAck >= _costs.ackEvery) {
        peer.sinceAck = 0;
        _queue.cancel(peer.ackTimer);
        queueControl(kAck, src);
        return;
    }
    if (!_queue.scheduled(peer.ackTimer)) {
        const Tick base = std::max(_queue.now(), _proc.time());
        peer.ackTimer =
            _queue.schedule(base + _clk.cycles(_costs.ackDelay),
                                  [this, src] { ackTimerFired(src); });
    }
}

void
PmComm::ackTimerFired(unsigned src)
{
    RxPeer &peer = _rx[src];
    if (peer.sinceAck == 0)
        return;
    peer.sinceAck = 0;
    queueControl(kAck, src);
}

/** A DATA header to `dst` just left with a piggybacked cumulative ACK. */
void
PmComm::piggybackAckCleared(unsigned dst)
{
    const auto it = _rx.find(dst);
    if (it == _rx.end())
        return;
    it->second.sinceAck = 0;
    _queue.cancel(it->second.ackTimer);
}

// ---- Send side. ---------------------------------------------------------

/** The wire header for `op`, with the freshest cumulative ACK. */
std::uint64_t
PmComm::headerFor(const SendOp &op)
{
    const auto it = _rx.find(op.dst);
    const std::uint16_t ack = it == _rx.end() ? 0 : it->second.expect;
    if (op.control)
        return packHeader(op.ctrlType, _nodeId, ack, ack, 0);
    return packHeader(kData, _nodeId, op.seq, ack,
                      static_cast<std::uint32_t>(op.payload->size()));
}

/** Queue a standalone ACK/NACK; control jumps ahead of queued data. */
void
PmComm::queueControl(unsigned type, unsigned dst)
{
    for (const auto &op : _sends)
        if (op.control && op.ctrlType == type && op.dst == dst &&
            !op.started)
            return; // an equivalent one is queued and still cumulative
    SendOp op;
    op.control = true;
    op.ctrlType = type;
    op.dst = dst;
    op.route = _sys.fabric().route(_nodeId, dst,
                                   /*spread=*/_nodeId + dst);
    // Never preempt an op whose symbols are already entering the FIFO.
    auto pos = _sends.begin();
    if (!_sends.empty() && _sends.front().started)
        ++pos;
    _sends.insert(pos, std::move(op));
    kick();
}

/**
 * Process a cumulative ACK: everything before `ack` is delivered.
 * @return true when at least one message was newly acknowledged.
 */
void
PmComm::handleAck(unsigned src, std::uint16_t ack)
{
    const auto it = _tx.find(src);
    if (it == _tx.end())
        return;
    TxPeer &peer = it->second;
    bool progress = false;
    while (!peer.unacked.empty() &&
           seqDiff(peer.unacked.front().seq, ack) < 0) {
        peer.unackedWords -= peer.unacked.front().payload->size();
        peer.unacked.pop_front();
        progress = true;
    }
    if (progress) {
        peer.strikes = 0;
        peer.backoff = 0;
        peer.lastAdvance = _queue.now();
        _queue.cancel(peer.timer);
        armRetransTimer(src, peer);
    }
}

/** Queue retransmit ops for every unACKed message not already queued. */
void
PmComm::rewind(unsigned dst, TxPeer &peer)
{
    // Never preempt a half-transmitted op; insert right after it, in
    // sequence order, so the wire sees the window replayed in order.
    auto pos = _sends.begin();
    if (!_sends.empty() && _sends.front().started)
        ++pos;
    for (auto &entry : peer.unacked) {
        if (entry.queued)
            continue;
        entry.queued = true;
        SendOp op;
        op.dst = dst;
        op.retransmit = true;
        op.seq = entry.seq;
        op.payload = entry.payload;
        op.srcAddr = entry.srcAddr;
        op.route = _sys.fabric().route(_nodeId, dst,
                                       /*spread=*/_nodeId + dst);
        pos = ++_sends.insert(pos, std::move(op));
    }
}

void
PmComm::armRetransTimer(unsigned dst, TxPeer &peer)
{
    if (peer.unacked.empty() || peer.dead)
        return;
    if (_queue.scheduled(peer.timer))
        return;
    const Cycles wait =
        (_costs.retransBase + _costs.retransPerWord * peer.unackedWords)
        << std::min(peer.backoff, 12u);
    const Tick base = std::max(_queue.now(), _proc.time());
    peer.timer = _queue.schedule(
        base + _clk.cycles(wait), [this, dst] { retransTimerFired(dst); });
}

void
PmComm::retransTimerFired(unsigned dst)
{
    TxPeer &peer = _tx[dst];
    if (peer.dead || peer.unacked.empty())
        return;
    ++timeouts;
    _ring.push(_queue.now(), "timeout", dst, peer.strikes + 1);
    peer.backoff = std::min(peer.backoff + 1, 12u);
    pm_trace(_queue.now(), "driver",
             "node%u: retransmit timeout to %u (strike %u, backoff %u)",
             _nodeId, dst, peer.strikes + 1, peer.backoff);
    strike(dst, peer);
    if (peer.dead)
        return;
    rewind(dst, peer);
    armRetransTimer(dst, peer);
    kick();
}

/** One fruitless recovery round; too many in a row is a failure. */
void
PmComm::strike(unsigned dst, TxPeer &peer)
{
    if (++peer.strikes > _costs.maxRetries)
        fail(dst, peer);
}

/** The retry budget is exhausted: surface a delivery failure. */
void
PmComm::fail(unsigned dst, TxPeer &peer)
{
    peer.dead = true;
    _queue.cancel(peer.timer);
    const std::uint16_t seq =
        peer.unacked.empty() ? peer.nextSeq : peer.unacked.front().seq;
    const unsigned abandoned =
        static_cast<unsigned>(peer.unacked.size());
    peer.unacked.clear();
    peer.unackedWords = 0;
    _ring.push(_queue.now(), "peer-dead", dst, abandoned);
    // Drop queued sends to the dead destination (a started op finishes
    // its wire protocol so the link stays consistent).
    for (auto it = _sends.begin(); it != _sends.end();) {
        if (!it->control && it->dst == dst && !it->started)
            it = _sends.erase(it);
        else
            ++it;
    }
    ++deliveryFailures;
    pm_trace(_queue.now(), "driver",
             "node%u: delivery to %u FAILED at seq %u", _nodeId, dst,
             seq);
    if (_onFailure) {
        _onFailure(dst, seq, abandoned);
        return;
    }
    pm_panic("driver node%u: message seq %u to node %u undeliverable "
             "after %u retries (%u messages abandoned)",
             _nodeId, seq, dst, _costs.maxRetries, abandoned);
}

/**
 * Feed the send FIFO from the pending send, at most one burst.
 * @return true if any symbol moved (progress).
 */
bool
PmComm::serviceSend()
{
    if (_sends.empty())
        return false;
    SendOp &op = _sends.front();

    // A queued retransmit whose message got ACKed in the meantime is
    // moot; skip it before spending any cycles.
    if (op.retransmit && !op.started) {
        const TxPeer &peer = _tx[op.dst];
        const auto it = std::find_if(
            peer.unacked.begin(), peer.unacked.end(),
            [&](const Unacked &u) { return u.seq == op.seq; });
        if (it == peer.unacked.end()) {
            _sends.pop_front();
            return true;
        }
    }

    if (!op.started) {
        op.started = true;
        _proc.stallCycles(op.control ? _costs.ackSetup
                                     : _costs.sendSetup);
    }

    // Status read: free FIFO entries.
    _proc.pioBeat();
    unsigned space = _ni.sendSpace();
    if (space == 0)
        return false;

    bool progress = false;
    unsigned burst = 0;
    const unsigned depth = _ni.params().fifoWords;

    // Route commands (one per crossbar on the path).
    while (op.routePushed < op.route.size() && space > 0 &&
           burst < depth) {
        _proc.pioBeat();
        _ni.pushSend(net::Symbol::makeRoute(op.route[op.routePushed]),
                     _proc.time());
        ++op.routePushed;
        --space;
        ++burst;
        progress = true;
    }

    // Header word: type, source, sequence, cumulative ACK, length.
    if (op.routePushed == op.route.size() && !op.headerPushed &&
        space > 0 && burst < depth) {
        _proc.pioBeat();
        _ni.pushSend(net::Symbol::makeData(headerFor(op)), _proc.time());
        piggybackAckCleared(op.dst);
        op.headerPushed = true;
        --space;
        ++burst;
        progress = true;
    }

    // Payload words: load from memory, store to the FIFO.
    while (op.headerPushed && op.payload &&
           op.nextWord < op.payload->size() && space > 1 &&
           burst < depth) {
        _proc.load(op.srcAddr + op.nextWord * 8);
        _proc.pioBeat();
        _ni.pushSend(net::Symbol::makeData((*op.payload)[op.nextWord]),
                     _proc.time());
        ++op.nextWord;
        --space;
        ++burst;
        progress = true;
    }

    // Close command (the interface inserts the CRC itself).
    if (op.headerPushed &&
        (!op.payload || op.nextWord >= op.payload->size()) &&
        space > 0) {
        _proc.pioBeat();
        _ni.pushSend(net::Symbol::makeClose(), _proc.time());
        if (op.control) {
            if (op.ctrlType == kAck)
                ++acksSent;
            else
                ++nacksSent;
        } else if (op.retransmit) {
            ++retransmits;
            _ring.push(_queue.now(), "retransmit", op.dst, op.seq);
        } else {
            ++messagesSent;
            _ring.push(_queue.now(), "sent", op.dst, op.seq);
        }
        if (!op.control) {
            TxPeer &peer = _tx[op.dst];
            for (auto &entry : peer.unacked) {
                if (entry.seq == op.seq) {
                    entry.queued = false;
                    break;
                }
            }
            armRetransTimer(op.dst, peer);
        }
        pm_trace(_proc.time(), "driver",
                 "node%u: sent %s seq %u to node %u", _nodeId,
                 op.control ? (op.ctrlType == kAck ? "ACK" : "NACK")
                            : (op.retransmit ? "retransmit" : "message"),
                 op.seq, op.dst);
        SendOp done = std::move(_sends.front());
        _sends.pop_front();
        if (done.onDone)
            done.onDone();
        progress = true;
    }
    return progress;
}

// ---- Health. -----------------------------------------------------------

std::vector<unsigned>
PmComm::deadPeers() const
{
    std::vector<unsigned> dead;
    // std::map iteration: already ascending, so deterministic.
    for (const auto &[dst, peer] : _tx)
        if (peer.dead)
            dead.push_back(dst);
    return dead;
}

void
PmComm::checkHealth(sim::health::Check &check)
{
    for (const auto &[dst, peer] : _tx) {
        if (peer.dead || peer.unacked.empty())
            continue;
        if (check.expired(peer.lastAdvance))
            check.report("retransmit queue to node %u not draining "
                         "(%zu unACKed from seq %u, %u strikes) since "
                         "tick %llu",
                         dst, peer.unacked.size(),
                         peer.unacked.front().seq, peer.strikes,
                         (unsigned long long)peer.lastAdvance);
    }
    if (!_sends.empty() && check.expired(_lastProgress))
        check.report("send queue stalled (%zu queued, head to node %u%s) "
                     "since tick %llu",
                     _sends.size(), _sends.front().dst,
                     _sends.front().started ? ", started" : "",
                     (unsigned long long)_lastProgress);
}

void
PmComm::audit(sim::health::Auditor &audit)
{
    audit.check(_sends.empty(), "%zu sends still queued", _sends.size());
    audit.check(!_cur.haveHeader, "a message is half-assembled");
    for (const auto &[dst, peer] : _tx) {
        if (peer.dead)
            continue; // abandoned window, by design
        audit.check(peer.unacked.empty(),
                    "%zu messages to node %u still unACKed",
                    peer.unacked.size(), dst);
    }
    if (audit.point() == sim::health::Auditor::Point::PostReset) {
        audit.check(_recvs.empty(), "%zu receives still posted",
                    _recvs.size());
        audit.check(_stash.empty(), "%zu stashed deliveries",
                    _stash.size());
        audit.check(_tx.empty() && _rx.empty(),
                    "peer state survived the reset");
    }
}

void
PmComm::dumpState(std::ostream &os) const
{
    os << "  queues: sends=" << _sends.size() << " recvs=" << _recvs.size()
       << " stash=" << _stash.size()
       << " curHeader=" << (_cur.haveHeader ? 1 : 0)
       << " lastProgress=" << _lastProgress << "\n";
    for (const auto &[dst, peer] : _tx) {
        os << "  tx->" << dst << ": nextSeq=" << peer.nextSeq
           << " unacked=" << peer.unacked.size();
        if (!peer.unacked.empty())
            os << " (from seq " << peer.unacked.front().seq << ")";
        os << " strikes=" << peer.strikes << " backoff=" << peer.backoff
           << (peer.dead ? " DEAD" : "")
           << " lastAdvance=" << peer.lastAdvance << "\n";
    }
    for (const auto &[src, peer] : _rx)
        os << "  rx<-" << src << ": expect=" << peer.expect
           << " sinceAck=" << peer.sinceAck << "\n";
    _ring.dump(os);
}

bool
PmComm::workPending() const
{
    return !_sends.empty() || !_recvs.empty() || _cur.haveHeader ||
           anyUnacked() || _ni.recvAvailable() != 0 ||
           _ni.frontMessageDrained();
}

void
PmComm::engine()
{
    _proc.advanceTo(_queue.now());
    _proc.bus()->setTimeFloor(_sys.timeFloor(_nodeId));

    // Receive first: the paper's driver empties the receive FIFO
    // between send bursts so the incoming link never backs up into the
    // network longer than one burst.
    bool progress = serviceRecv();
    progress |= serviceSend();
    if (progress)
        _lastProgress = _queue.now();

    if (!workPending())
        return;

    Tick next = _proc.time();
    if (!progress)
        next += _clk.cycles(_costs.pollGap);
    scheduleEngine(next);
}

} // namespace pm::msg
