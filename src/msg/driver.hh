/**
 * @file
 * The user-level communication driver (Sections 3.3 and 4).
 *
 * PowerMANNA has no NIC processor: a node CPU drives the link
 * interface directly with uncached loads and stores. This class is
 * that driver — an event-driven model of the optimized user-level MPI
 * transport: it assembles route headers from the fabric's routing
 * function, copies payload between the cache hierarchy and the
 * memory-mapped FIFOs word by word, polls status registers, and
 * interleaves send and receive work in bounded bursts.
 *
 * A burst moves at most one link-interface FIFO depth of words before
 * the driver switches direction. The burst interleaving reproduces the
 * paper's Figure 12 bottleneck: with 32-word FIFOs the driver "can send
 * at most 4 cache lines to fill the send-FIFO. Then the driver has to
 * test the receive-FIFO and possibly receive the incoming data" — the
 * direction switching, paid in PIO accesses, caps simultaneous
 * bidirectional throughput.
 *
 * Reliable delivery: the NI hardware only *detects* errors (CRC-32
 * per message); recovery is software's job. The driver runs a
 * go-back-N protocol over the existing header word — no extra wire
 * bytes — packing a message type, source node, 16-bit sequence
 * number, piggybacked cumulative ACK, and payload length into the 64
 * bits that previously carried only the length:
 *
 *   [63:60] type  (1 = DATA, 2 = ACK, 3 = NACK)
 *   [59:48] source node
 *   [47:32] sequence number (DATA) / echo of the expected seq (ctrl)
 *   [31:16] cumulative ACK: all seqs < this value are delivered
 *   [15: 0] payload words following the header
 *
 * Per destination the sender retains payloads until ACKed and
 * retransmits from the first unACKed message on a NACK or on a
 * timeout with exponential backoff; per source the receiver delivers
 * strictly in sequence, NACKs CRC failures, discards duplicates, and
 * acknowledges cumulatively (piggybacked on reverse DATA traffic, or
 * by a standalone ACK after `ackEvery` deliveries / `ackDelay`
 * cycles). A bounded budget of consecutive fruitless recovery rounds
 * surfaces a delivery failure instead of hanging. Every protocol
 * action is charged in DriverCosts cycles like any other PIO work.
 *
 * Every PIO access is charged on the node bus (contending with the
 * other processor), every payload word moves through the data cache,
 * and the payload bytes are real — CRC protected end to end.
 */

#ifndef PM_MSG_DRIVER_HH
#define PM_MSG_DRIVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/proc.hh"
#include "msg/system.hh"
#include "ni/linkinterface.hh"
#include "sim/clock.hh"
#include "sim/event.hh"
#include "sim/health.hh"
#include "sim/stats.hh"

namespace pm::msg {

/** Largest payload one message carries: the header's 16-bit length. */
inline constexpr unsigned kMaxPayloadWords = 0xffff;

/**
 * Most messages one sender may leave unacknowledged to one
 * destination, which keeps the 16-bit circular sequence compare
 * well-defined.
 */
inline constexpr unsigned kMaxUnacked = 30000;

/** Software cost knobs of the user-level transport. */
struct DriverCosts
{
    Cycles sendSetup = 315; //!< Entry, checks, route lookup (user-level
                            //!< MPI send path, ~1.75 us at 180 MHz).
    Cycles recvSetup = 228; //!< Posting/matching a receive.
    Cycles pollGap = 20; //!< Re-poll spacing when nothing progressed.

    // ---- Reliability protocol. --------------------------------------
    Cycles protocolCheck = 4; //!< Header decode + seq compare, charged
                              //!< on protocol slow paths (drops,
                              //!< duplicates, control). On the in-order
                              //!< fast path the compare overlaps the
                              //!< outstanding uncached FIFO reads on
                              //!< the 4-issue 620 and costs nothing
                              //!< extra.
    Cycles ackSetup = 40; //!< Assembling a standalone ACK/NACK.
    Cycles ackDelay = 18000; //!< Standalone-ACK latency bound (~100 us
                             //!< at 180 MHz) when no reverse traffic
                             //!< piggybacks one sooner.
    unsigned ackEvery = 8; //!< Deliveries per forced standalone ACK.
    Cycles retransBase = 90000; //!< Retransmit timeout floor (~500 us).
    Cycles retransPerWord = 64; //!< Timeout scaling per unACKed word.
    unsigned maxRetries = 8; //!< Consecutive fruitless recovery rounds
                             //!< before delivery failure is declared.
};

/** Completion callback for receives: payload words + CRC verdict. */
using RecvCallback =
    std::function<void(std::vector<std::uint64_t> payload, bool crcOk)>;

/**
 * Invoked when a message exhausts its retry budget. `abandoned` is the
 * number of messages dropped from the retransmit window — an upper
 * bound on undelivered messages (a message delivered whose ACK was
 * lost is also counted: the two-generals ambiguity is real).
 */
using DeliveryFailureFn = std::function<void(
    unsigned dstNode, std::uint64_t seq, unsigned abandoned)>;

/** One node's user-level communication endpoint. */
class PmComm : public sim::health::Reporter
{
  public:
    /**
     * @param sys The machine.
     * @param nodeId This endpoint's node.
     * @param cpu Which processor drives the interface.
     * @param net Which of the duplicated networks to use (the first
     *        implementation reserves network 1 for the OS).
     */
    PmComm(System &sys, unsigned nodeId, unsigned cpu = 0,
           unsigned net = 0, DriverCosts costs = {});

    PmComm(const PmComm &) = delete;
    PmComm &operator=(const PmComm &) = delete;

    /** Cancels any still-scheduled engine/timer events. */
    ~PmComm();

    unsigned nodeId() const { return _nodeId; }
    cpu::Proc &proc() { return _proc; }

    /**
     * This endpoint's event queue — the machine's queue. All driver
     * events (engine, timers) run here.
     */
    sim::EventQueue &queue() { return _queue; }

    /**
     * Current tick on this endpoint's queue. Probes read measurement
     * start/end times through this — *inside* completion callbacks,
     * where it equals the event's tick.
     */
    [[nodiscard]] Tick now() const { return _queue.now(); }

    /**
     * Queue a message send. Payload words are copied out of this
     * node's memory at `srcAddr` (loads through the cache hierarchy).
     * `onDone` fires when the close command has entered the send FIFO
     * for the first transmission; delivery is then guaranteed by the
     * retransmit protocol (or reported via the delivery-failure
     * handler). Payloads are limited to 65535 words by the wire
     * header's length field.
     */
    void postSend(unsigned dstNode, std::vector<std::uint64_t> payload,
                  std::function<void()> onDone = nullptr,
                  Addr srcAddr = 0x5000'0000);

    /**
     * Queue a receive. Payload words are copied into memory at
     * `dstAddr` (stores through the cache hierarchy). The callback's
     * crcOk is always true: corrupted messages are retransmitted below
     * this interface, never delivered.
     */
    void postRecv(RecvCallback onDone = nullptr,
                  Addr dstAddr = 0x6000'0000);

    /**
     * Replace the delivery-failure handler. The default panics: with
     * a fault-free fabric the retry budget is unreachable, so hitting
     * it means a protocol bug; under injected faults callers install
     * a handler to observe the bounded-retry guarantee.
     */
    void
    onDeliveryFailure(DeliveryFailureFn fn)
    {
        _onFailure = std::move(fn);
    }

    /**
     * Abandon all in-flight operations and protocol state (sequence
     * numbers, unACKed retentions, pending timers). Called by
     * System::resetForRun() on every attached endpoint so a machine can
     * be reused across experiment phases; counters are cumulative and
     * survive. Never call mid-conversation with a peer that keeps
     * running — both ends restart from sequence 0 at a reset.
     */
    void resetForRun();

    /**
     * The wire side is quiet: nothing queued to send, no message
     * partially received, nothing awaiting acknowledgement. A posted
     * receive may still be pending — this is the condition for ending
     * an experiment whose receiver re-arms perpetually.
     */
    [[nodiscard]] bool quiescent() const;

    /**
     * Destinations whose retry budget this endpoint has exhausted,
     * ascending. The rest of the machine keeps running — sends to a
     * dead peer fail fast through the delivery-failure handler.
     */
    [[nodiscard]] std::vector<unsigned> deadPeers() const;

    /** @name sim::health::Reporter */
    /// @{
    const std::string &healthName() const override
    {
        return _stats.name();
    }
    void checkHealth(sim::health::Check &check) override;
    void audit(sim::health::Auditor &audit) override;
    void dumpState(std::ostream &os) const override;
    /// @}

    /** All driver counters (also reachable as public members). */
    sim::StatGroup &stats() { return _stats; }

    sim::Scalar messagesSent{"messages_sent", ""};
    sim::Scalar messagesReceived{"messages_received", ""};
    sim::Scalar retransmits{"retransmits",
                            "messages retransmitted (go-back-N)"};
    sim::Scalar crcDrops{"crc_drops",
                         "received messages discarded for bad CRC"};
    sim::Scalar duplicateDiscards{"duplicate_discards",
                                  "already-delivered messages discarded"};
    sim::Scalar outOfOrderDiscards{"out_of_order_discards",
                                   "ahead-of-sequence messages discarded"};
    sim::Scalar timeouts{"timeouts", "retransmit timer expirations"};
    sim::Scalar acksSent{"acks_sent", "standalone ACK messages"};
    sim::Scalar nacksSent{"nacks_sent", "NACK messages"};
    sim::Scalar deliveryFailures{"delivery_failures",
                                 "messages abandoned after max retries"};

  private:
    struct SendOp
    {
        unsigned dst = 0;
        bool control = false; //!< Standalone ACK/NACK (no payload).
        bool retransmit = false;
        unsigned ctrlType = 0; //!< kAck or kNack for control ops.
        std::uint16_t seq = 0; //!< DATA sequence number.
        std::shared_ptr<std::vector<std::uint64_t>> payload;
        Addr srcAddr = 0;
        std::size_t nextWord = 0;
        bool started = false;
        bool headerPushed = false;
        std::size_t routePushed = 0;
        std::vector<std::uint8_t> route;
        std::function<void()> onDone;
    };

    struct RecvOp
    {
        Addr dstAddr = 0;
        bool started = false;
        RecvCallback onDone;
    };

    /** A sent-but-unacknowledged message retained for retransmit. */
    struct Unacked
    {
        std::uint16_t seq = 0;
        std::shared_ptr<std::vector<std::uint64_t>> payload;
        Addr srcAddr = 0;
        bool queued = true; //!< A SendOp for it sits in _sends.
    };

    /** Per-destination sender state. */
    struct TxPeer
    {
        std::uint16_t nextSeq = 0;
        std::deque<Unacked> unacked;
        std::uint64_t unackedWords = 0;
        unsigned strikes = 0; //!< Fruitless recovery rounds in a row.
        unsigned backoff = 0; //!< Timeout doublings.
        bool dead = false; //!< Retry budget exhausted.
        sim::EventHandle timer;
        Tick lastAdvance = 0; //!< Last tick the unACKed window moved.
    };

    /** Per-source receiver state. */
    struct RxPeer
    {
        std::uint16_t expect = 0; //!< Next in-order sequence number.
        unsigned sinceAck = 0; //!< Deliveries since the last ACK out.
        sim::EventHandle ackTimer;
    };

    /** The message currently being drained from the receive FIFO. */
    struct RxAssembly
    {
        bool haveHeader = false;
        std::uint64_t header = 0;
        bool inOrderData = false; //!< Needs a posted recv; stores to
                                  //!< memory as words drain.
        std::vector<std::uint64_t> words;
    };

    System &_sys;
    sim::EventQueue &_queue; //!< The System's queue; all events go here.
    unsigned _nodeId;
    unsigned _net;
    DriverCosts _costs;
    cpu::Proc &_proc;
    ni::LinkInterface &_ni;
    sim::ClockDomain _clk;
    sim::StatGroup _stats;
    std::deque<SendOp> _sends;
    std::deque<RecvOp> _recvs;
    std::map<unsigned, TxPeer> _tx;
    std::map<unsigned, RxPeer> _rx;
    RxAssembly _cur;
    /** Delivered payloads awaiting a postRecv (in-order surplus). */
    std::deque<std::vector<std::uint64_t>> _stash;
    DeliveryFailureFn _onFailure;
    sim::EventHandle _engineEvent; //!< Live while the engine is queued.
    Tick _lastProgress = 0; //!< Last tick the engine moved anything.
    sim::health::EventRing _ring; //!< Recent protocol events.

    void kick();
    void scheduleEngine(Tick when);
    void engine();
    bool serviceRecv();
    bool serviceSend();
    bool workPending() const;
    bool anyUnacked() const;

    // Receive-side protocol.
    void classify(RxAssembly &cur);
    void finishMessage();
    void deliver(std::vector<std::uint64_t> words);
    void noteDelivered(unsigned src);
    void ackTimerFired(unsigned src);
    void piggybackAckCleared(unsigned dst);

    // Send-side protocol.
    void queueControl(unsigned type, unsigned dst);
    void handleAck(unsigned src, std::uint16_t ack);
    void rewind(unsigned dst, TxPeer &peer);
    void armRetransTimer(unsigned dst, TxPeer &peer);
    void retransTimerFired(unsigned dst);
    void strike(unsigned dst, TxPeer &peer);
    void fail(unsigned dst, TxPeer &peer);
    std::uint64_t headerFor(const SendOp &op);
};

} // namespace pm::msg

#endif // PM_MSG_DRIVER_HH
