/**
 * @file
 * The PowerMANNA network interface (Section 3.3).
 *
 * Deliberately *not* a NIC: a simple ASIC between the node's bus
 * switch and one communication link. Per direction there is a FIFO of
 * 32 64-bit words; FIFOs and control registers are memory-mapped, so
 * the node CPUs drive the whole protocol with uncached loads/stores
 * (PIO) — the CPU cost of those accesses is charged by cpu::Proc, not
 * here. The ASIC generates a CRC-32 over each outgoing message
 * (inserted on the wire before the close command) and checks it on the
 * receive side, stripping it from the data handed to software.
 */

#ifndef PM_NI_LINKINTERFACE_HH
#define PM_NI_LINKINTERFACE_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "net/fifo.hh"
#include "net/link.hh"
#include "net/symbol.hh"
#include "ni/crc32.hh"
#include "sim/event.hh"
#include "sim/health.hh"
#include "sim/stats.hh"

namespace pm::ni {

/** Static configuration of one link interface. */
struct LinkIfParams
{
    std::string name = "ni";
    unsigned fifoWords = 32; //!< Send and receive FIFO depth (words).
    net::LinkParams link; //!< Outgoing link timing.
};

/** One of the two link interfaces on a PowerMANNA node. */
class LinkInterface : public sim::health::Reporter
{
  public:
    LinkInterface(const LinkIfParams &params, sim::EventQueue &queue);

    LinkInterface(const LinkInterface &) = delete;
    LinkInterface &operator=(const LinkInterface &) = delete;

    const LinkIfParams &params() const { return _p; }

    // ---- CPU (driver) side. The caller charges PIO timing. ----------

    /** Free send-FIFO entries (the send status register). */
    [[nodiscard]] unsigned sendSpace() const;

    /**
     * Write one symbol into the send FIFO at CPU-local time `now`.
     * Must not be called when sendSpace() == 0.
     */
    void pushSend(const net::Symbol &sym, Tick now);

    /** Verdict of one completed (close-terminated) message. */
    struct RecvMsgInfo
    {
        std::uint64_t words = 0; //!< Payload words (CRC stripped).
        bool crcOk = true;
    };

    /**
     * Payload words readable from the receive FIFO (status register).
     * Never spans a message boundary: while an undrained completed
     * message is at the head of the stream, only its remaining words
     * are reported — the caller must consumeMessage() to move on.
     */
    [[nodiscard]] unsigned recvAvailable() const;

    /** Read one received word; recvAvailable() must be nonzero. */
    [[nodiscard]] std::uint64_t popRecv();

    /** Completed (close-terminated) messages seen so far. */
    [[nodiscard]] std::uint64_t messagesReceived() const
    {
        return _messages;
    }

    /** A completed message is at the head of the receive stream. */
    [[nodiscard]] bool messageComplete() const
    {
        return !_completed.empty();
    }

    /** Oldest completed message; messageComplete() must hold. */
    [[nodiscard]] const RecvMsgInfo &frontMessage() const;

    /** Every word of the oldest completed message has been popped. */
    [[nodiscard]] bool
    frontMessageDrained() const
    {
        return !_completed.empty() && _drained == _completed.front().words;
    }

    /**
     * Retire the oldest completed message and return its verdict; all
     * of its words must have been popped (frontMessageDrained()).
     */
    RecvMsgInfo consumeMessage();

    /**
     * Notify the driver when receive-side work appears: a payload word
     * becoming readable in an empty FIFO, or a message completing.
     * One slot (the owning driver), overwritten by the next owner and
     * cleared by the owner's destructor — wiring, not run state, so it
     * survives reset(). Fired from the NI's own delivery events.
     */
    void onRecvActivity(sim::EventFn cb) { _recvActivity = std::move(cb); }

    /** Drop all buffered state (between experiment runs). */
    void reset();

    // ---- Network side. -----------------------------------------------

    /** Sink the incoming link delivers into. */
    net::SymbolSink *rxPort() { return &_rx; }

    /** Connect the outgoing link to the next element's input sink. */
    void connectOutput(net::SymbolSink *downstream);

    /**
     * True when the send side is fully drained: FIFO empty, no pending
     * hardware CRC/close, nothing on the outgoing wire. The *receive*
     * FIFO may be non-empty — its words were already delivered (and
     * counted) and merely await software consumption.
     */
    [[nodiscard]] bool wireQuiet() const;

    /** @name sim::health::Reporter */
    /// @{
    const std::string &healthName() const override { return _p.name; }
    void checkHealth(sim::health::Check &check) override;
    void audit(sim::health::Auditor &audit) override;
    void dumpState(std::ostream &os) const override;
    /// @}

    sim::StatGroup &stats() { return _stats; }
    sim::Scalar wordsSent{"words_sent", "payload words transmitted"};
    sim::Scalar wordsReceived{"words_received", "payload words received"};
    sim::Scalar crcErrors{"crc_errors", "messages failing the CRC check"};

  private:
    /** Receive port: stages one word so the CRC can be stripped. */
    class RxPort : public net::SymbolSink
    {
      public:
        explicit RxPort(LinkInterface &ni) : _ni(ni) {}
        [[nodiscard]] unsigned freeSpace() const override;
        void push(const net::Symbol &sym) override;

      private:
        LinkInterface &_ni;
    };
    friend class RxPort;

    struct SendEntry
    {
        net::Symbol sym;
        Tick readyAt; //!< CPU-local write time; never send earlier.
    };

    LinkIfParams _p;
    sim::EventQueue &_queue;
    sim::StatGroup _stats;

    // Send side.
    std::deque<SendEntry> _sendFifo;
    std::unique_ptr<net::LinkTx> _tx;
    net::Pump _pump;
    bool _crcPendingClose = false; //!< CRC word sent; close follows.
    bool _txAnyData = false;
    Crc32 _crcTx;
    Tick _lastTx = 0; //!< Last tick the send side made progress.
    sim::health::EventRing _ring; //!< Recent message completions.

    // Receive side.
    RxPort _rx{*this};
    std::deque<std::uint64_t> _recvFifo;
    std::optional<std::uint64_t> _staged; //!< Last word; may be the CRC.
    Crc32 _crcRx;
    std::uint64_t _messages = 0;
    std::deque<RecvMsgInfo> _completed; //!< Oldest-first verdicts.
    std::uint64_t _drained = 0; //!< Popped words of the oldest message.
    std::uint64_t _rxMsgWords = 0; //!< Words of the in-progress message.
    sim::EventFn _recvActivity; //!< Driver wake-up (see onRecvActivity).

    void pump();

    /** Pump the send side at `when` (see net::Pump). */
    void wake(Tick when) { _pump.at(_queue, when, [this] { pump(); }); }
};

} // namespace pm::ni

#endif // PM_NI_LINKINTERFACE_HH
