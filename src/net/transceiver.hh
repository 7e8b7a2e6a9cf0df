/**
 * @file
 * Inter-cabinet asynchronous transceiver (Section 3.2).
 *
 * The clock-synchronous link protocol only spans short distances; for
 * up to 30 m between cabinets, asynchronous transceivers bridge the
 * gap. Each transceiver direction is an asynchronous 2-Kbyte input
 * FIFO plus a retransmitter — the deep buffer sustains soft flow
 * control across the longer round-trip.
 */

#ifndef PM_NET_TRANSCEIVER_HH
#define PM_NET_TRANSCEIVER_HH

#include <memory>
#include <string>

#include "net/fifo.hh"
#include "net/link.hh"
#include "sim/event.hh"
#include "sim/health.hh"

namespace pm::net {

/** Static configuration of one transceiver direction. */
struct TransceiverParams
{
    std::string name = "xcvr";
    unsigned fifoBytes = 2048; //!< Asynchronous input buffer.
    Tick cableLatency = 150 * kTicksPerNs; //!< ~30 m + synchronizers.
    LinkParams link;
};

/** One direction of an inter-cabinet hop: FIFO in, link out. */
class Transceiver : public sim::health::Reporter
{
  public:
    Transceiver(const TransceiverParams &params, sim::EventQueue &queue);

    Transceiver(const Transceiver &) = delete;
    Transceiver &operator=(const Transceiver &) = delete;

    /** Where the upstream link delivers. */
    SymbolSink *inputPort() { return &_in; }

    /** Connect to the next element's input sink. */
    void connectOutput(SymbolSink *downstream);

    /**
     * Drop buffered and in-flight symbols and cancel pending pumps
     * (between experiment runs).
     */
    void reset();

    /** True when the buffer is empty and nothing is on the wire. */
    [[nodiscard]] bool wireQuiet() const;

    /** @name sim::health::Reporter */
    /// @{
    const std::string &healthName() const override { return _p.name; }
    void checkHealth(sim::health::Check &check) override;
    void audit(sim::health::Auditor &audit) override;
    void dumpState(std::ostream &os) const override;
    /// @}

  private:
    TransceiverParams _p;
    sim::EventQueue &_queue;
    InputFifo _in;
    std::unique_ptr<LinkTx> _tx;
    Pump _pump;
    Tick _lastMove = 0; //!< Last tick a symbol arrived or advanced.

    void pump();

    /** Pump at `when` (see Pump). */
    void wake(Tick when) { _pump.at(_queue, when, [this] { pump(); }); }
};

} // namespace pm::net

#endif // PM_NET_TRANSCEIVER_HH
