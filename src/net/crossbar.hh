/**
 * @file
 * The PowerMANNA crossbar ASIC (Section 3.1).
 *
 * A 16x16 wormhole-routing switch: every input channel has its own
 * FIFO buffer, command decoding, and soft flow control; every output
 * channel has an arbiter. Unlike the CM-5's fat-tree switch, *any*
 * input can be routed to *any* output.
 *
 * Protocol: the first symbol of a message arriving on an unrouted
 * input must be a route command; it is consumed here (so a path across
 * k crossbars carries k route commands) and, collisions permitting,
 * establishes the input->output connection in 0.2 us. Data then worms
 * through until a close command — which is forwarded downstream — tears
 * the connection down and wakes any input waiting on that output.
 */

#ifndef PM_NET_CROSSBAR_HH
#define PM_NET_CROSSBAR_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/fifo.hh"
#include "net/link.hh"
#include "sim/event.hh"
#include "sim/health.hh"
#include "sim/stats.hh"

namespace pm::net {

/** Static configuration of one crossbar. */
struct CrossbarParams
{
    std::string name = "xbar";
    unsigned ports = 16;
    unsigned inputFifoSymbols = 8; //!< Per-input buffering.
    Tick routeLatency = 200 * kTicksPerNs; //!< Through-routing setup.
    LinkParams link; //!< Output channel timing.
};

/** One crossbar switch. */
class Crossbar : public sim::health::Reporter
{
  public:
    Crossbar(const CrossbarParams &params, sim::EventQueue &queue);

    Crossbar(const Crossbar &) = delete;
    Crossbar &operator=(const Crossbar &) = delete;

    const CrossbarParams &params() const { return _p; }
    unsigned ports() const { return _p.ports; }

    /** The sink upstream links deliver into for input channel `i`. */
    SymbolSink *inputPort(unsigned i);

    /** Connect output channel `o` to the next element's input sink. */
    void connectOutput(unsigned o, SymbolSink *downstream);

    /** Output connected? (topology checks) */
    bool outputConnected(unsigned o) const;

    /** Input channel currently routed to this output (-1 if free). */
    int outputOwner(unsigned o) const;

    /**
     * Tear down all circuits, drop buffered and in-flight symbols, and
     * cancel pending pumps (between experiment runs).
     */
    void reset();

    /** True when no symbols are buffered or in flight and no circuit
     * is open through this switch (conservation-audit precondition). */
    [[nodiscard]] bool wireQuiet() const;

    /** @name sim::health::Reporter */
    /// @{
    const std::string &healthName() const override { return _p.name; }
    void checkHealth(sim::health::Check &check) override;
    void audit(sim::health::Auditor &audit) override;
    void dumpState(std::ostream &os) const override;
    /// @}

    sim::StatGroup &stats() { return _stats; }
    sim::Scalar routesEstablished{"routes", "connections established"};
    sim::Scalar symbolsForwarded{"symbols", "symbols switched"};
    sim::Scalar routeConflicts{"route_conflicts",
                               "route commands that had to wait"};

  private:
    struct Input
    {
        std::unique_ptr<InputFifo> fifo;
        int target = -1; //!< Routed output channel, -1 when unrouted.
        bool waiting = false; //!< Parked on a busy output's wait list.
        Pump pump;
        Tick lastMove = 0; //!< Last tick a symbol arrived or advanced.
    };

    struct Output
    {
        std::unique_ptr<LinkTx> tx;
        int owner = -1;
        std::deque<unsigned> waiters;
    };

    CrossbarParams _p;
    sim::EventQueue &_queue;
    std::vector<Input> _in;
    std::vector<Output> _out;
    sim::StatGroup _stats;
    sim::health::EventRing _ring; //!< Recent routes/closes/parks.

    /** Try to make progress on input `i` (idempotent). */
    void pump(unsigned i);

    /** Pump input `i` at `when` (see Pump). */
    void
    wake(unsigned i, Tick when)
    {
        _in[i].pump.at(_queue, when, [this, i] { pump(i); });
    }
};

} // namespace pm::net

#endif // PM_NET_CROSSBAR_HH
