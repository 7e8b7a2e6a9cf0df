/**
 * @file
 * The PowerMANNA link (Section 3.2): a clock-synchronous, byte-parallel
 * point-to-point channel at 60 MHz — 60 MB/s per direction, full
 * duplex. One LinkTx models one direction: it serializes symbols at
 * the wire byte rate and delivers them into the receiver's FIFO,
 * honouring the stop-signal flow control by never overrunning the
 * receiver's buffer (in-flight symbols are counted against its space).
 *
 * Every element that forwards onto a link — a link interface's send
 * side, a crossbar input, a transceiver — drives it the same way: one
 * pending pump event (Pump), held back by a busy wire or the
 * receiver's stop signal (LinkTx::ready).
 */

#ifndef PM_NET_LINK_HH
#define PM_NET_LINK_HH

#include <concepts>
#include <string>
#include <utility>

#include "net/fifo.hh"
#include "net/symbol.hh"
#include "sim/event.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace pm::net {

/** Static configuration of one link direction. */
struct LinkParams
{
    double mbps = 60.0; //!< Wire rate (60 MB/s: byte-parallel @ 60 MHz).
    Tick latency = 33 * kTicksPerNs; //!< Propagation + input register.
    sim::FaultModel *fault = nullptr; //!< Optional fault injection.

    /** Wire time for `bytes` bytes. */
    Tick
    txTime(unsigned bytes) const
    {
        return static_cast<Tick>(bytes * (1e6 / mbps) + 0.5);
    }
};

/** One direction of a link: serializer + wire + delivery. */
class LinkTx
{
  public:
    LinkTx(std::string name, sim::EventQueue &queue,
           const LinkParams &params, SymbolSink *sink)
        : _name(std::move(name)), _queue(queue), _p(params), _sink(sink)
    {
        if (!sink)
            pm_fatal("link %s: null sink", _name.c_str());
        if (_p.fault)
            _site = _p.fault->site(_name);
    }

    const std::string &name() const { return _name; }
    const LinkParams &params() const { return _p; }

    /** Symbols sent but not yet delivered (wire-quiescence checks). */
    [[nodiscard]] unsigned inflight() const { return _inflight; }

    /**
     * The wire is free and the receiver can take one more symbol.
     * Symbols still in flight (sent, not yet delivered) are counted
     * against the receiver's space so the wire pipeline never overruns
     * the stop signal.
     */
    [[nodiscard]] bool
    canSend(Tick now) const
    {
        if (_busyUntil > now)
            return false;
        if (_site && _site->upAt(now) > now)
            return false;
        return _sink->freeSpace() > _inflight;
    }

    /**
     * Can a symbol go now? If not, arrange for `wake(Tick)` to be
     * called with the tick to try again: at once with busyUntil() when
     * the wire is busy or down, else with the tick at which the
     * receiver next frees space (the stop signal's release).
     */
    template <typename Wake>
    [[nodiscard]] bool
    ready(Tick now, Wake wake)
    {
        if (canSend(now))
            return true;
        const Tick busy = busyUntil();
        if (busy > now)
            wake(busy);
        else
            _sink->onSpace([this, wake] { wake(_queue.now()); });
        return false;
    }

    /** Wire busy horizon (for rescheduling pumps). */
    Tick
    busyUntil() const
    {
        Tick busy = _busyUntil;
        if (_site) {
            const Tick up = _site->upAt(_queue.now());
            if (up > busy)
                busy = up;
        }
        return busy;
    }

    /**
     * Transmit one symbol; caller must have checked canSend().
     * A fault site may corrupt or drop a Data symbol here: a dropped
     * word still occupies its wire time (the receiver simply never
     * sees it), and route/close symbols are never faulted — dropping
     * one would wedge the circuit-switched crossbars rather than model
     * a recoverable data error.
     * @return Time the last byte leaves the wire (sender side free).
     */
    Tick
    send(const Symbol &sym, Tick now)
    {
        if (!canSend(now))
            pm_panic("link %s: send while busy or receiver full",
                     _name.c_str());
        const Tick tx = _p.txTime(sym.wireBytes());
        _busyUntil = now + tx;
        bytesSent += sym.wireBytes();
        Symbol out = sym;
        if (_site && sym.kind == SymKind::Data &&
            _site->filterWord(out.data, now))
            return _busyUntil;
        const Tick arrival = now + tx + _p.latency;
        ++_inflight;
        const unsigned gen = _gen;
        // Fire-and-forget: in-flight deliveries are voided by the
        // generation check below, not by cancellation (see reset()).
        (void)_queue.schedule(arrival, [this, out, gen] {
            if (gen != _gen)
                return; // the link was reset while this was in flight
            --_inflight;
            _sink->push(out);
        });
        return _busyUntil;
    }

    /**
     * Forget all wire state between experiment runs. Delivery events
     * for symbols already in flight cannot be cancelled (they hold no
     * handle); bumping the generation makes them vanish on arrival
     * instead of polluting the next run's circuits.
     */
    void
    reset()
    {
        ++_gen;
        _busyUntil = 0;
        _inflight = 0;
    }

    sim::Scalar bytesSent{"bytes_sent", "wire bytes transmitted"};

  private:
    std::string _name;
    sim::EventQueue &_queue;
    LinkParams _p;
    SymbolSink *_sink;
    sim::FaultSite *_site = nullptr;
    Tick _busyUntil = 0;
    unsigned _inflight = 0;
    unsigned _gen = 0; //!< Bumped by reset() to void in-flight symbols.
};

/**
 * The one pending pump event of a forwarding element. An earlier
 * request cancels the pending pump and takes its place; a later or
 * equal one is already covered by it and changes nothing.
 */
class Pump
{
  public:
    /**
     * Run `fn` at `when` unless a pump at or before `when` is pending.
     * `fn` is named an EventFn in the signature so that pmlint's
     * dangling-capture rule treats `at` as the EventFn sink it is.
     */
    void
    at(sim::EventQueue &queue, Tick when,
       std::convertible_to<sim::EventFn> auto &&fn)
    {
        if (queue.scheduled(_event)) {
            if (_at <= when)
                return;
            queue.cancel(_event);
        }
        _at = when;
        _event = queue.schedule(when, std::forward<decltype(fn)>(fn));
    }

    /** Drop the pending pump, if any (reset between runs). */
    void cancel(sim::EventQueue &queue) { queue.cancel(_event); }

  private:
    sim::EventHandle _event; //!< Live while a pump is scheduled.
    Tick _at = 0; //!< When it will fire.
};

} // namespace pm::net

#endif // PM_NET_LINK_HH
