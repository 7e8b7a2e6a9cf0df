/**
 * @file
 * Input FIFOs with soft flow control.
 *
 * Every receiving element of the network — a crossbar input channel, a
 * transceiver buffer, a link-interface receive buffer — is a
 * SymbolSink. The sender-side *stop* signal of the link protocol is
 * modelled by the sender checking freeSpace() before transmitting and
 * waiting on the sink's one list of stop-signal waiters when it is
 * full (LinkTx::ready).
 */

#ifndef PM_NET_FIFO_HH
#define PM_NET_FIFO_HH

#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/symbol.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::net {

/** Abstract destination for symbols sent over a link. */
class SymbolSink
{
  public:
    virtual ~SymbolSink() = default;

    /** Number of further symbols acceptable right now. */
    [[nodiscard]] virtual unsigned freeSpace() const = 0;

    /** Can one more symbol be accepted? (The stop signal, inverted.) */
    [[nodiscard]] bool hasSpace() const { return freeSpace() > 0; }

    /** Deliver a symbol; only legal when hasSpace(). */
    virtual void push(const Symbol &sym) = 0;

    /**
     * Register a one-shot callback invoked the next time space becomes
     * available. Used by senders throttled by the stop signal.
     * Callbacks are sim::EventFn — small-buffer, move-only — because
     * this sits on the per-symbol wire path (the std-function lint
     * rule fences the whole of src/net for the same reason).
     */
    void onSpace(sim::EventFn cb) { _waiters.push_back(std::move(cb)); }

    /** Senders waiting for the stop signal's release. */
    [[nodiscard]] std::size_t waiters() const { return _waiters.size(); }

    /**
     * The receiver freed space: run every waiter once, in the order
     * they subscribed. Waiters that subscribe while these run wait for
     * the next release.
     */
    void
    releaseWaiters()
    {
        if (_waiters.empty())
            return;
        std::vector<sim::EventFn> cbs;
        cbs.swap(_waiters);
        for (auto &cb : cbs)
            cb();
    }

    /**
     * Forget every waiter without running it (reset between runs):
     * waking a throttled sender into a torn-down configuration would
     * re-enter elements mid-reset with stale state.
     */
    void dropWaiters() { _waiters.clear(); }

  private:
    std::vector<sim::EventFn> _waiters;
};

/** A bounded FIFO of symbols, counted in wire capacity. */
class InputFifo : public SymbolSink
{
  public:
    /**
     * @param name Statistic name.
     * @param capacitySymbols Maximum buffered symbols.
     */
    InputFifo(std::string name, unsigned capacitySymbols)
        : _name(std::move(name)), _capacity(capacitySymbols)
    {
        if (capacitySymbols == 0)
            pm_fatal("fifo %s: capacity must be positive", _name.c_str());
    }

    const std::string &name() const { return _name; }
    [[nodiscard]] unsigned capacity() const { return _capacity; }
    [[nodiscard]] unsigned size() const
    {
        return static_cast<unsigned>(_q.size());
    }
    [[nodiscard]] bool empty() const { return _q.empty(); }

    [[nodiscard]] unsigned
    freeSpace() const override
    {
        return _capacity - static_cast<unsigned>(_q.size());
    }

    void
    push(const Symbol &sym) override
    {
        if (!hasSpace())
            pm_panic("fifo %s: push into full FIFO (flow-control bug)",
                     _name.c_str());
        _q.push_back(sym);
        maxOccupancy.set(std::max(maxOccupancy.value(),
                                  static_cast<double>(_q.size())));
        if (_fillCb)
            _fillCb();
    }

    /**
     * Register a persistent callback invoked on every push (the
     * element that services this FIFO uses it to wake its pump).
     */
    void setFillCallback(sim::EventFn cb) { _fillCb = std::move(cb); }

    /** Peek the head symbol. */
    [[nodiscard]] const Symbol &
    front() const
    {
        pm_assert(!_q.empty(), "fifo %s: front() on empty FIFO",
                  _name.c_str());
        return _q.front();
    }

    /** Remove and return the head symbol; wakes throttled senders. */
    [[nodiscard]] Symbol
    pop()
    {
        pm_assert(!_q.empty(), "fifo %s: pop() on empty FIFO",
                  _name.c_str());
        Symbol s = _q.front();
        _q.pop_front();
        releaseWaiters();
        return s;
    }

    /**
     * Drop all contents and, without running them, all waiters (reset
     * between runs; see dropWaiters()). The persistent fill callback
     * survives — it is part of the FIFO's wiring, not of a run's
     * state, and dropping it here used to force every owner to
     * remember to re-register after reset (the ones that forgot
     * received symbols into a deaf FIFO on the next run).
     */
    void
    clear()
    {
        _q.clear();
        dropWaiters();
    }

    /** One-line forensic snapshot: occupancy, watermark, head symbol. */
    void
    dumpTo(std::ostream &os) const
    {
        os << _name << ": " << _q.size() << "/" << _capacity
           << " (peak " << static_cast<unsigned>(maxOccupancy.value())
           << ", waiters " << waiters() << ")";
        if (!_q.empty())
            os << " head=" << symKindName(_q.front().kind);
        os << "\n";
    }

    sim::Scalar maxOccupancy{"max_occupancy", "peak buffered symbols"};

  private:
    std::string _name;
    unsigned _capacity;
    std::deque<Symbol> _q;
    sim::EventFn _fillCb;
};

} // namespace pm::net

#endif // PM_NET_FIFO_HH
