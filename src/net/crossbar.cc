#include "net/crossbar.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pm::net {

Crossbar::Crossbar(const CrossbarParams &params, sim::EventQueue &queue)
    : _p(params),
      _queue(queue),
      _in(params.ports),
      _out(params.ports),
      _stats(params.name)
{
    if (_p.ports == 0 || _p.ports > 256)
        pm_fatal("crossbar %s: bad port count %u", _p.name.c_str(),
                 _p.ports);
    for (unsigned i = 0; i < _p.ports; ++i) {
        _in[i].fifo = std::make_unique<InputFifo>(
            _p.name + ".in" + std::to_string(i), _p.inputFifoSymbols);
        // A symbol arriving on an idle input must start the pump.
        // Arrival also counts as progress for the stall watchdog: a
        // first symbol landing at tick T must get a full deadline from
        // T, not from 0.
        _in[i].fifo->setFillCallback([this, i] {
            _in[i].lastMove = _queue.now();
            wake(i, _queue.now());
        });
    }
    _stats.add(&routesEstablished);
    _stats.add(&symbolsForwarded);
    _stats.add(&routeConflicts);
}

SymbolSink *
Crossbar::inputPort(unsigned i)
{
    if (i >= _p.ports)
        pm_fatal("crossbar %s: input %u out of range", _p.name.c_str(), i);
    return _in[i].fifo.get();
}

void
Crossbar::connectOutput(unsigned o, SymbolSink *downstream)
{
    if (o >= _p.ports)
        pm_fatal("crossbar %s: output %u out of range", _p.name.c_str(), o);
    if (_out[o].tx)
        pm_fatal("crossbar %s: output %u already connected",
                 _p.name.c_str(), o);
    _out[o].tx = std::make_unique<LinkTx>(
        _p.name + ".out" + std::to_string(o), _queue, _p.link, downstream);
}

bool
Crossbar::outputConnected(unsigned o) const
{
    return o < _p.ports && _out[o].tx != nullptr;
}

int
Crossbar::outputOwner(unsigned o) const
{
    return o < _p.ports ? _out[o].owner : -1;
}

void
Crossbar::reset()
{
    for (unsigned i = 0; i < _p.ports; ++i) {
        Input &in = _in[i];
        in.fifo->clear();
        in.target = -1;
        in.waiting = false;
        in.pump.cancel(_queue);
        in.lastMove = _queue.now();
    }
    for (auto &out : _out) {
        out.owner = -1;
        out.waiters.clear();
        if (out.tx)
            out.tx->reset();
    }
}

void
Crossbar::pump(unsigned i)
{
    Input &in = _in[i];
    if (in.fifo->empty() || in.waiting)
        return;

    if (in.target < 0) {
        // Unrouted input: the head symbol must be a route command.
        const Symbol &head = in.fifo->front();
        if (head.kind != SymKind::Route)
            pm_panic("crossbar %s: input %u got %s while unrouted "
                     "(protocol violation; fifo %u/%u)",
                     _p.name.c_str(), i,
                     head.kind == SymKind::Data ? "data" : "close",
                     in.fifo->size(), in.fifo->capacity());
        const unsigned o = head.route;
        if (o >= _p.ports || !_out[o].tx)
            pm_panic("crossbar %s: route to invalid output %u "
                     "(input %u, %u ports, fifo %u/%u)",
                     _p.name.c_str(), o, i, _p.ports, in.fifo->size(),
                     in.fifo->capacity());
        Output &out = _out[o];
        if (out.owner >= 0) {
            // Output busy: park until the current connection closes.
            ++routeConflicts;
            in.waiting = true;
            out.waiters.push_back(i);
            _ring.push(_queue.now(), "park", i, o);
            return;
        }
        // Consume the route command, claim the output, and pay the
        // through-routing setup latency.
        (void)in.fifo->pop();
        out.owner = static_cast<int>(i);
        in.target = static_cast<int>(o);
        in.lastMove = _queue.now();
        ++routesEstablished;
        _ring.push(_queue.now(), "route", i, o);
        pm_trace(_queue.now(), "xbar", "%s: route in%u -> out%u",
                 _p.name.c_str(), i, o);
        // Known gap: a symbol arriving during the setup asks for a pump
        // at its arrival, which supersedes this one, so the setup is
        // charged only when nothing arrives meanwhile (DESIGN.md §4).
        wake(i, _queue.now() + _p.routeLatency);
        return;
    }

    Output &out = _out[in.target];
    LinkTx &tx = *out.tx;
    if (!tx.ready(_queue.now(), [this, i](Tick t) { wake(i, t); }))
        return;

    const Symbol sym = in.fifo->pop();
    ++symbolsForwarded;
    in.lastMove = _queue.now();
    const Tick wireFree = tx.send(sym, _queue.now());

    if (sym.kind == SymKind::Close) {
        // Tear down the connection and wake inputs waiting for this
        // output, in arrival order.
        const unsigned o = static_cast<unsigned>(in.target);
        pm_trace(_queue.now(), "xbar", "%s: close in%u -> out%u",
                 _p.name.c_str(), i, o);
        in.target = -1;
        out.owner = -1;
        _ring.push(_queue.now(), "close", i, o);
        if (!out.waiters.empty()) {
            const unsigned w = out.waiters.front();
            out.waiters.pop_front();
            _in[w].waiting = false;
            wake(w, _queue.now());
        }
        (void)o;
    }

    if (!in.fifo->empty())
        wake(i, wireFree);
}

bool
Crossbar::wireQuiet() const
{
    for (const Input &in : _in)
        if (!in.fifo->empty() || in.target >= 0 || in.waiting)
            return false;
    for (const Output &out : _out)
        if (out.tx && out.tx->inflight() != 0)
            return false;
    return true;
}

void
Crossbar::checkHealth(sim::health::Check &check)
{
    for (unsigned i = 0; i < _p.ports; ++i) {
        const Input &in = _in[i];
        const bool active =
            in.target >= 0 || in.waiting || !in.fifo->empty();
        if (!active || !check.expired(in.lastMove))
            continue;
        if (in.waiting) {
            // The unconsumed route command still names the output.
            check.report("in%u parked on busy out%u since tick %llu "
                         "(fifo %u/%u)",
                         i, in.fifo->front().route,
                         (unsigned long long)in.lastMove, in.fifo->size(),
                         in.fifo->capacity());
        } else if (in.target >= 0) {
            check.report("circuit in%u -> out%d held since tick %llu "
                         "(fifo %u/%u)",
                         i, in.target, (unsigned long long)in.lastMove,
                         in.fifo->size(), in.fifo->capacity());
        } else {
            check.report("in%u FIFO stuck %u/%u since tick %llu", i,
                         in.fifo->size(), in.fifo->capacity(),
                         (unsigned long long)in.lastMove);
        }
    }
}

void
Crossbar::audit(sim::health::Auditor &audit)
{
    // Both audit points expect the same: a quiet switch has no open
    // circuits, no buffered symbols, and nothing on the wires.
    for (unsigned i = 0; i < _p.ports; ++i) {
        const Input &in = _in[i];
        audit.check(in.target < 0, "in%u still routed to out%d", i,
                    in.target);
        audit.check(!in.waiting, "in%u still parked on a busy output", i);
        audit.check(in.fifo->empty(), "in%u FIFO not empty (%u/%u)", i,
                    in.fifo->size(), in.fifo->capacity());
    }
    for (unsigned o = 0; o < _p.ports; ++o) {
        const Output &out = _out[o];
        audit.check(out.owner < 0, "out%u still owned by in%d", o,
                    out.owner);
        audit.check(out.waiters.empty(), "out%u has %zu queued waiters", o,
                    out.waiters.size());
        if (out.tx)
            audit.check(out.tx->inflight() == 0,
                        "out%u has %u symbols in flight", o,
                        out.tx->inflight());
    }
}

void
Crossbar::dumpState(std::ostream &os) const
{
    for (unsigned i = 0; i < _p.ports; ++i) {
        const Input &in = _in[i];
        // Idle, empty inputs would drown the interesting ones.
        if (in.target < 0 && !in.waiting && in.fifo->empty())
            continue;
        os << "  in" << i << ": target=" << in.target
           << " waiting=" << (in.waiting ? 1 : 0)
           << " lastMove=" << in.lastMove << " ";
        in.fifo->dumpTo(os);
    }
    for (unsigned o = 0; o < _p.ports; ++o) {
        const Output &out = _out[o];
        if (!out.tx || (out.owner < 0 && out.waiters.empty() &&
                        out.tx->inflight() == 0))
            continue;
        os << "  out" << o << ": owner=" << out.owner
           << " waiters=" << out.waiters.size()
           << " inflight=" << out.tx->inflight() << "\n";
    }
    _ring.dump(os);
}

} // namespace pm::net
