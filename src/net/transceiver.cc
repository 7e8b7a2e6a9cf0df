#include "net/transceiver.hh"

#include "sim/logging.hh"

namespace pm::net {

namespace {

/** 2 KB of buffer expressed in symbols (worst case: 8-byte words). */
unsigned
symbolCapacity(unsigned fifoBytes)
{
    return fifoBytes / 8;
}

} // namespace

Transceiver::Transceiver(const TransceiverParams &params,
                         sim::EventQueue &queue)
    : _p(params),
      _queue(queue),
      _in(params.name + ".fifo", symbolCapacity(params.fifoBytes))
{
    // The cable latency rides on the output link.
    _p.link.latency += params.cableLatency;
    // Arrival counts as progress for the stall watchdog.
    _in.setFillCallback([this] {
        _lastMove = _queue.now();
        wake(_queue.now());
    });
}

void
Transceiver::connectOutput(SymbolSink *downstream)
{
    if (_tx)
        pm_fatal("transceiver %s: output already connected",
                 _p.name.c_str());
    _tx = std::make_unique<LinkTx>(_p.name + ".out", _queue, _p.link,
                                   downstream);
}

void
Transceiver::reset()
{
    _in.clear();
    _pump.cancel(_queue);
    _lastMove = _queue.now();
    if (_tx)
        _tx->reset();
}

void
Transceiver::pump()
{
    if (!_tx)
        pm_panic("transceiver %s: symbols arrived before the output was "
                 "connected",
                 _p.name.c_str());
    if (_in.empty() ||
        !_tx->ready(_queue.now(), [this](Tick t) { wake(t); }))
        return;
    const Symbol sym = _in.pop();
    _lastMove = _queue.now();
    const Tick wireFree = _tx->send(sym, _queue.now());
    if (!_in.empty())
        wake(wireFree);
}

bool
Transceiver::wireQuiet() const
{
    return _in.empty() && (!_tx || _tx->inflight() == 0);
}

void
Transceiver::checkHealth(sim::health::Check &check)
{
    if (!_in.empty() && check.expired(_lastMove))
        check.report("buffer stuck %u/%u since tick %llu", _in.size(),
                     _in.capacity(), (unsigned long long)_lastMove);
}

void
Transceiver::audit(sim::health::Auditor &audit)
{
    audit.check(_in.empty(), "buffer not empty (%u/%u)", _in.size(),
                _in.capacity());
    if (_tx)
        audit.check(_tx->inflight() == 0, "%u symbols in flight",
                    _tx->inflight());
}

void
Transceiver::dumpState(std::ostream &os) const
{
    os << "  ";
    _in.dumpTo(os);
    if (_tx)
        os << "  inflight=" << _tx->inflight()
           << " lastMove=" << _lastMove << "\n";
}

} // namespace pm::net
