#include "ni/linkinterface.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pm::ni {

LinkInterface::LinkInterface(const LinkIfParams &params,
                             sim::EventQueue &queue)
    : _p(params),
      _queue(queue),
      _stats(params.name)
{
    if (_p.fifoWords == 0)
        pm_fatal("link interface %s: FIFO depth must be positive",
                 _p.name.c_str());
    _stats.add(&wordsSent);
    _stats.add(&wordsReceived);
    _stats.add(&crcErrors);
}

// ---- CPU side. --------------------------------------------------------

unsigned
LinkInterface::sendSpace() const
{
    const std::size_t used = _sendFifo.size();
    return used >= _p.fifoWords ? 0
                                : static_cast<unsigned>(_p.fifoWords - used);
}

void
LinkInterface::pushSend(const net::Symbol &sym, Tick now)
{
    if (sendSpace() == 0)
        pm_panic("link interface %s: software overran the send FIFO "
                 "(%zu/%u words buffered)",
                 _p.name.c_str(), _sendFifo.size(), _p.fifoWords);
    _sendFifo.push_back(SendEntry{sym, now});
    _lastTx = _queue.now();
    wake(_queue.now());
}

unsigned
LinkInterface::recvAvailable() const
{
    if (!_completed.empty())
        return static_cast<unsigned>(_completed.front().words - _drained);
    return static_cast<unsigned>(_recvFifo.size());
}

std::uint64_t
LinkInterface::popRecv()
{
    if (recvAvailable() == 0)
        pm_panic("link interface %s: software read past the receive "
                 "FIFO or a message boundary (%zu words buffered, "
                 "%zu completed messages, %llu drained)",
                 _p.name.c_str(), _recvFifo.size(), _completed.size(),
                 (unsigned long long)_drained);
    const std::uint64_t w = _recvFifo.front();
    _recvFifo.pop_front();
    ++_drained;
    _rx.releaseWaiters();
    return w;
}

const LinkInterface::RecvMsgInfo &
LinkInterface::frontMessage() const
{
    if (_completed.empty())
        pm_panic("link interface %s: no completed message",
                 _p.name.c_str());
    return _completed.front();
}

LinkInterface::RecvMsgInfo
LinkInterface::consumeMessage()
{
    if (!frontMessageDrained())
        pm_panic("link interface %s: consuming a message with words "
                 "still buffered",
                 _p.name.c_str());
    const RecvMsgInfo info = _completed.front();
    _completed.pop_front();
    _drained = 0;
    return info;
}

void
LinkInterface::reset()
{
    _sendFifo.clear();
    _recvFifo.clear();
    _staged.reset();
    _crcTx.reset();
    _crcRx.reset();
    _crcPendingClose = false;
    _txAnyData = false;
    _messages = 0;
    _completed.clear();
    _drained = 0;
    _rxMsgWords = 0;
    _pump.cancel(_queue);
    _lastTx = _queue.now();
    _rx.dropWaiters();
    if (_tx)
        _tx->reset();
}

// ---- Send pump. --------------------------------------------------------

void
LinkInterface::connectOutput(net::SymbolSink *downstream)
{
    if (_tx)
        pm_fatal("link interface %s: output already connected",
                 _p.name.c_str());
    _tx = std::make_unique<net::LinkTx>(_p.name + ".tx", _queue, _p.link,
                                        downstream);
}

void
LinkInterface::pump()
{
    if (!_tx)
        pm_panic("link interface %s: sending with no link connected",
                 _p.name.c_str());
    const Tick now = _queue.now();

    if ((!_crcPendingClose && _sendFifo.empty()) ||
        !_tx->ready(now, [this](Tick t) { wake(t); }))
        return;

    if (_crcPendingClose) {
        // The CRC word has gone out; the close command follows.
        _crcPendingClose = false;
        _lastTx = now;
        const Tick wireFree = _tx->send(net::Symbol::makeClose(), now);
        if (!_sendFifo.empty())
            wake(wireFree);
        return;
    }

    const SendEntry &head = _sendFifo.front();
    if (head.readyAt > now) {
        // The CPU has not logically written this word yet.
        wake(head.readyAt);
        return;
    }

    const net::Symbol sym = head.sym;
    _sendFifo.pop_front();
    _lastTx = now;

    Tick wireFree;
    switch (sym.kind) {
      case net::SymKind::Route:
        wireFree = _tx->send(sym, now);
        break;
      case net::SymKind::Data:
        _crcTx.update(sym.data);
        _txAnyData = true;
        ++wordsSent;
        wireFree = _tx->send(sym, now);
        break;
      case net::SymKind::Close:
        if (_txAnyData) {
            // Hardware inserts the CRC word ahead of the close.
            wireFree = _tx->send(
                net::Symbol::makeData(_crcTx.value()), now);
            _crcPendingClose = true;
            _crcTx.reset();
            _txAnyData = false;
        } else {
            wireFree = _tx->send(sym, now);
        }
        break;
      default:
        pm_panic("link interface %s: unknown symbol kind",
                 _p.name.c_str());
    }

    if (_crcPendingClose || !_sendFifo.empty())
        wake(wireFree);
}

// ---- Receive port. ------------------------------------------------------

unsigned
LinkInterface::RxPort::freeSpace() const
{
    const unsigned used = static_cast<unsigned>(_ni._recvFifo.size()) +
                          (_ni._staged.has_value() ? 1u : 0u);
    return used >= _ni._p.fifoWords
               ? 0u
               : _ni._p.fifoWords - used;
}

void
LinkInterface::RxPort::push(const net::Symbol &sym)
{
    LinkInterface &ni = _ni;
    switch (sym.kind) {
      case net::SymKind::Route:
        pm_panic("link interface %s: route command reached the node "
                 "(routing bug)",
                 ni._p.name.c_str());
      case net::SymKind::Data:
        if (!hasSpace())
            pm_panic("link interface %s: receive FIFO overrun "
                     "(flow-control bug; %zu/%u words buffered, "
                     "staged=%d)",
                     ni._p.name.c_str(), ni._recvFifo.size(),
                     ni._p.fifoWords, ni._staged.has_value() ? 1 : 0);
        if (ni._staged) {
            // The previously staged word is confirmed payload.
            const bool wasEmpty = ni._recvFifo.empty();
            ni._crcRx.update(*ni._staged);
            ni._recvFifo.push_back(*ni._staged);
            ++ni.wordsReceived;
            ++ni._rxMsgWords;
            // A word just became readable in an empty FIFO: wake the
            // driver in case its engine went dormant (a late
            // retransmit after the last posted receive must still be
            // drained, or it wedges the link).
            if (wasEmpty && ni._recvActivity)
                ni._recvActivity();
        }
        ni._staged = sym.data;
        break;
      case net::SymKind::Close: {
        bool ok = true;
        if (ni._staged) {
            // The staged word is the hardware CRC: strip and verify.
            // A message whose CRC word itself was lost on the wire
            // merges with its close: the last payload word is then
            // mistaken for the CRC and fails the compare — still a
            // detected error, just attributed here.
            ok = static_cast<std::uint32_t>(*ni._staged) ==
                 ni._crcRx.value();
            if (!ok)
                ++ni.crcErrors;
            ni._staged.reset();
        }
        // A dataless message carries no CRC: ok stays true — unless
        // words were lost so thoroughly the message emptied out, in
        // which case _rxMsgWords vs. the sender's header word lets
        // software catch it.
        ni._crcRx.reset();
        ++ni._messages;
        ni._completed.push_back(RecvMsgInfo{ni._rxMsgWords, ok});
        ni._ring.push(ni._queue.now(), ok ? "msg-ok" : "msg-crc-bad",
                      ni._messages, ni._rxMsgWords);
        ni._rxMsgWords = 0;
        pm_trace(ni._queue.now(), "ni", "%s: message %llu complete, crc %s",
                 ni._p.name.c_str(), (unsigned long long)ni._messages,
                 ok ? "ok" : "BAD");
        releaseWaiters();
        if (ni._recvActivity)
            ni._recvActivity();
        break;
      }
    }
}

// ---- Health. -----------------------------------------------------------

bool
LinkInterface::wireQuiet() const
{
    return _sendFifo.empty() && !_crcPendingClose && !_staged &&
           (!_tx || _tx->inflight() == 0);
}

void
LinkInterface::checkHealth(sim::health::Check &check)
{
    if ((!_sendFifo.empty() || _crcPendingClose) && check.expired(_lastTx))
        check.report("send FIFO stuck %zu/%u since tick %llu%s",
                     _sendFifo.size(), _p.fifoWords,
                     (unsigned long long)_lastTx,
                     _crcPendingClose ? " (close pending)" : "");
}

void
LinkInterface::audit(sim::health::Auditor &audit)
{
    audit.check(_sendFifo.empty(), "send FIFO not empty (%zu/%u)",
                _sendFifo.size(), _p.fifoWords);
    audit.check(!_crcPendingClose, "hardware close still pending");
    audit.check(!_staged.has_value(), "receive word still staged");
    if (_tx)
        audit.check(_tx->inflight() == 0, "%u symbols in flight on tx",
                    _tx->inflight());
    if (audit.point() == sim::health::Auditor::Point::PostReset) {
        // After a reset nothing may survive, not even unread payload.
        audit.check(_recvFifo.empty(), "receive FIFO not empty (%zu)",
                    _recvFifo.size());
        audit.check(_completed.empty(), "%zu unconsumed messages",
                    _completed.size());
    }
}

void
LinkInterface::dumpState(std::ostream &os) const
{
    os << "  send: " << _sendFifo.size() << "/" << _p.fifoWords
       << " closePending=" << (_crcPendingClose ? 1 : 0)
       << " inflight=" << (_tx ? _tx->inflight() : 0)
       << " lastTx=" << _lastTx << "\n";
    os << "  recv: " << _recvFifo.size() << "/" << _p.fifoWords
       << " staged=" << (_staged.has_value() ? 1 : 0)
       << " completed=" << _completed.size() << " drained=" << _drained
       << " messages=" << _messages << "\n";
    os << "  words: sent=" << wordsSent.value()
       << " received=" << wordsReceived.value()
       << " crcErrors=" << crcErrors.value() << "\n";
    _ring.dump(os);
}

} // namespace pm::ni
