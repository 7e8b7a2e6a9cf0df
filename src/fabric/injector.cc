#include "fabric/injector.hh"

#include "sim/logging.hh"

namespace pm::fabric {

Injector::Injector(Fabric &fabric, sim::EventQueue &queue, unsigned node,
                   const InjectorParams &params)
    : _fabric(fabric),
      _queue(queue),
      _node(node),
      _p(params),
      _rng(params.seed * 7919 + node)
{
    if (_p.offeredMBps <= 0.0 || _p.payloadWords == 0)
        pm_fatal("injector: offered load and payload must be positive");
    const double bytesPerMsg = _p.payloadWords * 8.0;
    const double usPerMsg = bytesPerMsg / _p.offeredMBps; // MB/s = B/us
    _interval = static_cast<Tick>(usPerMsg * kTicksPerUs);
    if (_interval == 0)
        _interval = 1;
}

void
Injector::start(Tick until)
{
    _until = until;
    // Fire-and-forget: the injector re-arms itself from the callback.
    (void)_queue.schedule(_queue.now() + 1 + _rng.below(_interval),
                          [this] { tryInject(); });
}

void
Injector::tryInject()
{
    const Tick now = _queue.now();
    if (now >= _until)
        return;

    unsigned dst;
    if (_p.uniformRandom) {
        dst = static_cast<unsigned>(_rng.below(_fabric.numNodes() - 1));
        if (dst >= _node)
            ++dst;
    } else {
        dst = _p.fixedDest;
    }

    auto &ni = _fabric.ni(_node, _p.net);
    const auto route = _fabric.route(_node, dst, /*spread=*/
                                     static_cast<unsigned>(_rng.next()));
    // route bytes + header + payload + close, all at once.
    const unsigned needed =
        static_cast<unsigned>(route.size()) + 2 + _p.payloadWords;
    if (ni.sendSpace() < needed) {
        // FIFO backpressure: retry shortly; the deficit is recorded.
        ++throttled;
        (void)_queue.scheduleIn(_interval / 4 + 1, [this] { tryInject(); });
        return;
    }

    for (auto byte : route)
        ni.pushSend(net::Symbol::makeRoute(byte), now);
    // Header: payload length; first payload word carries the stamp.
    ni.pushSend(net::Symbol::makeData(_p.payloadWords), now);
    ni.pushSend(net::Symbol::makeData(now), now);
    for (unsigned w = 1; w < _p.payloadWords; ++w)
        ni.pushSend(net::Symbol::makeData(_rng.next()), now);
    ni.pushSend(net::Symbol::makeClose(), now);
    ++sent;

    (void)_queue.scheduleIn(_interval, [this] { tryInject(); });
}

Drain::Drain(Fabric &fabric, sim::EventQueue &queue, unsigned net,
             Tick pollInterval)
    : _fabric(fabric),
      _queue(queue),
      _net(net),
      _poll(pollInterval),
      _state(fabric.numNodes())
{
    (void)_queue.scheduleIn(_poll, [this] { pump(); });
}

void
Drain::pump()
{
    if (_stopped)
        return;
    for (unsigned n = 0; n < _fabric.numNodes(); ++n) {
        auto &ni = _fabric.ni(n, _net);
        NodeState &st = _state[n];
        while (true) {
            // Retire drained messages so the status register moves on
            // to the next one (it never spans a message boundary).
            if (ni.frontMessageDrained()) {
                (void)ni.consumeMessage();
                continue;
            }
            if (ni.recvAvailable() == 0)
                break;
            const std::uint64_t w = ni.popRecv();
            if (!st.haveHeader) {
                st.haveHeader = true;
                st.expect = w;
                st.stamp = 0;
                continue;
            }
            if (st.stamp == 0)
                st.stamp = w; // first payload word: inject tick
            if (--st.expect == 0) {
                st.haveHeader = false;
                ++_received;
                if (_queue.now() >= st.stamp)
                    _latency.sample(
                        static_cast<double>(_queue.now() - st.stamp));
            }
        }
    }
    (void)_queue.scheduleIn(_poll, [this] { pump(); });
}

} // namespace pm::fabric
