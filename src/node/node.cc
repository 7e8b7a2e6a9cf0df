#include "node/node.hh"

#include "sim/logging.hh"

namespace pm::node {

Node::Node(const NodeParams &params)
    : _p(params),
      _stats(params.name)
{
    if (_p.numCpus == 0)
        pm_fatal("node %s: numCpus must be >= 1", _p.name.c_str());
    if (_p.l2.lineSize != _p.bus.lineBytes)
        pm_fatal("node %s: L2 line size (%u) must equal bus transfer "
                 "granule (%u)",
                 _p.name.c_str(), _p.l2.lineSize, _p.bus.lineBytes);

    mem::BusParams busp = _p.bus;
    busp.transport = _p.transport;
    _bus = std::make_unique<mem::NodeBus>(busp, _p.dram, _p.numCpus);
    _stats.add(&_bus->stats());

    for (unsigned c = 0; c < _p.numCpus; ++c) {
        mem::CacheParams l2p = _p.l2;
        l2p.name = _p.name + ".cpu" + std::to_string(c) + ".l2";
        l2p.coherence = _p.coherence;
        _l2s.push_back(std::make_unique<mem::Cache>(l2p, _bus.get()));
        _bus->attachCache(c, _l2s.back().get());

        mem::CacheParams l1p = _p.l1;
        l1p.name = _p.name + ".cpu" + std::to_string(c) + ".l1d";
        l1p.coherence = _p.coherence;
        _l1s.push_back(std::make_unique<mem::Cache>(l1p, _l2s.back().get()));

        cpu::CpuParams cp = _p.cpu;
        cp.name = _p.name + ".cpu" + std::to_string(c);
        _procs.push_back(std::make_unique<cpu::Proc>(
            cp, static_cast<int>(c), _l1s.back().get(), _bus.get()));

        _stats.add(&_l2s.back()->stats());
        _stats.add(&_l1s.back()->stats());
        _stats.add(&_procs.back()->stats());
    }
}

void
Node::reset()
{
    for (auto &l2 : _l2s)
        l2->invalidateAll();
    _bus->resetCoherence(); // Dropped lines leave no stale sharer bits.
    resetTimingOnly();
    for (auto &p : _procs)
        p->flushTlb();
}

void
Node::resetTimingOnly()
{
    _bus->resetTiming();
    for (auto &p : _procs)
        p->resetTime();
}

} // namespace pm::node
