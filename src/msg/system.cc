#include "msg/system.hh"

#include <algorithm>

#include "msg/driver.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace pm::msg {

System::System(const SystemParams &params)
    : _p(params),
      _health(_queue)
{
    // Quiet machines build quiet: the inform() gate carries over from
    // whatever context the constructing code runs under (a bench that
    // silenced inform, a sweep worker's options).
    _ctx.setInformEnabled(sim::Context::current().informEnabled());
    sim::Context::Scope scope(_ctx);
    _fabric = std::make_unique<fabric::Fabric>(_p.fabric, _queue);
    _fabric->registerHealth(_health);
    for (unsigned i = 0; i < _fabric->numNodes(); ++i) {
        node::NodeParams np = _p.node;
        np.name = np.name + ".node" + std::to_string(i);
        _nodes.push_back(std::make_unique<node::Node>(np));
    }
}

void
System::resetForRun()
{
    sim::Context::Scope scope(_ctx);
    _fabric->reset();
    for (auto &n : _nodes) {
        n->reset();
        for (unsigned c = 0; c < n->numCpus(); ++c)
            n->proc(c).advanceTo(_queue.now());
    }
    for (PmComm *endpoint : _endpoints)
        endpoint->resetForRun();
    // The reset voided any in-flight symbols, so the old baselines no
    // longer balance; re-snapshot before auditing the empty machine.
    snapshotAuditBaselines();
    _health.runAudit(sim::health::Auditor::Point::PostReset,
                     "resetForRun");
}

void
System::attach(PmComm *endpoint)
{
    _endpoints.push_back(endpoint);
    _health.add(endpoint);
}

void
System::detach(PmComm *endpoint)
{
    _health.remove(endpoint);
    std::erase(_endpoints, endpoint);
}

bool
System::quiet() const
{
    for (const PmComm *endpoint : _endpoints)
        if (!endpoint->quiescent())
            return false;
    return _fabric->wireQuiet();
}

Tick
System::timeFloor(unsigned nodeId) const
{
    Tick floor = _queue.now();
    for (PmComm *endpoint : _endpoints)
        if (endpoint->nodeId() == nodeId)
            floor = std::min(floor, endpoint->proc().time());
    return floor;
}

bool
System::drain(const char *where)
{
    sim::Context::Scope scope(_ctx);
    // deadPeers() allocates only once a peer is dead, and then the
    // drain stops: no allocation per step.
    const auto gaveUp = [&] {
        for (const PmComm *endpoint : _endpoints)
            if (!endpoint->deadPeers().empty())
                return true;
        return false;
    };
    while (!gaveUp() && !quiet() && _queue.step()) {
    }
    if (gaveUp())
        return false;
    auditQuiescent(where);
    return true;
}

void
System::runDry()
{
    if (_health.watchdogEnabled())
        return;
    sim::Context::Scope scope(_ctx);
    while (_queue.step()) {
    }
}

void
System::sumNiWords(double &sent, double &received)
{
    sent = 0.0;
    received = 0.0;
    for (unsigned net = 0; net < _p.fabric.networks; ++net) {
        for (unsigned n = 0; n < _fabric->numNodes(); ++n) {
            const ni::LinkInterface &ni = _fabric->ni(n, net);
            sent += ni.wordsSent.value();
            received += ni.wordsReceived.value();
        }
    }
}

void
System::snapshotAuditBaselines()
{
    sumNiWords(_auditBaseSent, _auditBaseReceived);
    _auditBaseDropped =
        _p.fabric.fault ? _p.fabric.fault->wordsDropped.value() : 0.0;
}

void
System::auditQuiescent(const char *where)
{
    sim::Context::Scope scope(_ctx);
    double sent = 0.0;
    double received = 0.0;
    sumNiWords(sent, received);
    const double dropped =
        _p.fabric.fault ? _p.fabric.fault->wordsDropped.value() : 0.0;
    const double dSent = sent - _auditBaseSent;
    const double dReceived = received - _auditBaseReceived;
    const double dDropped = dropped - _auditBaseDropped;
    // Every payload word an NI sent since the last audit must by now
    // have been received by an NI or dropped by fault injection —
    // there is nowhere else for a word to be once the wires are quiet.
    // (The hardware CRC word is counted on neither side: inserted
    // after wordsSent, stripped before wordsReceived. A *dropped* CRC
    // word books as one received-side short-fall plus one drop, which
    // still balances.)
    if (dSent != dReceived + dDropped) {
        pm_panic("conservation audit failed at %s: words sent %.0f != "
                 "received %.0f + dropped %.0f (delta %.0f)",
                 where, dSent, dReceived, dDropped,
                 dSent - (dReceived + dDropped));
    }
    snapshotAuditBaselines();
    _health.runAudit(sim::health::Auditor::Point::Quiescent, where);
}

} // namespace pm::msg
