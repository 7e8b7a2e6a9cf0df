#include "cpu/proc.hh"

#include "sim/logging.hh"

namespace pm::cpu {

Proc::Proc(const CpuParams &params, int cpuId, mem::Cache *l1d,
           mem::NodeBus *bus)
    : _p(params),
      _cpuId(cpuId),
      _clk(params.clockMhz),
      _l1d(l1d),
      _bus(bus),
      _dtlb(params.tlb),
      _stats(params.name)
{
    if (!_l1d || !_bus)
        pm_fatal("cpu %s: needs an L1 data cache and a node bus",
                 _p.name.c_str());
    if (_p.issueWidth <= 0 || _p.fpOpsPerCycle <= 0 || _p.intOpsPerCycle <= 0)
        pm_fatal("cpu %s: throughputs must be positive", _p.name.c_str());
    if (_p.maxOutstandingMisses == 0)
        pm_fatal("cpu %s: maxOutstandingMisses must be >= 1",
                 _p.name.c_str());
    _issueTick = static_cast<Tick>(_clk.period() / _p.issueWidth + 0.5);
    _fpTick = static_cast<Tick>(_clk.period() / _p.fpOpsPerCycle + 0.5);
    _intTick = static_cast<Tick>(_clk.period() / _p.intOpsPerCycle + 0.5);

    _stats.add(&loads);
    _stats.add(&stores);
    _stats.add(&fpOps);
    _stats.add(&intOps);
    _stats.add(&missStalls);
    _stats.add(&tlbMisses);
    _stats.add(&busFills);
    _stats.add(&busUpgrades);
}

void
Proc::memAccess(Addr addr, bool write)
{
    _time += _issueTick;

    // Address translation precedes the cache access; a table walk
    // stalls the core for the walk logic plus a real page-table-entry
    // read through the cache hierarchy (PTE reads are cacheable and
    // contend for the bus like any other access).
    if (!_dtlb.access(addr)) {
        ++tlbMisses;
        _time += _clk.cycles(_p.tlb.walkCycles);
        const Addr pte =
            _p.tlb.pteAddr(kPageTableBase, addr / _p.tlb.pageBytes);
        mem::AccessResult w =
            _l1d->access(mem::MemReq{pte, false, _cpuId}, _time);
        if (w.fromBus) {
            // The walk blocks retirement until the PTE arrives.
            if (w.done > _time)
                _time = w.done;
        } else if (!w.hit) {
            _time += _clk.cycles(_p.l2HitStallCycles);
        }
    }

    // Wait for a miss slot if the in-flight window is full. The window
    // covers bus-level misses only: an access issued while the window
    // is full stalls until the oldest miss returns (blocking cache when
    // the window size is 1 — the MPC620's missing load pipelining).
    if (_outstanding.size() >= _p.maxOutstandingMisses) {
        const Tick ready = _outstanding.front();
        _outstanding.pop_front();
        if (ready > _time) {
            missStalls += static_cast<double>(ready - _time);
            _time = ready;
        }
    }

    mem::AccessResult r =
        _l1d->access(mem::MemReq{addr, write, _cpuId}, _time);

    if (r.fromBus) {
        // DRAM fill, intervention, or upgrade: subject to the
        // outstanding-miss window. Attribute the traffic: a "hit" that
        // came from the bus is an ownership upgrade (store to a Shared
        // line), anything else is a fill.
        if (r.hit)
            ++busUpgrades;
        else
            ++busFills;
        const Tick done = r.done + _clk.cycles(_p.missExtraCycles);
        _outstanding.push_back(done);
        return;
    }
    if (r.hit) {
        // L1 hit: latency hidden by the load/store pipeline.
        return;
    }
    // Near miss: filled from the private L2. The L2 interface is
    // pipelined on all three machines; charge the partially-hidden
    // stall. Stores are absorbed by the store buffer.
    if (!write)
        _time += _clk.cycles(_p.l2HitStallCycles);
}

void
Proc::load(Addr addr)
{
    ++loads;
    memAccess(addr, false);
}

void
Proc::store(Addr addr)
{
    ++stores;
    memAccess(addr, true);
}

void
Proc::loadSeq(Addr addr, std::uint64_t bytes)
{
    accessSeq(addr, bytes, false);
}

void
Proc::storeSeq(Addr addr, std::uint64_t bytes)
{
    accessSeq(addr, bytes, true);
}

void
Proc::accessSeq(Addr addr, std::uint64_t bytes, bool write)
{
    sim::Scalar &counter = write ? stores : loads;
    const std::uint64_t line = _l1d->lineSize();
    const Addr end = addr + bytes;
    for (Addr a = addr; a < end; ) {
        const Addr lineEnd = (a & ~(line - 1)) + line;
        const Addr chunkEnd = lineEnd < end ? lineEnd : end;
        const std::uint64_t words = (chunkEnd - a + 7) / 8;
        // First word probes the hierarchy; the rest of the line's words
        // are pipelined hits.
        ++counter;
        memAccess(a, write);
        if (words > 1) {
            counter += static_cast<double>(words - 1);
            _time += (words - 1) * _issueTick;
        }
        a = chunkEnd;
    }
}

void
Proc::flops(std::uint64_t n)
{
    fpOps += static_cast<double>(n);
    _time += n * _fpTick;
}

void
Proc::intops(std::uint64_t n)
{
    intOps += static_cast<double>(n);
    _time += n * _intTick;
}

void
Proc::instr(std::uint64_t n)
{
    _time += n * _issueTick;
}

void
Proc::pioBeat()
{
    const Tick done = _bus->pioBeat(_cpuId, _time);
    // Uncached transfers are strongly ordered: the core waits.
    _time = done;
}

void
Proc::drain()
{
    while (!_outstanding.empty()) {
        const Tick ready = _outstanding.front();
        _outstanding.pop_front();
        if (ready > _time) {
            missStalls += static_cast<double>(ready - _time);
            _time = ready;
        }
    }
}

void
Proc::resetTime()
{
    _outstanding.clear();
    _time = 0;
}

} // namespace pm::cpu
