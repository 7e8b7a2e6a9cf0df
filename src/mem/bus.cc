#include "mem/bus.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace pm::mem {

NodeBus::NodeBus(const BusParams &bp, const DramParams &dp, unsigned numCpus)
    : _bp(bp),
      _dp(dp),
      _clk(bp.clockMhz),
      _addrTicks(_clk.cycles(bp.addrCycles)),
      _snoopTicks(_clk.cycles(bp.snoopCycles)),
      _dirLookupTicks(_clk.cycles(bp.dirLookupCycles)),
      _dram(dp.name, dp.banks),
      _caches(numCpus, nullptr),
      _dirBanks("dir",
                bp.transport == TransportKind::Directory ? bp.dirBanks : 0),
      _stats(bp.name)
{
    const char *name = bp.name.c_str();
    if (numCpus == 0)
        pm_fatal("bus %s: need at least one CPU port", name);
    if (dp.banks == 0)
        pm_fatal("bus %s: DRAM %s needs at least one bank", name,
                 dp.name.c_str());
    if (bp.dataWidthBytes == 0 || bp.lineBytes % bp.dataWidthBytes != 0)
        pm_fatal("bus %s: line size must be a multiple of the data width",
                 name);
    if (bp.transport == TransportKind::Directory) {
        if (!bp.splitTransactions)
            pm_fatal("bus %s: a directory transport needs a "
                     "split-transaction bus (a circuit-switched master "
                     "holds the broadcast phase by construction)",
                     name);
        if (numCpus > 64)
            pm_fatal("bus %s: a directory's sharer vector holds at most "
                     "64 CPUs, got %u",
                     name, numCpus);
        if (bp.dirBanks == 0)
            pm_fatal("bus %s: a directory needs at least one bank", name);
    }
    const Cycles beatsPerLine = bp.lineBytes / bp.dataWidthBytes;
    _lineDataTicks = _clk.cycles(beatsPerLine);
    _beatTicks = _clk.cycles(1);
    _cpuPorts.resize(numCpus);

    _stats.add(&transactions);
    _stats.add(&c2cTransfers);
    _stats.add(&dramReads);
    _stats.add(&dramWrites);
    _stats.add(&pioBeats);
    _stats.add(&snoopProbes);
    _stats.add(&dirLookups);
    _stats.add(&targetedInvals);
    _stats.add(&addrBusyTicks);
    _stats.add(&dirBusyTicks);
    _stats.add(&addrWait);
}

void
NodeBus::attachCache(unsigned cpu, Cache *l2)
{
    if (cpu >= _caches.size())
        pm_fatal("bus %s: CPU index %u out of range", _bp.name.c_str(), cpu);
    _caches[cpu] = l2;
}

Tick
NodeBus::acquirePath(Resource &a, Resource &b, Tick at, Tick ticks)
{
    if (!_bp.pointToPointData)
        return _sharedData.acquire(at, ticks);
    return Resource::acquirePair(a, b, at, ticks);
}

void
NodeBus::setTimeFloor(Tick floor)
{
    if (floor <= _floor)
        return;
    _floor = floor;
    _addrPhase.pruneBelow(floor);
    _sharedData.pruneBelow(floor);
    for (auto &p : _cpuPorts)
        p.pruneBelow(floor);
    _memPort.pruneBelow(floor);
    _ioPort.pruneBelow(floor);
    _dram.pruneBelow(floor);
    _dirBanks.pruneBelow(floor);
}

std::size_t
NodeBus::intervals() const
{
    std::size_t total = _addrPhase.intervals() + _sharedData.intervals() +
                        _memPort.intervals() + _ioPort.intervals() +
                        _dram.intervals() + _dirBanks.intervals();
    for (const auto &p : _cpuPorts)
        total += p.intervals();
    return total;
}

std::uint64_t
NodeBus::directorySharers(Addr lineAddr) const
{
    auto it = _sharers.find(lineAddr & ~Addr(_bp.lineBytes - 1));
    return it == _sharers.end() ? 0 : it->second;
}

SnoopResult
NodeBus::probePeer(unsigned cpu, Addr lineAddr, bool exclusive,
                   ProbeOutcome &po)
{
    ++po.probes;
    ++snoopProbes;
    const SnoopResult sr = _caches[cpu]->snoop(lineAddr, exclusive);
    if (sr.dirtySupplied) {
        po.dirtyOwner = true;
        po.owner = static_cast<int>(cpu);
    }
    po.sharedByOthers |= sr.present;
    return sr;
}

/*
 * The sparse directory is conservative, never wrong: caches drop clean
 * lines without telling anyone, so a tracked sharer may no longer hold
 * the line. A lone tracked sharer is probed anyway (it may hold the
 * line Exclusive or Modified and must downgrade or supply dirty data)
 * and pruned if the probe misses; with two or more tracked sharers
 * every real copy is provably Shared — a grant of E would have
 * collapsed the sharer set first — so reads are answered from the
 * directory without probing anyone, at worst granting Shared where
 * Exclusive was possible.
 */
NodeBus::ProbeOutcome
NodeBus::probe(const BusReq &req)
{
    ProbeOutcome po;
    if (_bp.transport == TransportKind::Snoop) {
        if (req.type == TxType::Writeback)
            return po;
        const bool exclusive = req.type != TxType::ReadShared;
        for (unsigned c = 0; c < _caches.size(); ++c) {
            if (static_cast<int>(c) != req.srcCpu && _caches[c])
                probePeer(c, req.lineAddr, exclusive, po);
        }
        return po;
    }

    const std::uint64_t srcBit =
        req.srcCpu >= 0 ? (std::uint64_t(1) << unsigned(req.srcCpu)) : 0;
    if (req.type == TxType::Writeback) {
        // The writer is dropping its (Modified) copy.
        auto it = _sharers.find(req.lineAddr);
        if (it != _sharers.end()) {
            it->second &= ~srcBit;
            if (it->second == 0)
                _sharers.erase(it);
        }
        return po;
    }

    ++dirLookups;
    std::uint64_t &sharers = _sharers[req.lineAddr];
    // Probe a tracked sharer; drop its bit if its copy is stale (or
    // gone) or was just killed.
    const auto probeSharer = [&](unsigned cpu, bool exclusive) {
        const std::uint64_t bit = std::uint64_t(1) << cpu;
        if (!_caches[cpu]) {
            sharers &= ~bit;
            return;
        }
        const SnoopResult sr = probePeer(cpu, req.lineAddr, exclusive, po);
        if (!sr.present || exclusive)
            sharers &= ~bit;
    };
    if (req.type == TxType::ReadShared) {
        const std::uint64_t others = sharers & ~srcBit;
        if (std::has_single_bit(others)) {
            // A lone tracked peer may hold E or M: downgrade it (and
            // learn whether it supplies dirty data).
            probeSharer(static_cast<unsigned>(std::countr_zero(others)),
                        /*exclusive=*/false);
        }
        po.sharedByOthers = (sharers & ~srcBit) != 0;
        sharers |= srcBit;
    } else { // ReadExclusive / Upgrade: invalidate tracked sharers.
        for (std::uint64_t targets = sharers & ~srcBit; targets != 0;
             targets &= targets - 1) {
            ++targetedInvals;
            probeSharer(static_cast<unsigned>(std::countr_zero(targets)),
                        /*exclusive=*/true);
        }
        po.sharedByOthers = false; // All peer copies are dead.
        sharers = srcBit;
    }
    if (sharers == 0)
        _sharers.erase(req.lineAddr);
    return po;
}

Tick
NodeBus::resolve(const BusReq &req, Tick now, const ProbeOutcome &po)
{
    if (_bp.transport == TransportKind::Snoop) {
        const Tick addrStart = _addrPhase.acquire(now, _addrTicks);
        addrWait.sample(static_cast<double>(addrStart - now));
        addrBusyTicks += static_cast<double>(_addrTicks);
        return addrStart + _addrTicks + _snoopTicks;
    }
    const auto bank = static_cast<unsigned>((req.lineAddr / _bp.lineBytes) %
                                            _bp.dirBanks);
    const Tick start = _dirBanks.acquire(bank, now, _dirLookupTicks);
    addrWait.sample(static_cast<double>(start - now));
    dirBusyTicks += static_cast<double>(_dirLookupTicks);
    Tick done = start + _dirLookupTicks;
    if (po.probes > 0)
        done += _snoopTicks; // Targeted probes respond in parallel.
    return done;
}

BusResult
NodeBus::request(const BusReq &req, Tick now)
{
    pm_assert(now >= _floor, "bus %s: request at tick %llu below the "
              "time floor %llu", _bp.name.c_str(),
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(_floor));
    ++transactions;
    BusResult res;

    // --- Coherence (functional; applied regardless of timing mode). --
    // Snoop the peers (or target the tracked sharers) and note what
    // was found.
    const ProbeOutcome po = probe(req);
    res.sharedByOthers = po.sharedByOthers;
    res.cacheToCache = po.dirtyOwner;

    // --- Non-split (circuit-switched) bus: one resource holds the ----
    // --- whole transaction.                                       ----
    if (!_bp.splitTransactions) {
        Tick service = _addrTicks + _snoopTicks;
        switch (req.type) {
          case TxType::Upgrade:
            break;
          case TxType::Writeback:
            service += _lineDataTicks;
            break;
          case TxType::ReadShared:
          case TxType::ReadExclusive:
            if (po.dirtyOwner) {
                service += _clk.cycles(_bp.c2cExtraCycles) + _lineDataTicks;
            } else {
                service += _dp.latency + _lineDataTicks;
            }
            break;
        }
        // The circuit-switched bus is held together with the DRAM
        // bank it uses: a transaction cannot start until both are
        // free, which also keeps the bank backlog bounded.
        const bool usesDram =
            req.type == TxType::Writeback ||
            ((req.type == TxType::ReadShared ||
              req.type == TxType::ReadExclusive) && !po.dirtyOwner);
        Tick start;
        if (usesDram) {
            if (req.type == TxType::Writeback)
                ++dramWrites;
            else
                ++dramReads;
            Resource &bank = _dram.bank(bankOf(req.lineAddr));
            start = Resource::acquireTogether(
                _addrPhase, service, bank, _dp.occupancy(_bp.lineBytes),
                now);
        } else {
            if (po.dirtyOwner)
                ++c2cTransfers;
            start = _addrPhase.acquire(now, service);
        }
        addrWait.sample(static_cast<double>(start - now));
        addrBusyTicks += static_cast<double>(service);
        res.done = start + service;
        return res;
    }

    // --- Split-transaction path: charge the serialization -------------
    // --- (address phase or directory bank).                -------------
    const Tick snooped = resolve(req, now, po);

    switch (req.type) {
      case TxType::Upgrade:
        // Address-only transaction: invalidations ride the snoop (or
        // the directory's targeted probes).
        res.done = snooped;
        return res;

      case TxType::Writeback: {
        ++dramWrites;
        Resource &srcPort = _cpuPorts[req.srcCpu % _cpuPorts.size()];
        const Tick dataStart =
            acquirePath(srcPort, _memPort, snooped, _lineDataTicks);
        _dram.acquire(bankOf(req.lineAddr), dataStart,
                      _dp.occupancy(_bp.lineBytes));
        res.done = dataStart + _lineDataTicks;
        return res;
      }

      case TxType::ReadShared:
      case TxType::ReadExclusive: {
        Resource &dstPort = _cpuPorts[req.srcCpu % _cpuPorts.size()];
        if (po.dirtyOwner) {
            // Intervention: the owning cache drives the line directly
            // to the requester through the switch. Memory is updated in
            // the background (reserve the bank; don't extend the
            // requester's latency).
            ++c2cTransfers;
            Resource &ownPort = _cpuPorts[po.owner % (int)_cpuPorts.size()];
            const Tick t0 = snooped + _clk.cycles(_bp.c2cExtraCycles);
            const Tick dataStart =
                acquirePath(ownPort, dstPort, t0, _lineDataTicks);
            res.done = dataStart + _lineDataTicks;
            _dram.acquire(bankOf(req.lineAddr), res.done,
                          _dp.occupancy(_bp.lineBytes));
            return res;
        }
        ++dramReads;
        const unsigned bank = bankOf(req.lineAddr);
        const Tick bankStart =
            _dram.acquire(bank, snooped, _dp.occupancy(_bp.lineBytes));
        const Tick dataReady = bankStart + _dp.latency;
        const Tick dataStart =
            acquirePath(_memPort, dstPort, dataReady, _lineDataTicks);
        res.done = dataStart + _lineDataTicks;
        return res;
      }
    }
    pm_panic("unhandled bus transaction type");
}

Tick
NodeBus::pioBeat(int srcCpu, Tick now)
{
    pm_assert(now >= _floor, "bus %s: PIO beat at tick %llu below the "
              "time floor %llu", _bp.name.c_str(),
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(_floor));
    ++pioBeats;
    // Uncached single-beat transfers are not snooped: they hold the
    // serialized address path for one cycle only, not the full
    // snoop-response window. (This path is transport-independent: PIO
    // arbitration exists even when coherence rides a directory.)
    const Tick pioAddrTicks = _clk.cycles(1);
    if (!_bp.splitTransactions) {
        const Tick service = pioAddrTicks + _beatTicks;
        addrBusyTicks += static_cast<double>(service);
        return _addrPhase.acquire(now, service) + service;
    }
    const Tick addrStart = _addrPhase.acquire(now, pioAddrTicks);
    addrBusyTicks += static_cast<double>(pioAddrTicks);
    Resource &srcPort = _cpuPorts[srcCpu % (int)_cpuPorts.size()];
    const Tick dataStart = acquirePath(srcPort, _ioPort,
                                       addrStart + pioAddrTicks,
                                       _beatTicks);
    return dataStart + _beatTicks;
}

void
NodeBus::resetTiming()
{
    _floor = 0;
    _addrPhase.reset();
    _sharedData.reset();
    for (auto &p : _cpuPorts)
        p.reset();
    _memPort.reset();
    _ioPort.reset();
    _dram.reset();
    _dirBanks.reset();
}

void
NodeBus::resetCoherence()
{
    _sharers.clear();
}

} // namespace pm::mem
