#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace pm::mem {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * The set count of `p`. Checks the geometry first, so a bad one is a
 * diagnostic (pm_fatal) and never a division by zero or a rounded size.
 */
std::uint32_t
checkedNumSets(const CacheParams &p)
{
    const char *name = p.name.c_str();
    if (p.assoc < 1 || p.assoc > 64)
        pm_fatal("cache %s: associativity %u is not 1 to 64", name,
                 p.assoc);
    if (!isPow2(p.lineSize))
        pm_fatal("cache %s: line size %u is not a power of two", name,
                 p.lineSize);
    const std::uint64_t wayBytes = std::uint64_t(p.assoc) * p.lineSize;
    if (p.sizeBytes % wayBytes != 0)
        pm_fatal("cache %s: size %u is not a multiple of assoc*lineSize "
                 "(%u*%u)", name, p.sizeBytes, p.assoc, p.lineSize);
    const auto sets = static_cast<std::uint32_t>(p.sizeBytes / wayBytes);
    if (!isPow2(sets))
        pm_fatal("cache %s: set count %u is not a power of two", name,
                 sets);
    return sets;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : _p(params),
      _clk(params.clockMhz),
      _hitLatency(_clk.cycles(params.hitCycles)),
      _numSets(checkedNumSets(params)),
      _lineShift(
          static_cast<std::uint32_t>(std::countr_zero(params.lineSize))),
      _wayShift(
          static_cast<std::uint32_t>(std::bit_width(params.assoc - 1))),
      _wayMask(params.assoc == 64 ? ~std::uint64_t(0)
                                  : (std::uint64_t(1) << params.assoc) - 1),
      _lines(std::make_unique_for_overwrite<Line[]>(std::size_t(_numSets)
                                                    << _wayShift)),
      _valid(((std::size_t(_numSets) << _wayShift) + 63) / 64),
      _stamps(params.assoc == 1
                  ? nullptr
                  : std::make_unique_for_overwrite<std::uint64_t[]>(
                        std::size_t(_numSets) << _wayShift)),
      _stats(params.name)
{
    registerStats();
}

Cache::Cache(const CacheParams &params, BusTarget *bus) : Cache(params)
{
    if (!bus)
        pm_fatal("cache %s: null bus target", _p.name.c_str());
    _bus = bus;
}

Cache::Cache(const CacheParams &params, Cache *below) : Cache(params)
{
    if (!below)
        pm_fatal("cache %s: null lower level", _p.name.c_str());
    if (below->lineSize() != _p.lineSize)
        pm_fatal("cache %s: lower level has %u-byte lines, not %u (both "
                 "levels share one line size)",
                 _p.name.c_str(), below->lineSize(), _p.lineSize);
    if (below->_below)
        pm_fatal("cache %s: lower level %s has a level below it "
                 "(hierarchies have two levels)",
                 _p.name.c_str(), below->params().name.c_str());
    if (below->params().coherence != _p.coherence)
        pm_fatal("cache %s: hierarchy levels must speak one protocol",
                 _p.name.c_str());
    _below = below;
    below->_upper = this;
}

void
Cache::registerStats()
{
    _stats.add(&hits);
    _stats.add(&misses);
    _stats.add(&evictions);
    _stats.add(&writebacks);
    _stats.add(&upgrades);
    _stats.add(&snoopInvalidations);
    _stats.add(&snoopDowngrades);
    _stats.add(&interventions);
}

std::uint32_t
Cache::setIndex(Addr lineAddr) const
{
    return static_cast<std::uint32_t>((lineAddr >> _lineShift) &
                                      (_numSets - 1));
}

void
Cache::clearValid(const Line *line)
{
    const auto slot = static_cast<std::size_t>(line - _lines.get());
    _valid[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));
}

Cache::Line *
Cache::findLine(Addr lineAddr)
{
    const std::uint32_t set = setIndex(lineAddr);
    Line *ways = &_lines[std::size_t(set) << _wayShift];
    // Only ways whose bit is set are read.
    for (std::uint64_t bits = setBits(set); bits; bits &= bits - 1) {
        Line &line = ways[std::countr_zero(bits)];
        if (line.tag == lineAddr)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr lineAddr) const
{
    return const_cast<Cache *>(this)->findLine(lineAddr);
}

std::uint32_t
Cache::victimWay(std::uint32_t set)
{
    if (!_stamps)
        return 0; // Direct-mapped: the one way is the victim.
    // Lowest-index free way first.
    if (const std::uint64_t free = ~setBits(set) & _wayMask)
        return static_cast<std::uint32_t>(std::countr_zero(free));
    // A full set: every way was stamped by its fill, so no stamp read
    // here is uninitialized.
    const std::uint64_t *stamps = &_stamps[std::size_t(set) << _wayShift];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < _p.assoc; ++w) {
        if (stamps[w] < stamps[victim])
            victim = w;
    }
    return victim;
}

MesiState
Cache::lineState(Addr addr) const
{
    const Line *line = findLine(lineAlign(addr));
    return line ? line->state : MesiState::Invalid;
}

void
Cache::invalidateLine(Addr lineAddr)
{
    if (_upper)
        _upper->invalidateLine(lineAddr);
    if (const Line *line = findLine(lineAddr))
        clearValid(line);
}

void
Cache::invalidateAll()
{
    if (_upper)
        _upper->invalidateAll();
    std::fill(_valid.begin(), _valid.end(), 0);
}

void
Cache::evict(Line &line, int srcCpu, Tick t)
{
    ++evictions;
    const Addr victimAddr = line.tag;
    // Inclusion: the level above must not keep a line this level drops.
    // A Modified copy there is Modified here too, so its answer adds
    // nothing.
    if (_upper)
        _upper->snoop(victimAddr, /*exclusive=*/true);
    if (line.state == MesiState::Modified) {
        ++writebacks;
        // An upper level's dirty victim is Modified below already, and
        // the lower level's write buffer hides it: no stall is charged.
        // The last level puts the line on the bus; the fill that
        // triggered this eviction serializes with the writeback on the
        // shared address phase naturally.
        if (_bus)
            _bus->request(
                BusReq{victimAddr, TxType::Writeback, srcCpu}, t);
    }
    clearValid(&line);
}

AccessResult
Cache::fill(Addr lineAddr, bool exclusive, int srcCpu, Tick t)
{
    const std::uint32_t set = setIndex(lineAddr);
    const std::uint32_t way = victimWay(set);
    const std::size_t slot = (std::size_t(set) << _wayShift) + way;
    if ((setBits(set) >> way) & 1)
        evict(_lines[slot], srcCpu, t);

    AccessResult res;
    if (_below) {
        MemReq down{lineAddr, exclusive, srcCpu};
        AccessResult sub = _below->access(down, t);
        res.done = sub.done;
        res.fromBus = sub.fromBus;
        // The state granted by the lower level bounds what we may hold.
        res.granted = exclusive ? MesiState::Modified : sub.granted;
        if (!exclusive && sub.granted == MesiState::Modified) {
            // Lower level holds dirty data; this level caches it clean
            // relative to the level below (which keeps ownership).
            res.granted = cleanGrant();
        }
    } else {
        const TxType type =
            exclusive ? TxType::ReadExclusive : TxType::ReadShared;
        BusResult bus = _bus->request(BusReq{lineAddr, type, srcCpu}, t);
        res.done = bus.done;
        res.fromBus = true;
        if (exclusive)
            res.granted = MesiState::Modified;
        else if (bus.sharedByOthers)
            res.granted = MesiState::Shared;
        else
            res.granted = cleanGrant();
    }

    _lines[slot] = Line{lineAddr, res.granted};
    setValid(slot);
    touch(&_lines[slot]);
    res.hit = false;
    return res;
}

Tick
Cache::upgradeLine(Addr lineAddr, int srcCpu, Tick t)
{
    ++upgrades;
    if (_below) {
        // Inclusion: the lower level holds the line.
        Line &low = *_below->findLine(lineAddr);
        if (low.state != MesiState::Shared) {
            // Ownership (E or M) already on this node; grant after one
            // lower-level lookup.
            low.state = MesiState::Modified;
            return t + _below->_hitLatency;
        }
        // Lower level is Shared too: it performs the bus upgrade.
        MemReq down{lineAddr, /*write=*/true, srcCpu};
        return _below->access(down, t).done;
    }
    BusResult bus = _bus->request(
        BusReq{lineAddr, TxType::Upgrade, srcCpu}, t);
    return bus.done;
}

AccessResult
Cache::access(const MemReq &req, Tick now)
{
    const Addr lineAddr = lineAlign(req.addr);
    const Tick t = now + _hitLatency;
    Line *line = findLine(lineAddr);

    if (line) {
        touch(line);
        if (!req.write) {
            ++hits;
            return AccessResult{t, line->state, true};
        }
        // An MSI line is never Exclusive, so this serves both protocols.
        switch (line->state) {
          case MesiState::Modified:
            ++hits;
            return AccessResult{t, MesiState::Modified, true};
          case MesiState::Exclusive:
            // Silent E -> M: no peer holds a copy.
            ++hits;
            line->state = MesiState::Modified;
            // A Modified line is Modified below too, so the lower
            // level answers snoops for both.
            if (_below)
                _below->findLine(lineAddr)->state = MesiState::Modified;
            return AccessResult{t, MesiState::Modified, true};
          case MesiState::Shared: {
            // An upgrade probes only peers, so `line` stays put.
            const Tick done = upgradeLine(lineAddr, req.srcCpu, t);
            line->state = MesiState::Modified;
            // An upgrade crossed (or may have crossed) the bus: report
            // it as bus traffic so the core applies miss semantics.
            return AccessResult{done, MesiState::Modified, true, true};
          }
          case MesiState::Invalid:
            pm_panic("store hit on an Invalid line");
        }
    }

    ++misses;
    return fill(lineAddr, req.write, req.srcCpu, t);
}

SnoopResult
Cache::snoop(Addr lineAddr, bool exclusive)
{
    Line *line = findLine(lineAddr);
    if (!line)
        return {}; // Inclusion: the level above lacks it too.
    // The level above reacts alike. Its answer adds nothing: a line
    // Modified there is Modified here.
    if (_upper)
        _upper->snoop(lineAddr, exclusive);

    // Modified data is supplied; an exclusive snoop kills the line, any
    // other demotes it to Shared (an M or E line counts a downgrade).
    SnoopResult res;
    if (line->state == MesiState::Modified) {
        res.dirtySupplied = true;
        ++interventions;
    }
    if (exclusive) {
        ++snoopInvalidations;
        clearValid(line);
    } else {
        if (line->state != MesiState::Shared)
            ++snoopDowngrades;
        line->state = MesiState::Shared;
    }
    // res.present reflects pre-snoop residency for invalidations.
    res.present = true;
    return res;
}

} // namespace pm::mem
