/**
 * @file
 * Timestamp-reservation resources.
 *
 * The node-level timing model is "immediate mode": a memory access
 * computes its completion time synchronously by reserving time slices
 * on the shared hardware resources it crosses (snoop/address phase,
 * data paths, DRAM banks, and the I/O port that PIO beats cross).
 *
 * Because processors are stepped in bounded *chunks* (see cpu/sched),
 * requests from different processors can arrive at a resource slightly
 * out of global time order — processor A may have reserved slices far
 * ahead before processor B asks for an earlier slot. A resource is
 * therefore a calendar of disjoint busy intervals that supports
 * backfilling: a request is placed in the earliest idle gap at or
 * after its arrival time, which makes the model insensitive to the
 * scheduling chunk size.
 *
 * The calendar is flat: a vector of intervals sorted by start. Being
 * disjoint, they are sorted by end too, so the last interval ends
 * last. Almost every request arrives at or past that end (a CPU
 * driving PIO beats asks again where its previous beat ended) and
 * takes the fast path: a constant-time fit and a push_back. A
 * backfill binary-searches the first interval starting after its
 * arrival, walks forward to the first gap that holds it, and inserts
 * there.
 *
 * Both schedulers set a time floor through NodeBus::setTimeFloor:
 * cpu::runJobs the minimum local time over its processors, and the
 * message layer (msg::System::timeFloor) the earliest tick at which
 * an endpoint on the node can still issue. Intervals that end at or
 * before the floor can never be asked about again and are erased from
 * the front, so on the PIO/message path a calendar holds only the
 * beats still ahead of the driver's engine. The bus checks that no
 * request arrives below its floor.
 */

#ifndef PM_MEM_RESOURCE_HH
#define PM_MEM_RESOURCE_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::mem {

/** A single-server resource: a calendar of disjoint busy intervals. */
class Resource
{
  public:
    Resource() = default;

    /**
     * Earliest start time >= `at` at which `duration` ticks fit into
     * an idle gap. Does not reserve.
     */
    Tick
    earliestFit(Tick at, Tick duration) const
    {
        if (_busy.empty() || at >= _busy.back().end)
            return at;
        Tick cand = at;
        auto it = firstStartingAfter(cand);
        if (it != _busy.begin() && std::prev(it)->end > cand)
            cand = std::prev(it)->end;
        while (it != _busy.end() && it->start < cand + duration) {
            cand = it->end;
            ++it;
        }
        return cand;
    }

    /** Mark [start, start+duration) busy. The caller must have used
     *  earliestFit (the interval must be idle). */
    void
    reserve(Tick start, Tick duration)
    {
        if (duration == 0)
            return;
        const Interval slot{start, start + duration};
        if (_busy.empty() || start >= _busy.back().end)
            _busy.push_back(slot);
        else
            _busy.insert(firstStartingAfter(start), slot);
        _busyTicks += static_cast<double>(duration);
    }

    /**
     * Reserve the earliest fitting slot at or after `at`.
     * @return The tick at which service starts.
     */
    Tick
    acquire(Tick at, Tick duration)
    {
        const Tick start = earliestFit(at, duration);
        reserve(start, duration);
        return start;
    }

    /**
     * Reserve the same earliest start on two resources simultaneously,
     * possibly for different durations (a point-to-point path needs
     * both ports; a circuit-switched bus transaction holds the bus and
     * its DRAM bank together).
     */
    static Tick
    acquireTogether(Resource &a, Tick durA, Resource &b, Tick durB,
                    Tick at)
    {
        Tick cand = at;
        for (;;) {
            const Tick sa = a.earliestFit(cand, durA);
            const Tick sb = b.earliestFit(sa, durB);
            if (sa == sb) {
                a.reserve(sa, durA);
                b.reserve(sa, durB);
                return sa;
            }
            cand = sb;
        }
    }

    /** acquireTogether with one common duration. */
    static Tick
    acquirePair(Resource &a, Resource &b, Tick at, Tick duration)
    {
        return acquireTogether(a, duration, b, duration, at);
    }

    /** Latest reserved endpoint (0 when idle); reporting/tests only. */
    Tick freeAt() const { return _busy.empty() ? 0 : _busy.back().end; }

    /** Number of live calendar intervals (tests and reporting). */
    std::size_t intervals() const { return _busy.size(); }

    /**
     * Drop all intervals that end at or before `floor`. It runs at
     * every message-engine wake-up, where usually nothing or
     * everything is dead, so both of those return without a search.
     */
    void
    pruneBelow(Tick floor)
    {
        if (_busy.empty() || _busy.front().end > floor)
            return;
        if (_busy.back().end <= floor) {
            _busy.clear();
            return;
        }
        // Disjoint intervals are sorted by end too.
        const auto firstLive =
            std::partition_point(_busy.begin(), _busy.end(),
                                 [floor](const Interval &iv) {
                                     return iv.end <= floor;
                                 });
        _busy.erase(_busy.begin(), firstLive);
    }

    /** Total reserved service ticks (utilization numerator). */
    double busyTicks() const { return _busyTicks; }

    /** Drop all reservations (between independent experiment runs). */
    void
    reset()
    {
        _busy.clear();
        _busyTicks = 0.0;
    }

  private:
    /** One busy interval [start, end). */
    struct Interval
    {
        Tick start;
        Tick end;
    };

    /** The first interval whose start is after `t` (end() if none). */
    std::vector<Interval>::const_iterator
    firstStartingAfter(Tick t) const
    {
        return std::upper_bound(_busy.begin(), _busy.end(), t,
                                [](Tick v, const Interval &iv) {
                                    return v < iv.start;
                                });
    }

    std::vector<Interval> _busy; //!< Disjoint, sorted by start.
    double _busyTicks = 0.0;
};

/**
 * A bank-interleaved resource (the node's DRAM array). The bank index
 * is supplied by the caller; banks queue independently, modelling the
 * paper's "interleaved and pipelined node memory".
 */
class BankedResource
{
  public:
    BankedResource(std::string name, unsigned banks)
        : _name(std::move(name)), _banks(banks) {}

    unsigned banks() const { return static_cast<unsigned>(_banks.size()); }

    /** Reserve bank `bank` as Resource::acquire does. */
    Tick
    acquire(unsigned bank, Tick at, Tick duration)
    {
        return _banks[bank % _banks.size()].acquire(at, duration);
    }

    /** Direct access to one bank's calendar. */
    Resource &bank(unsigned b) { return _banks[b % _banks.size()]; }

    Tick freeAt(unsigned bank) const
    {
        return _banks[bank % _banks.size()].freeAt();
    }

    void
    pruneBelow(Tick floor)
    {
        for (auto &b : _banks)
            b.pruneBelow(floor);
    }

    /** Live intervals over all banks (tests and reporting). */
    std::size_t
    intervals() const
    {
        std::size_t total = 0;
        for (const auto &b : _banks)
            total += b.intervals();
        return total;
    }

    double
    busyTicks() const
    {
        double total = 0.0;
        for (const auto &b : _banks)
            total += b.busyTicks();
        return total;
    }

    void
    reset()
    {
        for (auto &b : _banks)
            b.reset();
    }

  private:
    std::string _name;
    std::vector<Resource> _banks;
};

} // namespace pm::mem

#endif // PM_MEM_RESOURCE_HH
