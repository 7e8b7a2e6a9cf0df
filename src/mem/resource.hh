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
 * Under cpu::runJobs that shape is the rule on every calendar a node's
 * processors share (the address phase, the memory port, the DRAM
 * banks): the processor furthest behind runs a whole step (a HINT
 * slice is 4,096 records), so it leads and reserves far ahead; the
 * next one then backfills behind it, arrival after rising arrival,
 * through the leader's intervals. A calendar kept as one sorted vector
 * made each of those inserts shift every interval ahead of it, so a
 * step cost the square of its length.
 *
 * So the calendar has a cursor. The intervals before it sit in
 * `_before`, ascending; those after it sit in `_after`, descending, so
 * the nearest one is at its back. Being disjoint, the intervals are
 * sorted by end too. A request scans from the cursor to the first
 * interval that starts after its arrival, walks forward over the
 * intervals that leave no gap for it (the same walk the map calendar
 * made), and moves the cursor to the gap it found, carrying the
 * intervals in between from one vector to the other; the reservation
 * is then pushed at the cursor. A backfilling processor therefore pays
 * for the distance from one of its slots to the next, not for the
 * calendar's length, and no request searches.
 *
 * While nothing lies after the cursor, the calendar is one ascending
 * vector, and a request at or past its last end (a CPU driving PIO
 * beats asks again where its previous beat ended) fits at once and is
 * appended. That test and the prune's are the inline fast paths; the
 * scan and the prune across the cursor are out of line, so the message
 * path does not pay for them.
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
     * an idle gap. Does not reserve; moves the cursor to that slot.
     */
    Tick
    earliestFit(Tick at, Tick duration)
    {
        if (_after.empty() && (_before.empty() || at >= _before.back().end))
            return at;
        return seekFit(at, duration);
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
    Tick
    freeAt() const
    {
        if (!_after.empty())
            return _after.front().end;
        return _before.empty() ? 0 : _before.back().end;
    }

    /** Number of live calendar intervals (tests and reporting). */
    std::size_t intervals() const { return _before.size() + _after.size(); }

    /**
     * Drop all intervals that end at or before `floor`. It runs at
     * every message-engine wake-up, where usually nothing or
     * everything is dead, so both of those return without a search.
     */
    void
    pruneBelow(Tick floor)
    {
        if (!_after.empty()) {
            pruneAcrossCursor(floor);
            return;
        }
        if (_before.empty() || _before.front().end > floor)
            return;
        if (_before.back().end <= floor) {
            _before.clear();
            return;
        }
        eraseDeadBefore(floor);
    }

    /** Total reserved service ticks (utilization numerator). */
    double busyTicks() const { return _busyTicks; }

    /** Drop all reservations (between independent experiment runs). */
    void
    reset()
    {
        _before.clear();
        _after.clear();
        _busyTicks = 0.0;
    }

  private:
    /** One busy interval [start, end). */
    struct Interval
    {
        Tick start;
        Tick end;
    };

    /** Mark [start, start+duration) busy: the slot that earliestFit
     *  just returned, so it goes at the cursor. */
    void
    reserve(Tick start, Tick duration)
    {
        if (duration == 0)
            return;
        _before.push_back({start, start + duration});
        _busyTicks += static_cast<double>(duration);
    }

    /** earliestFit for a request that is not a plain tail append. */
    __attribute__((noinline)) Tick
    seekFit(Tick at, Tick duration)
    {
        // Find the first interval that starts after `at`: behind the
        // cursor, or past it once the cursor has moved up to `at`.
        auto it = _before.end();
        while (it != _before.begin() && std::prev(it)->start > at)
            --it;
        if (it == _before.end()) {
            while (!_after.empty() && _after.back().start <= at) {
                _before.push_back(_after.back());
                _after.pop_back();
            }
            it = _before.end();
        }
        Tick cand = at;
        if (it != _before.begin() && std::prev(it)->end > cand)
            cand = std::prev(it)->end;
        // Walk forward over the intervals that leave no gap, then put
        // the cursor at the gap.
        while (it != _before.end() && it->start < cand + duration) {
            cand = it->end;
            ++it;
        }
        if (it != _before.end()) {
            // The gap lies behind the cursor: carry what follows it.
            _after.insert(_after.end(), _before.rbegin(),
                          std::make_reverse_iterator(it));
            _before.erase(it, _before.end());
            return cand;
        }
        while (!_after.empty() && _after.back().start < cand + duration) {
            cand = _after.back().end;
            _before.push_back(_after.back());
            _after.pop_back();
        }
        return cand;
    }

    /** pruneBelow while intervals lie after the cursor. */
    __attribute__((noinline)) void
    pruneAcrossCursor(Tick floor)
    {
        if (!_before.empty() && _before.back().end > floor) {
            eraseDeadBefore(floor);
            return;
        }
        // Everything before the cursor is dead, and `_after` ends with
        // its earliest interval.
        _before.clear();
        _after.erase(std::partition_point(_after.begin(), _after.end(),
                                          [floor](const Interval &iv) {
                                              return iv.end > floor;
                                          }),
                     _after.end());
    }

    /** Erase the dead front of `_before`, whose last interval lives. */
    void
    eraseDeadBefore(Tick floor)
    {
        _before.erase(_before.begin(),
                      std::partition_point(_before.begin(), _before.end(),
                                           [floor](const Interval &iv) {
                                               return iv.end <= floor;
                                           }));
    }

    std::vector<Interval> _before; //!< Up to the cursor, by start.
    std::vector<Interval> _after; //!< Past the cursor, latest first.
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
