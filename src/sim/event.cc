#include "sim/event.hh"

#include <bit>
#include <limits>

#include "sim/logging.hh"

namespace pm::sim {

EventQueue::EventQueue() = default;
EventQueue::~EventQueue() = default;

std::uint32_t
EventQueue::allocRecord()
{
    if (_freeHead != kNoFree) {
        const std::uint32_t slot = _freeHead;
        _freeHead = _slab[slot].nextFree;
        return slot;
    }
    if (_slab.size() >= std::numeric_limits<std::uint32_t>::max())
        pm_panic("event queue: slab exhausted (%zu live events)",
                 _slab.size());
    _slab.emplace_back();
    return static_cast<std::uint32_t>(_slab.size() - 1);
}

void
EventQueue::freeRecord(std::uint32_t slot)
{
    Record &rec = _slab[slot];
    rec.state = Record::State::Free;
    rec.fn.reset();
    rec.nextFree = _freeHead;
    _freeHead = slot;
}

inline void
EventQueue::toBucket(const Entry &e)
{
    const int b = static_cast<int>(std::bit_width(e.when ^ _now)) - 1;
    _buckets[b].push_back(e);
    _bucketMask |= std::uint64_t{1} << b;
}

EventHandle
EventQueue::schedule(Tick when, EventFn fn)
{
    if (when < _now)
        pm_panic("scheduling event in the past (when=%llu now=%llu)",
                 (unsigned long long)when, (unsigned long long)_now);
    const std::uint64_t seq = _nextSeq++;
    const std::uint32_t slot = allocRecord();
    Record &rec = _slab[slot];
    rec.seq = seq;
    rec.state = Record::State::Pending;
    rec.fn = std::move(fn);
    if (when == _now)
        _due.push_back(slot);
    else
        toBucket(Entry{when, slot});
    ++_pending;
    return EventHandle{slot, seq};
}

bool
EventQueue::cancel(EventHandle h)
{
    if (h._slot >= _slab.size())
        return false;
    Record &rec = _slab[h._slot];
    // The seq check rejects handles to executed events whose slot has
    // been recycled; the state check rejects executed/cancelled events
    // whose slot has not. Either way: O(1), no side effects.
    if (rec.state != Record::State::Pending || rec.seq != h._seq)
        return false;
    rec.state = Record::State::Cancelled;
    rec.fn.reset(); // release captured resources eagerly
    --_pending;
    ++_cancelledTotal;
    return true;
}

bool
EventQueue::advance(Tick limit)
{
    // Every tick in the lowest non-empty bucket is below every tick in
    // the buckets above it, so the earliest pending event is there.
    // Its tick becomes now(); the bucket's entries then differ from
    // now() only in lower bits and move to the due list or to lower
    // buckets, which are empty, in their stored order. A bucket is
    // only ever filled by such a move while it is empty and by
    // appends after it, so same-tick entries stay in schedule order.
    while (_bucketMask != 0) {
        const int b = std::countr_zero(_bucketMask);
        std::vector<Entry> &bucket = _buckets[b];
        // Tombstones never set the minimum: now() only moves to a tick
        // that then executes.
        bool found = false;
        Tick next = kTickNever;
        for (const Entry &e : bucket) {
            if (_slab[e.slot].state == Record::State::Pending &&
                e.when <= next) {
                next = e.when;
                found = true;
            }
        }
        if (found && next > limit)
            return false;
        if (found)
            _now = next;
        for (const Entry &e : bucket) {
            if (_slab[e.slot].state == Record::State::Cancelled)
                freeRecord(e.slot);
            else if (e.when == _now)
                _due.push_back(e.slot);
            else
                toBucket(e);
        }
        bucket.clear();
        _bucketMask &= ~(std::uint64_t{1} << b);
        if (found)
            return true;
    }
    return false;
}

bool
EventQueue::step(Tick limit)
{
    for (;;) {
        if (_dueHead == _due.size()) {
            _due.clear();
            _dueHead = 0;
            if (!advance(limit))
                return false;
            continue;
        }
        if (_now > limit)
            return false;
        const std::uint32_t slot = _due[_dueHead++];
        Record &rec = _slab[slot];
        if (rec.state == Record::State::Cancelled) {
            freeRecord(slot);
            continue;
        }
        // Move the callback out of the slab before running it: the
        // callback may schedule new events, which can grow the slab and
        // recycle this very slot.
        EventFn fn = std::move(rec.fn);
        freeRecord(slot);
        --_pending;
        ++_executed;
        fn();
        return true;
    }
}

std::size_t
EventQueue::liveRecords() const
{
    std::size_t live = 0;
    for (const Record &rec : _slab)
        if (rec.state == Record::State::Pending)
            ++live;
    return live;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (step(limit))
        ++n;
    return n;
}

} // namespace pm::sim
