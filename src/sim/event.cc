#include "sim/event.hh"

#include <limits>

#include "sim/logging.hh"

namespace pm::sim {

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
    _heap.push(HeapEntry{when, seq, slot});
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
    ++_cancelled;
    ++_cancelledTotal;
    return true;
}

bool
EventQueue::step(Tick limit)
{
    while (!_heap.empty()) {
        const HeapEntry top = _heap.top();
        if (top.when > limit)
            return false;
        Record &rec = _slab[top.slot];
        // Each record has exactly one heap entry, so the seqs always
        // match here; the record is either pending or a tombstone.
        if (rec.state == Record::State::Cancelled) {
            --_cancelled;
            freeRecord(top.slot);
            _heap.pop();
            continue;
        }
        // Move the callback out of the slab before running it: the
        // callback may schedule new events, which can grow the slab and
        // recycle this very slot.
        EventFn fn = std::move(rec.fn);
        freeRecord(top.slot);
        _heap.pop();
        _now = top.when;
        ++_executed;
        fn();
        return true;
    }
    return false;
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
