/**
 * @file
 * The discrete-event kernel.
 *
 * Every timed component of the PowerMANNA simulator — processors, link
 * interfaces, crossbars, transceivers — schedules callbacks on a single
 * EventQueue. Events at the same tick are delivered in FIFO order of
 * scheduling (a deterministic tie-break that makes whole-system runs
 * reproducible bit-for-bit).
 *
 * Performance model: scheduling, cancelling and executing are
 * allocation-free in steady state. Event records live in a slab that is
 * recycled through a free list; callbacks are stored in a small-buffer
 * callable (EventFn) so the common component lambdas (captures of
 * `this` plus a few words) never touch the heap. The queue itself is a
 * monotone radix queue based at now(): a due list holds the events at
 * now() in schedule order, and 64 buckets hold the later ones, each by
 * the highest bit in which its tick differs from now(). Scheduling is
 * one append; an event moves down at most 64 buckets before it runs,
 * and nothing ever compares sequence numbers — each bucket keeps
 * same-tick events in schedule order by construction. Entries are
 * 16-byte `{when, slot}` pairs. Cancellation tombstones the slab record
 * in O(1); the record is freed when its entry next moves.
 */

#ifndef PM_SIM_EVENT_HH
#define PM_SIM_EVENT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pm::sim {

/**
 * A move-only callable of signature void() with a small-buffer
 * optimization sized for the simulator's component lambdas.
 *
 * Captures up to kInlineBytes (with at most kInlineAlign — pointer —
 * alignment and a noexcept move constructor) are stored inline;
 * anything larger or more aligned falls back to a single heap
 * allocation. Unlike std::function it is move-only, so callables
 * holding move-only state schedule fine.
 */
class EventFn
{
  public:
    /**
     * Inline capture budget; fits `this` + several words/a Symbol.
     * Sized so a slab Record packs into one 64-byte cache line.
     */
    static constexpr std::size_t kInlineBytes = 40;

    /** Max alignment of inline captures (others go to the heap). */
    static constexpr std::size_t kInlineAlign = alignof(void *);

    EventFn() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_r_v<void, D &>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(_storage)) D(std::forward<F>(f));
            _ops = &inlineOps<D>;
        } else {
            D *heap = new D(std::forward<F>(f));
            std::memcpy(_storage, &heap, sizeof(heap));
            _ops = &heapOps<D>;
        }
    }

    EventFn(EventFn &&other) noexcept { moveFrom(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return _ops != nullptr; }

    /** Invoke the callable; undefined when empty. */
    void operator()() { _ops->invoke(_storage); }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        void (*relocate)(void *dst, void *src); //!< Move + destroy src.
        void (*destroy)(void *storage);
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *s) { (*std::launder(reinterpret_cast<D *>(s)))(); },
        [](void *dst, void *src) {
            D *from = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void *s) { std::launder(reinterpret_cast<D *>(s))->~D(); },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *s) {
            D *heap;
            std::memcpy(&heap, s, sizeof(heap));
            (*heap)();
        },
        [](void *dst, void *src) { std::memcpy(dst, src, sizeof(D *)); },
        [](void *s) {
            D *heap;
            std::memcpy(&heap, s, sizeof(heap));
            delete heap;
        },
    };

    void
    moveFrom(EventFn &other) noexcept
    {
        _ops = other._ops;
        if (_ops) {
            _ops->relocate(_storage, other._storage);
            other._ops = nullptr;
        }
    }

    alignas(kInlineAlign) unsigned char _storage[kInlineBytes];
    const Ops *_ops = nullptr;
};

/**
 * Handle to a scheduled event, returned by EventQueue::schedule().
 *
 * A handle names one specific scheduling: it pairs the slab slot the
 * event record occupies with the event's globally unique monotonic
 * sequence number. Because the sequence number is never reused, a
 * handle can never alias a different (later) event even after its slot
 * is recycled — a stale handle is simply rejected by cancel() and
 * scheduled().
 *
 * Validity: a default-constructed handle is invalid. A handle is *live*
 * from schedule() until the event executes or is cancelled; after that
 * cancel()/scheduled() return false forever.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True unless default-constructed (says nothing about pending). */
    bool valid() const { return _slot != kInvalidSlot; }

    /** Monotonic schedule-order id (FIFO tie-break rank); 0 if invalid. */
    std::uint64_t id() const { return _seq; }

    friend bool
    operator==(const EventHandle &a, const EventHandle &b)
    {
        return a._slot == b._slot && a._seq == b._seq;
    }

    friend bool
    operator!=(const EventHandle &a, const EventHandle &b)
    {
        return !(a == b);
    }

  private:
    friend class EventQueue;

    static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

    EventHandle(std::uint32_t slot, std::uint64_t seq)
        : _slot(slot), _seq(seq)
    {}

    std::uint32_t _slot = kInvalidSlot;
    std::uint64_t _seq = 0;
};

/**
 * A time-ordered queue of callbacks; the heart of the simulator.
 *
 * Components capture `this` in lambdas and schedule them; the queue owns
 * nothing beyond the callbacks. The queue is not thread-safe — the whole
 * simulation is single-threaded and deterministic by construction.
 *
 * Cancellation contract:
 *  - cancel(h) returns true iff `h` names a still-pending event, which
 *    is then guaranteed never to run. It returns false — with no side
 *    effects — for invalid handles, already-cancelled events,
 *    already-executed events, and stale handles whose slot has been
 *    recycled by a later scheduling.
 *  - pending() counts exactly the live (scheduled, not yet executed,
 *    not cancelled) events and can never underflow; empty() is
 *    equivalent to pending() == 0.
 *
 * Time contract: now() is monotonically non-decreasing. run(limit)
 * executes events with when <= limit in (when, schedule-order) order;
 * on return now() equals the `when` of the last executed event (or is
 * unchanged if none ran) — in particular it never exceeds `limit`, and
 * draining cancelled tombstones never advances it.
 */
class EventQueue
{
  public:
    // Out of line: building and tearing down 64 bucket vectors is code
    // that every owner would otherwise inline.
    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * [[nodiscard]]: silently dropping the handle is almost always a
     * bug — the caller loses its only way to cancel or observe the
     * event (the PR 1 overhaul existed to remove that bug class).
     * Genuine fire-and-forget scheduling states so with a (void) cast.
     *
     * @param when Absolute time; must be >= now().
     * @param fn Callback to run.
     * @return Live handle for the scheduling (usable with cancel()).
     */
    [[nodiscard]] EventHandle schedule(Tick when, EventFn fn);

    /** Schedule a callback `delta` ticks in the future. */
    [[nodiscard]] EventHandle
    scheduleIn(Tick delta, EventFn fn)
    {
        return schedule(_now + delta, std::move(fn));
    }

    /**
     * Cancel a previously scheduled event.
     * @return true iff the event was pending and is now guaranteed not
     *         to run (see the cancellation contract above).
     */
    bool cancel(EventHandle h);

    /** True while `h` names a pending (not executed/cancelled) event. */
    [[nodiscard]] bool
    scheduled(EventHandle h) const
    {
        return h._slot < _slab.size() &&
               _slab[h._slot].state == Record::State::Pending &&
               _slab[h._slot].seq == h._seq;
    }

    /** Number of pending (non-cancelled) events. */
    [[nodiscard]] std::size_t pending() const { return _pending; }

    /** True when no runnable events remain. */
    [[nodiscard]] bool empty() const { return pending() == 0; }

    /**
     * Run until the queue drains or `limit` ticks is reached.
     * @param limit Stop before executing any event scheduled after this
     *        time; kTickNever means run to exhaustion.
     * @return Number of events executed.
     */
    std::uint64_t run(Tick limit = kTickNever);

    /**
     * Execute exactly one event if one is pending within `limit`.
     * @return true if an event was executed.
     */
    bool step(Tick limit = kTickNever);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed; }

    /** Total events cancelled over the queue's lifetime. */
    std::uint64_t cancelledTotal() const { return _cancelledTotal; }

    /** Slab slots currently allocated (capacity watermark, for tests). */
    std::size_t slabSize() const { return _slab.size(); }

    /**
     * Count Pending slab records by walking the whole slab — O(slab).
     * An audit-time cross-check against pending(): the two disagreeing
     * means the queue and the slab have lost track of each other. Not
     * for hot paths.
     */
    std::size_t liveRecords() const;

  private:
    /** Slab-resident event record; recycled through a free list. */
    struct Record
    {
        enum class State : std::uint8_t {
            Free, //!< On the free list; seq is the *last* occupant's.
            Pending, //!< Scheduled, will run unless cancelled.
            Cancelled, //!< Tombstone; freed when its entry next moves.
        };

        std::uint64_t seq = 0;
        std::uint32_t nextFree = kNoFree;
        State state = State::Free;
        EventFn fn;
    };
    static_assert(sizeof(Record) <= 64,
                  "slab records should fit one cache line");

    /** Queue entry; the callback and the seq stay in the slab. */
    struct Entry
    {
        Tick when;
        std::uint32_t slot;
    };
    static_assert(sizeof(Entry) == 16, "queue entries should be 16 bytes");

    /** Buckets for ticks after now(), by highest differing bit. */
    static constexpr int kBuckets = 64;

    static constexpr std::uint32_t kNoFree = 0xffffffffu;

    std::uint32_t allocRecord();
    void freeRecord(std::uint32_t slot);

    /**
     * Queue `e` (when > now()) in the bucket its tick falls in. Forced
     * inline: GCC otherwise leaves one of its two hot callers calling it.
     */
    __attribute__((always_inline)) void toBucket(const Entry &e);

    /**
     * Move now() to the earliest pending tick if it is <= limit and
     * refill the due list from that tick's bucket.
     * @return false, with nothing changed but freed tombstones, when no
     *         pending event is due by `limit`.
     */
    bool advance(Tick limit);

    Tick _now = 0;
    std::uint64_t _nextSeq = 1; //!< 0 is reserved for invalid handles.
    std::uint64_t _executed = 0;
    std::uint64_t _cancelledTotal = 0;
    std::size_t _pending = 0; //!< Scheduled, not yet run or cancelled.
    /** Slots of the events at now(), in schedule order, from _dueHead. */
    std::vector<std::uint32_t> _due;
    std::size_t _dueHead = 0;
    /** Bucket b holds ticks whose highest bit differing from now() is b. */
    std::array<std::vector<Entry>, kBuckets> _buckets;
    std::uint64_t _bucketMask = 0; //!< Bit b set iff bucket b is non-empty.
    std::vector<Record> _slab;
    std::uint32_t _freeHead = kNoFree;
};

} // namespace pm::sim

#endif // PM_SIM_EVENT_HH
