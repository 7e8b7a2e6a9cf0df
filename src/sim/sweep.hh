/**
 * @file
 * Deterministic thread-parallel sweep harness.
 *
 * A sweep is a fixed list of independent simulation points — one
 * System per point, typically varying one axis (message size, BER,
 * node count). The harness fans the points out over a thread pool and
 * guarantees that the *results are a pure function of the point list
 * and the base seed*: byte-identical whether run with one job or
 * sixteen, in whatever order the workers happen to pick points up.
 *
 * The contract that makes this sound:
 *
 *  - Each point's callable builds its own System (and FaultModel)
 *    from its Point::seed and returns a value; it must not touch
 *    state shared with other points. sim::Context gives each worker
 *    thread a private default context, so panic forensics and the
 *    inform() gate never cross points (see sim/context.hh).
 *  - Per-point seeds derive from the base seed by SplitMix64 mixing
 *    of the point index — stable across job counts and platforms.
 *  - Results land in a pre-sized vector slot per point (no two
 *    workers ever write the same element), then are returned in
 *    index order.
 *  - A panicking point is trapped (PanicTrap): its panic message and
 *    forensic dump are captured into a Failure while sibling points
 *    run to completion. Report::firstFailure() is the lowest-index
 *    failure — deterministic, unlike "whichever thread died first".
 */

#ifndef PM_SIM_SWEEP_HH
#define PM_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/random.hh"

namespace pm::sim::sweep {

/** One unit of work: its position in the work list and its seed. */
struct Point
{
    std::size_t index; //!< Position in the sweep's fixed work list.
    std::uint64_t seed; //!< pointSeed(options.seed, index).
};

/** Harness configuration. */
struct Options
{
    /** Worker threads; 0 = hardware concurrency (min 1). */
    unsigned jobs = 0;
    /** Base seed every per-point seed derives from. */
    std::uint64_t seed = 0;
    /** inform() gate for the workers (sweeps print their own tables). */
    bool inform = false;
    /**
     * Cooperative cancellation (e.g. a SIGINT handler's flag): when it
     * reads true, workers stop *claiming* new points but let every
     * point already in flight run to completion — a point either ran
     * fully (its System drained to quiescence inside the callable) or
     * never started; Report::completed says which. nullptr = never.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** A point that panicked or threw instead of returning a result. */
struct Failure
{
    std::size_t index; //!< Which point failed.
    std::string message; //!< The panic/exception message.
    std::string dump; //!< Forensic dump ("" when the context had no monitor).
};

/**
 * Stable per-point seed: one extra SplitMix64 scramble of the index
 * stream keyed by the base seed. Depends only on (seed, index) — not
 * on job count, scheduling, or platform.
 */
inline std::uint64_t
pointSeed(std::uint64_t seed, std::size_t index)
{
    SplitMix64 mix(seed ^ (0xa076'1d64'78bd'642full +
                           static_cast<std::uint64_t>(index)));
    return mix.next();
}

/** Everything a sweep produced, in work-list order. */
template <typename R>
struct Report
{
    /**
     * One slot per point, index order. A failed point's slot holds a
     * default-constructed R; consult failures before trusting it.
     */
    std::vector<R> results;
    /** Failed points, sorted by index. Empty means a clean sweep. */
    std::vector<Failure> failures;
    /**
     * One flag per point: 1 when the point's callable ran to
     * completion. 0 means the point failed (see failures) or was
     * never started because Options::cancel fired.
     */
    std::vector<std::uint8_t> completed;

    bool ok() const { return failures.empty(); }

    /** Points whose callable ran to completion. */
    std::size_t
    completedCount() const
    {
        std::size_t n = 0;
        for (const std::uint8_t c : completed)
            n += c;
        return n;
    }

    /** The lowest-index failure. Only valid when !ok(). */
    const Failure &firstFailure() const { return failures.front(); }
};

namespace detail {

/** Type-erased point runner; may throw (the pool catches). */
using PointThunk = void (*)(void *ctx, const Point &pt);

/**
 * Fan `count` points out over a worker pool. Every point runs under a
 * PanicTrap with the worker's private default Context current;
 * panics/exceptions become Failures (sorted by index). Workers pull
 * points from an atomic cursor — arbitrary assignment order is fine
 * because thunk() may only touch per-point state.
 */
std::vector<Failure> runRaw(std::size_t count, PointThunk thunk,
                            void *ctx, const Options &options);

} // namespace detail

/**
 * Run `fn(const Point &)` for each of `count` points and collect the
 * returned values in index order. See the file comment for the
 * determinism contract `fn` must honour.
 */
template <typename Fn>
auto
run(std::size_t count, Fn &&fn, const Options &options = {})
    -> Report<std::decay_t<std::invoke_result_t<Fn &, const Point &>>>
{
    using R = std::decay_t<std::invoke_result_t<Fn &, const Point &>>;
    Report<R> report;
    report.results.resize(count);
    report.completed.assign(count, 0);
    struct Call
    {
        std::remove_reference_t<Fn> *fn;
        std::vector<R> *out;
        std::vector<std::uint8_t> *done;
    } call{&fn, &report.results, &report.completed};
    report.failures = detail::runRaw(
        count,
        [](void *ctx, const Point &pt) {
            Call &c = *static_cast<Call *>(ctx);
            // Distinct slots per index: data-race-free by layout.
            (*c.out)[pt.index] = (*c.fn)(pt);
            (*c.done)[pt.index] = 1;
        },
        &call, options);
    return report;
}

/**
 * Convenience: sweep a fixed item list, calling
 * `fn(const T &item, const Point &)` per item.
 */
template <typename T, typename Fn>
auto
map(const std::vector<T> &items, Fn &&fn, const Options &options = {})
    -> Report<std::decay_t<std::invoke_result_t<Fn &, const T &,
                                                const Point &>>>
{
    return run(
        items.size(),
        [&items, &fn](const Point &pt) {
            return fn(items[pt.index], pt);
        },
        options);
}

} // namespace pm::sim::sweep

#endif // PM_SIM_SWEEP_HH
