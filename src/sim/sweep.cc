#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/context.hh"

namespace pm::sim::sweep {

namespace detail {

namespace {

/** Shared pool state; workers only touch it through atomics/locks. */
struct Pool
{
    std::size_t count;
    PointThunk thunk;
    void *ctx;
    std::uint64_t seed;
    bool inform;
    const std::atomic<bool> *cancel;
    std::atomic<std::size_t> next{0};
    std::mutex failLock;
    std::vector<Failure> failures;
};

/**
 * Run one point's thunk under a PanicTrap on the calling thread.
 * Returns false when a panic or exception was trapped, with `fail`
 * carrying the point index, message and forensic dump.
 */
bool
runTrapped(const Point &pt, PointThunk thunk, void *ctx, Failure &fail)
{
    PanicTrap trap;
    try {
        thunk(ctx, pt);
        return true;
    } catch (const PanicError &e) {
        fail = Failure{pt.index, e.what(), e.dump()};
    } catch (const std::exception &e) {
        fail = Failure{pt.index, e.what(), ""};
    }
    return false;
}

void
worker(Pool &pool)
{
    // A fresh thread starts on its own private default Context — no
    // setup needed for isolation; only the inform gate is inherited
    // from the harness options.
    Context::current().setInformEnabled(pool.inform);
    for (;;) {
        // Cancellation cuts off *claiming*, never a point in flight:
        // whatever already started runs (and drains) to completion.
        if (pool.cancel != nullptr &&
            pool.cancel->load(std::memory_order_relaxed))
            return;
        const std::size_t i =
            pool.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= pool.count)
            return;
        const Point pt{i, pointSeed(pool.seed, i)};
        Failure fail;
        if (!runTrapped(pt, pool.thunk, pool.ctx, fail)) {
            const std::lock_guard<std::mutex> lock(pool.failLock);
            pool.failures.push_back(std::move(fail));
        }
    }
}

} // namespace

std::vector<Failure>
runRaw(std::size_t count, PointThunk thunk, void *ctx,
       const Options &options)
{
    Pool pool;
    pool.count = count;
    pool.thunk = thunk;
    pool.ctx = ctx;
    pool.seed = options.seed;
    pool.inform = options.inform;
    pool.cancel = options.cancel;
    unsigned jobs =
        options.jobs ? options.jobs : std::thread::hardware_concurrency();
    jobs = std::max<unsigned>(jobs, 1);
    if (count < jobs)
        jobs = static_cast<unsigned>(count);

    // Even jobs=1 runs on a pool thread: every point then sees the
    // same environment (a worker's fresh default Context) regardless
    // of the job count, which is half of the determinism guarantee.
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back([&pool] { worker(pool); });
    for (std::thread &t : threads)
        t.join();

    // Completion order is scheduling noise; index order is not.
    std::sort(pool.failures.begin(), pool.failures.end(),
              [](const Failure &a, const Failure &b) {
                  return a.index < b.index;
              });
    return pool.failures;
}

} // namespace detail

} // namespace pm::sim::sweep
