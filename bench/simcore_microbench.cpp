/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own primitives —
 * the event queue, the cache model, the resource calendars, and the
 * CRC — so regressions in simulator performance (host-side) are
 * visible independently of the architecture experiments.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "machines/machines.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/resource.hh"
#include "ni/crc32.hh"
#include "node/node.hh"
#include "sim/event.hh"
#include "sim/random.hh"

namespace {

using namespace pm;

/** Whatever handle type schedule() returns (kernel-version agnostic). */
using EventHandle = decltype(std::declval<sim::EventQueue &>().schedule(
    Tick{0}, std::function<void()>{}));

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            // pmlint: capture-ok(q.run() drains before this frame unwinds)
            (void)q.schedule(static_cast<Tick>(i * 7 % 1000), [&] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

/**
 * The PmComm driver pattern: a deep queue of pending events where most
 * scheduled events are superseded (cancelled and rescheduled) before
 * they fire. The schedule:cancel ratio is ~2:1 — every pending event is
 * cancelled and re-posted once — against `range(0)` pending events.
 */
void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        std::vector<EventHandle> ids;
        ids.reserve(n);
        for (int i = 0; i < n; ++i)
            ids.push_back(q.schedule(
                static_cast<Tick>(1000 + i),
                // pmlint: capture-ok(q.run() drains before this frame unwinds)
                [&] { ++sink; }));
        // Supersede every pending event, driver-style.
        for (int i = 0; i < n; ++i) {
            benchmark::DoNotOptimize(q.cancel(ids[i]));
            ids[i] = q.schedule(
                static_cast<Tick>(2000 + i),
                // pmlint: capture-ok(q.run() drains before this frame unwinds)
                [&] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    // Each pending event is scheduled twice, cancelled once, run once.
    state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1024)->Arg(10000);

/**
 * Steady state of a long whole-system run: `range(0)` periodic
 * components, each rescheduling itself, with a sprinkle of one-shot
 * events — no queue growth, pure per-event kernel overhead.
 */
void
BM_EventQueuePeriodicSteadyState(benchmark::State &state)
{
    const int components = static_cast<int>(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    std::function<void(int)> tickFn = [&](int i) {
        ++sink;
        // pmlint: capture-ok(tickFn outlives the queue it is scheduled on)
        (void)q.scheduleIn(static_cast<Tick>(50 + i % 17), [&tickFn, i] {
            tickFn(i);
        });
    };
    for (int i = 0; i < components; ++i)
        // pmlint: capture-ok(tickFn outlives the queue it is scheduled on)
        (void)q.schedule(static_cast<Tick>(i % 31), [&tickFn, i] { tickFn(i); });
    for (auto _ : state) {
        q.step();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePeriodicSteadyState)->Arg(64)->Arg(4096);

/**
 * The event mix measured on perfbench's `fabric_uniform`: about 85
 * queued events, each of which schedules its component's next one,
 * 29% at now() and the rest within 1 us; 8% of events also supersede
 * (cancel and re-post) another component's pending event.
 */
void
BM_EventQueueFabricMix(benchmark::State &state)
{
    constexpr int kComponents = 85;
    constexpr std::size_t kDraws = 4096;
    // Draw the stream up front so the generator stays out of the loop.
    sim::SplitMix64 rng(1);
    std::vector<Tick> delays(kDraws);
    std::vector<int> victims(kDraws); // -1: supersede nothing
    for (std::size_t i = 0; i < kDraws; ++i) {
        delays[i] = rng.chance(0.29) ? 0 : 1 + rng.below(kTicksPerUs);
        victims[i] = rng.chance(0.08)
                         ? static_cast<int>(rng.below(kComponents))
                         : -1;
    }
    sim::EventQueue q;
    std::vector<EventHandle> next(kComponents);
    std::size_t draw = 0;
    std::function<void(int)> fire = [&](int c) {
        const std::size_t d = draw++ % kDraws;
        // pmlint: capture-ok(fire outlives the queue it is scheduled on)
        next[c] = q.scheduleIn(delays[d], [&fire, c] { fire(c); });
        const int v = victims[d];
        if (v >= 0 && q.cancel(next[v]))
            next[v] = q.scheduleIn(delays[(d + 1) % kDraws],
                                   // pmlint: capture-ok(fire outlives the queue it is scheduled on)
                                   [&fire, v] { fire(v); });
    };
    for (int c = 0; c < kComponents; ++c)
        // pmlint: capture-ok(fire outlives the queue it is scheduled on)
        next[c] = q.scheduleIn(delays[c], [&fire, c] { fire(c); });
    for (auto _ : state)
        benchmark::DoNotOptimize(q.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueFabricMix);

/** A bus that grants every request 100 ns later. */
struct NullBus : mem::BusTarget
{
    mem::BusResult
    request(const mem::BusReq &, Tick now) override
    {
        return mem::BusResult{now + 100000, false, false};
    }
};

void
BM_CacheHitAccess(benchmark::State &state)
{
    NullBus bus;
    mem::CacheParams p;
    p.sizeBytes = 32 * 1024;
    p.assoc = 8;
    p.lineSize = 64;
    mem::Cache cache(p, &bus);
    // Warm one line.
    cache.access(mem::MemReq{0x1000, false, 0}, 0);
    Tick t = 1000000;
    for (auto _ : state) {
        auto r = cache.access(mem::MemReq{0x1000, false, 0}, t);
        benchmark::DoNotOptimize(r);
        t += 1000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitAccess);

/**
 * The miss path at associativity `range(0)`: stores round-robin over
 * assoc+1 lines of one set, so every access picks the LRU victim of a
 * full set, writes it back dirty and fills its way.
 */
void
BM_CacheConflictMiss(benchmark::State &state)
{
    NullBus bus;
    mem::CacheParams p;
    p.sizeBytes = 32 * 1024;
    p.assoc = static_cast<std::uint32_t>(state.range(0));
    p.lineSize = 64;
    mem::Cache cache(p, &bus);
    const Addr stride = Addr(cache.numSets()) * p.lineSize; // one set
    const Addr lines = p.assoc + 1;
    Addr i = 0;
    Tick t = 0;
    for (auto _ : state) {
        auto r = cache.access(mem::MemReq{i * stride, true, 0}, t);
        benchmark::DoNotOptimize(r);
        i = i + 1 == lines ? 0 : i + 1;
        t += 1000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheConflictMiss)->Arg(1)->Arg(4)->Arg(8);

/**
 * Per-point machine construction: build one processor's L1/L2 pair of
 * the `range(0)`-th Table-1 node, then reset it the way Node::reset()
 * does. Every Fig 9-12 point builds 16 PowerMANNA pairs (8 nodes of 2
 * CPUs).
 */
void
BM_CacheBuildAndReset(benchmark::State &state)
{
    const auto configs = machines::allNodeConfigs();
    const node::NodeParams &cfg =
        configs.at(static_cast<std::size_t>(state.range(0)));
    state.SetLabel(cfg.name);
    NullBus bus;
    for (auto _ : state) {
        mem::Cache l2(cfg.l2, &bus);
        mem::Cache l1(cfg.l1, &l2);
        l2.invalidateAll(); // Recurses into the L1.
        benchmark::DoNotOptimize(&l1);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheBuildAndReset)->DenseRange(0, 3);

/**
 * A peer snoop into one processor's PowerMANNA L2 (2 MB, direct-mapped)
 * under its 32 KB L1, whose every line both levels hold. With
 * `range(0)` 0 each snoop names a line of an occupied L2 set that the
 * L2 does not hold, as most peer probes of the node benches do; with 1
 * it names a held line and demotes it, non-exclusively, in both levels.
 */
void
BM_CacheSnoop(benchmark::State &state)
{
    const node::NodeParams cfg = machines::powerManna();
    NullBus bus;
    mem::Cache l2(cfg.l2, &bus);
    mem::Cache l1(cfg.l1, &l2);
    const Addr line = cfg.l1.lineSize;
    const Addr lines = cfg.l1.sizeBytes / line;
    Tick t = 0;
    for (Addr i = 0; i < lines; ++i)
        t = l1.access(mem::MemReq{i * line, false, 0}, t).done;
    // An L2-sized offset keeps the set and changes the tag.
    const Addr base = state.range(0) != 0 ? 0 : cfg.l2.sizeBytes;
    Addr i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l2.snoop(base + i * line, false));
        i = i + 1 == lines ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSnoop)->Arg(0)->Arg(1);

void
BM_ResourceCalendarAcquire(benchmark::State &state)
{
    mem::Resource r;
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(r.acquire(t, 100));
        t += 150;
        if ((t % (1 << 20)) < 150)
            r.pruneBelow(t - 1000);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceCalendarAcquire);

/**
 * cpu::runJobs on a shared bus: `range(0)` CPUs, the one with the
 * smallest local time prunes every calendar at that floor and then
 * runs a chunk of `range(1)` accesses ahead (address phase, then a DRAM
 * bank); the others backfill behind it. {2, 4096} is the HINT shape:
 * one slice covers 4,096 records. One item is one access.
 */
void
BM_ResourceCalendarChunkedBackfill(benchmark::State &state)
{
    const auto cpus = static_cast<std::size_t>(state.range(0));
    const auto chunk = static_cast<unsigned>(state.range(1));
    mem::Resource addr;
    mem::BankedResource dram("dram", 4);
    sim::SplitMix64 rng(1);
    std::vector<Tick> local(cpus, 0);
    for (auto _ : state) {
        const auto cpu = static_cast<std::size_t>(
            std::min_element(local.begin(), local.end()) - local.begin());
        addr.pruneBelow(local[cpu]);
        dram.pruneBelow(local[cpu]);
        for (unsigned i = 0; i < chunk; ++i) {
            const Tick a = addr.acquire(local[cpu], 20);
            const Tick d = dram.acquire(
                static_cast<unsigned>(rng.below(4)), a + 20, 60);
            local[cpu] = d + 60 + rng.below(200);
        }
    }
    state.SetItemsProcessed(state.iterations() * chunk);
}
BENCHMARK(BM_ResourceCalendarChunkedBackfill)
    ->Args({2, 32})
    ->Args({8, 32})
    ->Args({2, 4096});

/**
 * The message path's PIO stream on one PowerMANNA node: processor 0
 * issues beat after beat through Proc::pioBeat. Every 2^18 beats
 * the node is rebuilt (untimed), as each probe point builds a new
 * System; a 64 KB x 8 unidirectional probe makes 195,440 beats on its
 * sender. With `range(0)` 0 no floor is set
 * and the calendars grow by one interval per beat from empty; with 1
 * the bus's time floor follows the processor after every beat, as
 * PmComm's engine sets it. One item is one beat.
 */
void
BM_NodeBusPioStream(benchmark::State &state)
{
    const bool withFloor = state.range(0) != 0;
    constexpr std::uint64_t kStreamBeats = 1u << 18;
    std::unique_ptr<node::Node> machine;
    cpu::Proc *proc = nullptr;
    std::uint64_t beats = 0;
    Tick end = 0;
    for (auto _ : state) {
        if (beats++ % kStreamBeats == 0) {
            state.PauseTiming();
            machine = nullptr;
            machine = std::make_unique<node::Node>(machines::powerManna());
            machine->reset();
            proc = &machine->proc(0);
            state.ResumeTiming();
        }
        proc->pioBeat();
        end = proc->time();
        if (withFloor)
            machine->bus().setTimeFloor(end);
    }
    benchmark::DoNotOptimize(end);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeBusPioStream)->Arg(0)->Arg(1);

void
BM_Crc32Words(benchmark::State &state)
{
    sim::SplitMix64 rng(1);
    std::vector<std::uint64_t> words(1024);
    for (auto &w : words)
        w = rng.next();
    for (auto _ : state) {
        ni::Crc32 crc;
        for (auto w : words)
            crc.update(w);
        benchmark::DoNotOptimize(crc.value());
    }
    state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_Crc32Words);

} // namespace

BENCHMARK_MAIN();
