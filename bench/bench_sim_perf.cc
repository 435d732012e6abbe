/**
 * @file
 * Simulator-engine performance benchmarks (Google Benchmark): how
 * fast the framework itself executes events, channel transactions and
 * cache lookups. These bound how much simulated time the figure
 * benches can afford and guard against performance regressions in
 * the hot paths.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cpu/streams.hh"
#include "mem/dram.hh"
#include "numa/numa.hh"
#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "system/machine.hh"

using namespace cxlmemo;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            eq.schedule(static_cast<Tick>(i), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

/**
 * Near-horizon scheduling: every event lands within the calendar
 * wheel (delays far below the ~2 us horizon), the pattern of cache,
 * DRAM and flit completions. Exercises the bucket append + lazy
 * window sort fast path.
 */
void
BM_EventQueueNearHorizon(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    struct Chain
    {
        EventQueue &eq;
        Rng &rng;
        std::uint64_t &left;
        int &sink;

        void
        fire()
        {
            ++sink;
            if (left-- > 32)
                eq.scheduleIn(1 + rng.below(256), [this] { fire(); });
        }
    };
    for (auto _ : state) {
        EventQueue eq;
        Rng rng(11);
        int sink = 0;
        std::uint64_t left = batch;
        // 32 self-rescheduling chains, each completion scheduling a
        // successor 1-256 ticks out, like a memory request pipeline.
        Chain chain{eq, rng, left, sink};
        for (int i = 0; i < 32; ++i)
            chain.fire();
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueNearHorizon)->Arg(65536);

/**
 * Far-horizon scheduling: delays beyond the wheel's coverage
 * (measurement timers, think-time arrivals), so every event takes the
 * spill min-heap path. The near/far ratio shows what the calendar
 * tiers buy.
 */
void
BM_EventQueueFarHorizon(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        Rng rng(11);
        int sink = 0;
        for (int i = 0; i < batch; ++i) {
            // ~4-8 us out: past the ~2.1 us wheel horizon.
            eq.schedule(ticksFromUs(4) + rng.below(ticksFromUs(4)),
                        [&sink] { ++sink; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueFarHorizon)->Arg(65536);

/** Dispatch cost of the engine's callback type vs std::function for
 *  a capture that exceeds std::function's small-buffer size. */
void
BM_CallbackDispatchInline(benchmark::State &state)
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    std::uint64_t sink = 0;
    InlineCallback<void()> cb = [&sink, a, b, c, d] {
        sink += a + b + c + d;
    };
    for (auto _ : state) {
        cb();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackDispatchInline);

void
BM_CallbackDispatchStdFunction(benchmark::State &state)
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    std::uint64_t sink = 0;
    std::function<void()> cb = [&sink, a, b, c, d] {
        sink += a + b + c + d;
    };
    for (auto _ : state) {
        cb();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackDispatchStdFunction);

/** Construct + move + destroy cost: the lifecycle every event pays
 *  when a completion callback is handed down the memory hierarchy. */
void
BM_CallbackHandoffInline(benchmark::State &state)
{
    std::uint64_t sink = 0;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (auto _ : state) {
        InlineCallback<void()> cb = [&sink, a, b, c, d] {
            sink += a + b + c + d;
        };
        InlineCallback<void()> moved = std::move(cb);
        moved();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackHandoffInline);

void
BM_CallbackHandoffStdFunction(benchmark::State &state)
{
    std::uint64_t sink = 0;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (auto _ : state) {
        std::function<void()> cb = [&sink, a, b, c, d] {
            sink += a + b + c + d;
        };
        std::function<void()> moved = std::move(cb);
        moved();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackHandoffStdFunction);

/* ---------------------- spill-cell allocator --------------------- */

/** One pooled spill cell per event: the cost a callback that carries
 *  a whole MemRequest pays for its heap cell (vs BM_HeapSpillCell,
 *  the global new/delete pair the pool replaced). */
void
BM_PoolSpillCell(benchmark::State &state)
{
    constexpr std::size_t bytes = 192; // a spilled completion capture
    for (auto _ : state) {
        void *p = poolAlloc(bytes);
        benchmark::DoNotOptimize(p);
        poolFree(p, bytes);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolSpillCell);

void
BM_HeapSpillCell(benchmark::State &state)
{
    constexpr std::size_t bytes = 192;
    for (auto _ : state) {
        void *p = ::operator new(bytes);
        benchmark::DoNotOptimize(p);
        ::operator delete(p);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapSpillCell);

/** Full lifecycle of a callback too big for the inline buffer --
 *  construct (pool alloc), move (pointer steal), invoke, destroy
 *  (pool free). Compare with BM_CallbackHandoffInline to see what a
 *  spill costs end to end. */
void
BM_CallbackHandoffSpilled(benchmark::State &state)
{
    std::uint64_t sink = 0;
    std::array<std::uint64_t, 12> big{};
    big[0] = 1;
    for (auto _ : state) {
        InlineCallback<void()> cb = [&sink, big] { sink += big[0]; };
        InlineCallback<void()> moved = std::move(cb);
        moved();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackHandoffSpilled);

void
BM_RngDraws(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(1000003));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

void
BM_ZipfianDraws(benchmark::State &state)
{
    Rng rng(7);
    ZipfianGenerator z(1'000'000);
    for (auto _ : state)
        benchmark::DoNotOptimize(z.next(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianDraws);

void
BM_DramChannelRandomReads(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        DramChannel ch(eq, DramChannelParams{});
        Rng rng(3);
        std::uint64_t completed = 0;
        std::function<void()> issue = [&] {
            if (completed >= 20000)
                return;
            MemRequest r;
            r.addr = rng.below(1u << 26) & ~Addr(63);
            r.size = cachelineBytes;
            r.cmd = MemCmd::Read;
            r.onComplete = [&](Tick) {
                ++completed;
                issue();
            };
            ch.access(std::move(r));
        };
        for (int i = 0; i < 32; ++i)
            issue();
        eq.run();
        benchmark::DoNotOptimize(completed);
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_DramChannelRandomReads);

/**
 * LLC tag probe at the 32-core testbed's geometry: find() as the hit
 * test, insert() on a miss, over random lines spanning twice the LLC,
 * so in the steady state about half the probes miss and evict.
 */
void
BM_SetAssocCacheLlcProbe(benchmark::State &state)
{
    const CacheParams p = testbed_params::sprHierarchy(32).llc;
    SetAssocCache llc(p);
    Rng rng(5);
    std::vector<std::uint64_t> lines(1 << 20);
    for (std::uint64_t &l : lines)
        l = rng.below(2 * p.sizeBytes / cachelineBytes);
    const auto sweep = [&] {
        for (const std::uint64_t l : lines) {
            if (llc.find(l) == nullptr)
                llc.insert(l, LineState::Exclusive, 0);
        }
    };
    sweep(); // reach the steady state first
    for (auto _ : state)
        sweep();
    benchmark::DoNotOptimize(llc.stats().evictions);
    state.SetItemsProcessed(state.iterations() * lines.size());
}
BENCHMARK(BM_SetAssocCacheLlcProbe);

/**
 * LLC hit path at the same geometry: every set is filled, then find()
 * probes resident lines in a random order, so every probe hits and
 * promotes a way from a uniformly random recency position.
 */
void
BM_SetAssocCacheLlcHit(benchmark::State &state)
{
    const CacheParams p = testbed_params::sprHierarchy(32).llc;
    SetAssocCache llc(p);
    std::vector<std::uint64_t> resident;
    for (std::uint64_t l = 0; l < std::uint64_t(llc.numSets()) * p.assoc;
         ++l) {
        llc.insert(l, LineState::Exclusive, 0);
        resident.push_back(l);
    }
    Rng rng(5);
    std::vector<std::uint64_t> lines(1 << 20);
    for (std::uint64_t &l : lines)
        l = resident[rng.below(resident.size())];
    std::uint64_t hits = 0;
    for (auto _ : state) {
        for (const std::uint64_t l : lines)
            hits += llc.find(l) != nullptr;
    }
    benchmark::DoNotOptimize(hits);
    if (llc.stats().evictions != 0
        || hits != state.iterations() * lines.size())
        state.SkipWithError("a probe missed");
    state.SetItemsProcessed(state.iterations() * lines.size());
}
BENCHMARK(BM_SetAssocCacheLlcHit);

/** Set-up cost of the 32-core testbed's tag arrays (L1, L2, LLC and
 *  TLBs for every core), which every Machine pays before any event. */
void
BM_HierarchyBuild32(benchmark::State &state)
{
    EventQueue eq;
    NumaSpace numa;
    for (auto _ : state) {
        CacheHierarchy h(eq, numa, testbed_params::sprHierarchy(32));
        benchmark::DoNotOptimize(&h);
    }
}
BENCHMARK(BM_HierarchyBuild32);

void
BM_EndToEndSequentialLoads(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(Testbed::SingleSocketCxl);
        NumaBuffer buf = m.numa().alloc(
            64 * miB, MemPolicy::membind(m.localNode()));
        auto t = m.makeThread(0);
        state.ResumeTiming();

        t->start(std::make_unique<SequentialStream>(
                     buf, 0, 64 * miB, 8 * miB, MemOp::Kind::Load),
                 0, nullptr);
        m.eq().run();
        benchmark::DoNotOptimize(t->stats().loads);
    }
    state.SetItemsProcessed(state.iterations() * (8 * miB / 64));
}
BENCHMARK(BM_EndToEndSequentialLoads);

/* --------------------- flight-recorder overhead ------------------ */

void
BM_HistogramRecord(benchmark::State &state)
{
    LatencyHistogram h;
    Rng rng(5);
    for (auto _ : state) {
        h.record(100 + rng.below(1u << 20));
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(h);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void
BM_HistogramMerge(benchmark::State &state)
{
    LatencyHistogram a, b;
    Rng rng(6);
    for (int i = 0; i < 100000; ++i) {
        a.record(rng.below(1u << 24));
        b.record(rng.below(1u << 24));
    }
    for (auto _ : state) {
        LatencyHistogram m = a;
        m.merge(b);
        benchmark::DoNotOptimize(m.count());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramMerge);

/**
 * The acceptance bar for tracing: with --trace-sample 1/64 the
 * end-to-end run must stay within a few percent of the untraced
 * baseline (compare against BM_EndToEndSequentialLoads; arg 0 runs
 * the same machine with tracing off through the same code path).
 */
void
BM_EndToEndTracedLoads(benchmark::State &state)
{
    const auto sample = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        MachineOptions mo;
        mo.obs.traceSampleEvery = sample;
        Machine m(Testbed::SingleSocketCxl, mo);
        NumaBuffer buf = m.numa().alloc(
            64 * miB, MemPolicy::membind(m.localNode()));
        auto t = m.makeThread(0);
        state.ResumeTiming();

        t->start(std::make_unique<SequentialStream>(
                     buf, 0, 64 * miB, 8 * miB, MemOp::Kind::Load),
                 0, nullptr);
        m.eq().run();
        benchmark::DoNotOptimize(t->stats().loads);
    }
    state.SetItemsProcessed(state.iterations() * (8 * miB / 64));
}
BENCHMARK(BM_EndToEndTracedLoads)->Arg(0)->Arg(64)->Arg(1);

} // namespace

BENCHMARK_MAIN();
