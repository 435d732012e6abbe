#include "memo/memo.hh"

#include <memory>
#include <vector>

#include "cpu/streams.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

/** Per-thread private region for bandwidth streams. */
constexpr std::uint64_t regionBytes = 128 * miB;

/** Effectively-infinite stream length; measurement is window-based. */
constexpr std::uint64_t endlessBytes = std::uint64_t(1) << 42;

std::uint64_t
threadBytes(const HwThread &t)
{
    return t.stats().bytesRead + t.stats().bytesWritten;
}

/**
 * Launch @p threads streams built by @p makeStream, warm up, then
 * measure aggregate issued bytes over the measurement window.
 */
template <typename MakeStream>
double
windowedBandwidth(Machine &m, std::uint32_t threads,
                  const Options &opts, MakeStream makeStream)
{
    CXLMEMO_ASSERT(threads >= 1 && threads <= m.numCores(),
                   "thread count %u out of range", threads);
    std::vector<std::unique_ptr<HwThread>> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.push_back(m.makeThread(static_cast<std::uint16_t>(t)));
        pool.back()->start(makeStream(t), 0, nullptr);
    }

    m.eq().runUntil(ticksFromUs(opts.warmupUs));
    std::uint64_t before = 0;
    for (const auto &t : pool)
        before += threadBytes(*t);

    const Tick window = ticksFromUs(opts.measureUs);
    m.eq().runUntil(ticksFromUs(opts.warmupUs) + window);
    std::uint64_t after = 0;
    for (const auto &t : pool)
        after += threadBytes(*t);

    return gbPerSec(after - before, window);
}

/**
 * Temporal-store streams reach steady state only once the LLC is full
 * of dirty lines (every fill then displaces a dirty victim and emits
 * a writeback). Prime that state directly instead of simulating the
 * multi-millisecond warm-up that would otherwise be required.
 */
void
maybePrimeForStores(Machine &m, MemOp::Kind kind, const MemPolicy &policy)
{
    if (kind != MemOp::Kind::Store)
        return;
    const std::uint64_t llc = m.caches().params().llc.sizeBytes;
    NumaBuffer prime = m.numa().alloc(llc + llc / 4, policy);
    m.caches().primeLlcDirty(prime, 0);
}

void
exportRas(const Machine &m, RasStats *rasOut)
{
    if (!rasOut)
        return;
    if (const RasStats *rs = m.rasStats())
        *rasOut = *rs;
    else
        rasOut->reset();
}

void
exportQos(const Machine &m, QosStats *qosOut)
{
    if (!qosOut)
        return;
    if (auto qs = m.qosStats())
        *qosOut = *qs;
    else
        qosOut->reset();
}

} // namespace

double
runSeqBandwidth(Target target, MemOp::Kind kind, std::uint32_t threads,
                const Options &opts, RasStats *rasOut, QosStats *qosOut)
{
    auto m = makeMachine(target, opts, opts.prefetch);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    NumaBuffer buf =
        m->numa().alloc(std::uint64_t(threads) * regionBytes, policy);
    maybePrimeForStores(*m, kind, policy);

    const double gbps =
        windowedBandwidth(*m, threads, opts, [&](std::uint32_t t) {
            return std::make_unique<SequentialStream>(
                buf, std::uint64_t(t) * regionBytes, regionBytes,
                endlessBytes, kind);
        });
    exportRas(*m, rasOut);
    exportQos(*m, qosOut);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return gbps;
}

double
runRandBandwidth(Target target, MemOp::Kind kind, std::uint32_t threads,
                 std::uint64_t blockBytes, const Options &opts,
                 RasStats *rasOut, QosStats *qosOut)
{
    auto m = makeMachine(target, opts, opts.prefetch);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    NumaBuffer buf =
        m->numa().alloc(std::uint64_t(threads) * regionBytes, policy);
    maybePrimeForStores(*m, kind, policy);

    // MEMO issues an sfence after each NT-store block to enforce
    // block-level write order (Sec. 4.3.2).
    const bool fence = kind == MemOp::Kind::NtStore;
    const double gbps =
        windowedBandwidth(*m, threads, opts, [&](std::uint32_t t) {
            return std::make_unique<RandomBlockStream>(
                buf, std::uint64_t(t) * regionBytes, regionBytes,
                endlessBytes, blockBytes, kind, fence,
                opts.seed + 1000 + t);
        });
    exportRas(*m, rasOut);
    exportQos(*m, qosOut);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return gbps;
}

double
runLoadedLatency(Target target, std::uint32_t threads,
                 const Options &opts, RasStats *rasOut, QosStats *qosOut)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least the probe thread");
    auto m = makeMachine(target, opts, opts.prefetch);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    NumaBuffer probe_buf = m->numa().alloc(regionBytes, policy);
    NumaBuffer bg_buf = m->numa().alloc(
        std::uint64_t(std::max(threads, 2u) - 1) * regionBytes, policy);

    // threads-1 background load streams...
    std::vector<std::unique_ptr<HwThread>> pool;
    for (std::uint32_t t = 0; t + 1 < threads; ++t) {
        pool.push_back(m->makeThread(static_cast<std::uint16_t>(t)));
        pool.back()->start(
            std::make_unique<SequentialStream>(
                bg_buf, std::uint64_t(t) * regionBytes, regionBytes,
                endlessBytes, MemOp::Kind::Load),
            0, nullptr);
    }
    m->eq().runUntil(ticksFromUs(opts.warmupUs));

    // ...plus a dependent-load probe in its own region.
    constexpr std::uint64_t probe_accesses = 3000;
    auto probe = std::make_unique<PointerChaseStream>(
        probe_buf, regionBytes, probe_accesses, /*warmup=*/false,
        opts.seed);
    auto probe_thread =
        m->makeThread(static_cast<std::uint16_t>(threads - 1));
    Tick start = 0;
    Tick end = 0;
    bool done = false;
    probe_thread->start(std::move(probe), m->eq().curTick(),
                        [&](Tick s, Tick e) {
        start = s;
        end = e;
        done = true;
    });
    while (!done) {
        const Tick horizon = m->eq().curTick() + ticksFromUs(50.0);
        if (m->eq().runUntil(horizon) && !done)
            CXLMEMO_PANIC("probe starved: event queue drained");
    }
    exportRas(*m, rasOut);
    exportQos(*m, qosOut);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return nsFromTicks(end - start) / static_cast<double>(probe_accesses);
}

LoadedLatencyDist
runLoadedLatencyDist(Target target, std::uint32_t threads,
                     const Options &opts)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least the probe thread");
    auto m = makeMachine(target, opts, opts.prefetch);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    NumaBuffer probe_buf = m->numa().alloc(regionBytes, policy);
    NumaBuffer bg_buf = m->numa().alloc(
        std::uint64_t(std::max(threads, 2u) - 1) * regionBytes, policy);

    std::vector<std::unique_ptr<HwThread>> pool;
    for (std::uint32_t t = 0; t + 1 < threads; ++t) {
        pool.push_back(m->makeThread(static_cast<std::uint16_t>(t)));
        pool.back()->start(
            std::make_unique<SequentialStream>(
                bg_buf, std::uint64_t(t) * regionBytes, regionBytes,
                endlessBytes, MemOp::Kind::Load),
            0, nullptr);
    }
    m->eq().runUntil(ticksFromUs(opts.warmupUs));

    // Serial dependent loads at random lines, timed per window: a
    // recovery episode (link retry, timeout+backoff, stall) lands in
    // one window and shows up as tail latency instead of averaging
    // away over the whole run.
    constexpr int windows = 200;
    constexpr int opsPerWindow = 64;
    const std::uint64_t lines = regionBytes / cachelineBytes;
    Rng addr_rng(opts.seed + 0x715a); // distinct from workload streams
    SampleSeries window_ns;
    const auto core = static_cast<std::uint16_t>(threads - 1);
    for (int w = 0; w < windows; ++w) {
        std::vector<MemOp> ops;
        ops.reserve(opsPerWindow);
        for (int i = 0; i < opsPerWindow; ++i) {
            const Addr a = probe_buf.translate(addr_rng.below(lines)
                                               * cachelineBytes);
            ops.push_back({MemOp::Kind::DependentLoad, a, 0});
        }
        auto probe_thread = m->makeThread(core);
        Tick start = 0;
        Tick end = 0;
        bool done = false;
        probe_thread->start(std::make_unique<ListStream>(std::move(ops)),
                            m->eq().curTick(), [&](Tick s, Tick e) {
            start = s;
            end = e;
            done = true;
        });
        while (!done) {
            const Tick horizon = m->eq().curTick() + ticksFromUs(50.0);
            if (m->eq().runUntil(horizon) && !done)
                CXLMEMO_PANIC("probe starved: event queue drained");
        }
        window_ns.record(nsFromTicks(end - start) / opsPerWindow);
    }

    LoadedLatencyDist dist;
    dist.avgNs = window_ns.mean();
    dist.p50Ns = window_ns.p50();
    dist.p99Ns = window_ns.p99();
    if (const RasStats *rs = m->rasStats())
        dist.ras = *rs;
    exportQos(*m, &dist.qos);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return dist;
}

} // namespace memo
} // namespace cxlmemo
