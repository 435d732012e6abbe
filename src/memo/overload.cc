/**
 * @file
 * Overload sweep point: saturating non-temporal store flood against
 * the CXL device (the paper's Sec. 4.3.2 collapse scenario), measured
 * together with a dependent-load probe so both throughput and tail
 * latency of the overloaded device are visible. bench_overload sweeps
 * this with and without QoS policies.
 */

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

constexpr std::uint64_t regionBytes = 128 * miB;
constexpr std::uint64_t endlessBytes = std::uint64_t(1) << 42;

} // namespace

OverloadResult
runOverloadPoint(std::uint32_t threads, const Options &opts)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least one flood thread");
    auto m = makeMachine(Target::Cxl, opts, opts.prefetch);
    CXLMEMO_ASSERT(threads <= m->numCores(),
                   "thread count %u out of range", threads);
    const MemPolicy policy = MemPolicy::membind(m->cxlNode());
    NumaBuffer flood_buf =
        m->numa().alloc(std::uint64_t(threads) * regionBytes, policy);
    NumaBuffer probe_buf = m->numa().alloc(regionBytes, policy);

    std::vector<std::unique_ptr<HwThread>> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.push_back(m->makeThread(static_cast<std::uint16_t>(t)));
        pool.back()->start(
            std::make_unique<SequentialStream>(
                flood_buf, std::uint64_t(t) * regionBytes, regionBytes,
                endlessBytes, MemOp::Kind::NtStore),
            0, nullptr);
    }

    m->eq().runUntil(ticksFromUs(opts.warmupUs));
    std::uint64_t before = 0;
    for (const auto &t : pool)
        before += t->stats().bytesWritten;

    const Tick window = ticksFromUs(opts.measureUs);
    m->eq().runUntil(ticksFromUs(opts.warmupUs) + window);
    std::uint64_t after = 0;
    for (const auto &t : pool)
        after += t->stats().bytesWritten;

    OverloadResult res;
    res.achievedGBps = gbPerSec(after - before, window);
    // Offered load = what the cores would inject with nothing pushing
    // back: one line per WC-buffer eviction slot.
    res.offeredGBps = static_cast<double>(threads)
                      * gbPerSec(cachelineBytes,
                                 m->coreParams().ntIssueCost);

    // Dependent-load probe under the standing flood, timed in windows
    // so overload episodes surface as tail latency. The probe shares
    // the last core when the flood occupies every core; its loads are
    // not throttle-paced, only queued behind the flood at the device.
    constexpr int windows = 100;
    constexpr int opsPerWindow = 32;
    const std::uint64_t lines = regionBytes / cachelineBytes;
    Rng addr_rng(opts.seed + 0x0ad1);
    SampleSeries window_ns;
    const auto core = static_cast<std::uint16_t>(
        std::min(threads, m->numCores() - 1));
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
    res.probeP99Ns = window_ns.p99();

    if (auto qs = m->qosStats())
        res.qos = *qs;
    else
        res.qos.ledgerOk = m->cxlDev().creditLedgerOk();
    res.watchdogTripped = m->watchdog() && m->watchdog()->tripped();
    return res;
}

} // namespace memo
} // namespace cxlmemo
