#include "memo/memo.hh"

#include <memory>
#include <vector>

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

constexpr std::uint64_t copyRegion = 128 * miB;

Target
srcOf(CopyPath p)
{
    return (p == CopyPath::C2D || p == CopyPath::C2C) ? Target::Cxl
                                                      : Target::Ddr5Local;
}

Target
dstOf(CopyPath p)
{
    return (p == CopyPath::D2C || p == CopyPath::C2C) ? Target::Cxl
                                                      : Target::Ddr5Local;
}

/** Endless copy stream: one op pair per line, wrapping the region. */
class CopyStream : public AccessStream
{
  public:
    CopyStream(const NumaBuffer &src, std::uint64_t srcOff,
               const NumaBuffer &dst, std::uint64_t dstOff,
               std::uint64_t regionBytes, bool temporal)
        : src_(src),
          dst_(dst),
          srcOff_(srcOff),
          dstOff_(dstOff),
          regionBytes_(regionBytes),
          temporal_(temporal)
    {}

    bool
    next(MemOp &op) override
    {
        if (temporal_) {
            // memcpy: temporal load then temporal store.
            if (!loaded_) {
                op.kind = MemOp::Kind::Load;
                op.paddr = src_.translate(srcOff_ + cursor_);
                loaded_ = true;
                return true;
            }
            op.kind = MemOp::Kind::Store;
            op.paddr = dst_.translate(dstOff_ + cursor_);
            loaded_ = false;
        } else {
            op.kind = MemOp::Kind::Movdir64;
            op.paddr = src_.translate(srcOff_ + cursor_);
            op.paddr2 = dst_.translate(dstOff_ + cursor_);
        }
        cursor_ += cachelineBytes;
        if (cursor_ >= regionBytes_)
            cursor_ = 0;
        return true;
    }

  private:
    const NumaBuffer &src_;
    const NumaBuffer &dst_;
    std::uint64_t srcOff_;
    std::uint64_t dstOff_;
    std::uint64_t regionBytes_;
    std::uint64_t cursor_ = 0;
    bool temporal_;
    bool loaded_ = false;
};

} // namespace

const char *
copyPathName(CopyPath p)
{
    switch (p) {
      case CopyPath::D2D:
        return "D2D";
      case CopyPath::D2C:
        return "D2C";
      case CopyPath::C2D:
        return "C2D";
      case CopyPath::C2C:
        return "C2C";
    }
    return "?";
}

const char *
copyMethodName(CopyMethod m)
{
    switch (m) {
      case CopyMethod::Memcpy:
        return "memcpy";
      case CopyMethod::Movdir64:
        return "movdir64B";
      case CopyMethod::DsaSync:
        return "DSA-sync";
      case CopyMethod::DsaAsync:
        return "DSA-async";
    }
    return "?";
}

double
runMovdirBandwidth(CopyPath path, std::uint32_t threads,
                   const Options &opts)
{
    auto m = makeMachine(Target::Ddr5Local, opts, opts.prefetch);
    CXLMEMO_ASSERT(threads >= 1 && threads <= m->numCores(),
                   "thread count out of range");
    NumaBuffer src = m->numa().alloc(
        std::uint64_t(threads) * copyRegion,
        MemPolicy::membind(targetNode(*m, srcOf(path))));
    NumaBuffer dst = m->numa().alloc(
        std::uint64_t(threads) * copyRegion,
        MemPolicy::membind(targetNode(*m, dstOf(path))));

    std::vector<std::unique_ptr<HwThread>> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.push_back(m->makeThread(static_cast<std::uint16_t>(t)));
        pool.back()->start(
            std::make_unique<CopyStream>(src, std::uint64_t(t) * copyRegion,
                                         dst, std::uint64_t(t) * copyRegion,
                                         copyRegion, /*temporal=*/false),
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
    const double gbps = gbPerSec(after - before, window);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return gbps;
}

double
runCopyBandwidth(CopyPath path, CopyMethod method, std::uint32_t batch,
                 std::uint64_t blockBytes, const Options &opts)
{
    CXLMEMO_ASSERT(batch >= 1, "batch must be at least 1");
    auto m = makeMachine(Target::Ddr5Local, opts, opts.prefetch);
    NumaBuffer src = m->numa().alloc(
        copyRegion, MemPolicy::membind(targetNode(*m, srcOf(path))));
    NumaBuffer dst = m->numa().alloc(
        copyRegion, MemPolicy::membind(targetNode(*m, dstOf(path))));

    if (method == CopyMethod::Memcpy || method == CopyMethod::Movdir64) {
        auto thread = m->makeThread(0);
        thread->start(std::make_unique<CopyStream>(
                          src, 0, dst, 0, copyRegion,
                          method == CopyMethod::Memcpy),
                      0, nullptr);
        m->eq().runUntil(ticksFromUs(opts.warmupUs));
        const std::uint64_t before = thread->stats().bytesWritten;
        const Tick window = ticksFromUs(opts.measureUs);
        m->eq().runUntil(ticksFromUs(opts.warmupUs) + window);
        const double gbps =
            gbPerSec(thread->stats().bytesWritten - before, window);
        if (opts.onMachineDone)
            opts.onMachineDone(*m);
        return gbps;
    }

    // DSA flows: a driver loop submits descriptors over the region.
    Dsa &dsa = m->dsa();
    const std::uint64_t blocks = copyRegion / blockBytes;
    // Async submission keeps a bounded number of jobs in flight; sync
    // waits for each. The submitting thread pays submitCost per
    // ENQCMD (one per batch descriptor).
    const std::uint32_t target_in_flight =
        method == CopyMethod::DsaSync ? 1 : 24;

    /** Software cost of observing a completion record and preparing
     *  the next submission -- the per-job overhead batching amortizes. */
    constexpr Tick completionHandling = ticksFromNs(150.0);

    struct Driver
    {
        Machine *m;
        Dsa *dsa;
        const NumaBuffer *src;
        const NumaBuffer *dst;
        std::uint64_t blockBytes;
        std::uint64_t blocks;
        std::uint32_t batch;
        std::uint32_t targetInFlight;
        std::uint64_t cursor = 0;
        std::uint32_t inFlight = 0;
        Tick cpuFreeAt = 0;        //!< submitting thread's local time
        bool submitScheduled = false;

        void
        pump()
        {
            if (inFlight >= targetInFlight || submitScheduled)
                return;
            submitScheduled = true;
            const Tick when = std::max(m->eq().curTick(), cpuFreeAt);
            m->eq().schedule(when, [this] { doSubmit(); });
        }

        void
        doSubmit()
        {
            submitScheduled = false;
            std::vector<DsaDescriptor> descs;
            descs.reserve(batch);
            for (std::uint32_t b = 0; b < batch; ++b) {
                const std::uint64_t off = (cursor % blocks) * blockBytes;
                ++cursor;
                descs.push_back(
                    DsaDescriptor{src, off, dst, off, blockBytes});
            }
            const bool ok = dsa->submitBatch(
                std::move(descs), [this](Tick) {
                    --inFlight;
                    // Poll the completion record, set up the next job.
                    cpuFreeAt = std::max(cpuFreeAt, m->eq().curTick())
                                + completionHandling;
                    pump();
                });
            if (ok) {
                ++inFlight;
                // The submitting core serializes ENQCMDs.
                cpuFreeAt = std::max(cpuFreeAt, m->eq().curTick())
                            + dsa->params().submitCost;
                pump();
            }
            // On WQ-full, the next completion re-arms the pump.
        }
    };

    Driver driver{m.get(),   &dsa,  &src, &dst, blockBytes, blocks,
                  batch,     target_in_flight};
    m->eq().schedule(0, [&driver] { driver.pump(); });

    m->eq().runUntil(ticksFromUs(opts.warmupUs));
    const std::uint64_t before = dsa.bytesCopied();
    const Tick window = ticksFromUs(opts.measureUs);
    m->eq().runUntil(ticksFromUs(opts.warmupUs) + window);
    const double gbps = gbPerSec(dsa.bytesCopied() - before, window);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return gbps;
}

} // namespace memo
} // namespace cxlmemo
