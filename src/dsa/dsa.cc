#include "dsa/dsa.hh"

#include <memory>
#include <utility>

#include "mem/request.hh"
#include "sim/logging.hh"

namespace cxlmemo
{

Dsa::Dsa(EventQueue &eq, NumaSpace &numa, DsaParams params)
    : eq_(eq), numa_(numa), params_(std::move(params))
{
    CXLMEMO_ASSERT(params_.numEngines > 0, "DSA without engines");
    CXLMEMO_ASSERT(params_.wqDepth > 0, "DSA without a work queue");
    CXLMEMO_ASSERT(params_.chunkBytes >= cachelineBytes
                       && params_.chunkBytes % cachelineBytes == 0,
                   "chunk must be whole cachelines");
    engineBusy_.assign(params_.numEngines, false);
}

bool
Dsa::submit(const DsaDescriptor &desc, Done onComplete)
{
    return submitBatch({desc}, std::move(onComplete));
}

bool
Dsa::submitBatch(std::vector<DsaDescriptor> descs, Done onComplete)
{
    CXLMEMO_ASSERT(!descs.empty(), "empty batch descriptor");
    for (const auto &d : descs) {
        CXLMEMO_ASSERT(d.src && d.dst, "descriptor without buffers");
        CXLMEMO_ASSERT(d.bytes > 0, "zero-byte descriptor");
        CXLMEMO_ASSERT(d.srcOffset + d.bytes <= d.src->size()
                           && d.dstOffset + d.bytes <= d.dst->size(),
                       "descriptor beyond buffer");
    }
    if (wqOccupancy_ >= params_.wqDepth)
        return false; // ENQCMD retry status
    ++wqOccupancy_;
    if (station_)
        station_->enter(eq_.curTick());
    wq_.push_back(Job{std::move(descs), std::move(onComplete),
                      eq_.curTick()});
    // Submission cost is paid by the submitting thread (modelled by
    // the caller); dispatch proceeds after WQ arbitration.
    eq_.scheduleIn(params_.dispatchLatency, [this] { tryDispatch(); });
    return true;
}

void
Dsa::tryDispatch()
{
    while (!wq_.empty()) {
        std::uint32_t engine = params_.numEngines;
        for (std::uint32_t e = 0; e < params_.numEngines; ++e) {
            if (!engineBusy_[e]) {
                engine = e;
                break;
            }
        }
        if (engine == params_.numEngines)
            return; // all PEs busy; re-armed on job completion
        Job job = std::move(wq_.front());
        wq_.pop_front();
        engineBusy_[engine] = true;
        runJob(engine, std::move(job));
    }
}

namespace
{

/** Per-descriptor streaming state, shared by the chunk callbacks. */
struct StreamState
{
    std::uint32_t engine = 0;
    std::vector<DsaDescriptor> descs;
    Dsa::Done onComplete;
    std::size_t idx = 0;
    std::uint64_t cursor = 0;   //!< next byte to read
    std::uint64_t written = 0;  //!< bytes fully written
    std::uint32_t inFlight = 0;
    Tick dispatched = 0; //!< engine grab time (latency accounting)
    /** Issue loop. It holds the state weakly: the in-flight chunk
     *  callbacks own it, so a job cut off mid-copy (its requests
     *  dropped with the event queue) frees its state instead of
     *  leaking a state -> pump -> state cycle. */
    InlineCallback<void()> pump;
};

} // namespace

void
Dsa::runJob(std::uint32_t engine, Job job)
{
    auto st = std::make_shared<StreamState>();
    st->engine = engine;
    st->descs = std::move(job.descs);
    st->onComplete = std::move(job.onComplete);
    st->idx = 0;
    st->dispatched = eq_.curTick();
    if (station_)
        station_->account(eq_.curTick() - job.submitted, 0, /*busy=*/0,
                          false, eq_.curTick());

    st->pump = [this, weak = std::weak_ptr<StreamState>(st)] {
        const std::shared_ptr<StreamState> st = weak.lock();
        const DsaDescriptor &d = st->descs[st->idx];
        while (st->inFlight < params_.chunksInFlight
               && st->cursor < d.bytes) {
            const std::uint64_t off = st->cursor;
            const auto len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(params_.chunkBytes,
                                        d.bytes - off));
            st->cursor += len;
            ++st->inFlight;

            Addr src_local = 0;
            MemoryDevice &src_dev = numa_.route(
                d.src->translate(d.srcOffset + off), src_local);
            MemRequest read;
            read.addr = src_local;
            read.size = len;
            read.cmd = MemCmd::Read;
            read.source = static_cast<std::uint16_t>(
                params_.sourceBase + st->engine);
            read.onComplete = [this, st, off, len](Tick) {
                const DsaDescriptor &d2 = st->descs[st->idx];
                Addr dst_local = 0;
                MemoryDevice &dst_dev = numa_.route(
                    d2.dst->translate(d2.dstOffset + off), dst_local);
                MemRequest write;
                write.addr = dst_local;
                write.size = len;
                // DSA writes bypass the caches like NT stores.
                write.cmd = MemCmd::NtWrite;
                write.source = static_cast<std::uint16_t>(
                    params_.sourceBase + st->engine);
                write.onComplete = [this, st, len](Tick t) {
                    --st->inFlight;
                    st->written += len;
                    bytesCopied_ += len;
                    if (st->written < st->descs[st->idx].bytes) {
                        st->pump();
                        return;
                    }
                    // Descriptor finished.
                    if (st->idx + 1 < st->descs.size()) {
                        ++st->idx;
                        st->cursor = 0;
                        st->written = 0;
                        st->pump();
                        return;
                    }
                    // Job finished: completion record + free the PE.
                    const Tick done = t + params_.completionLatency;
                    if (st->onComplete) {
                        eq_.schedule(done,
                                     [cb = std::move(st->onComplete),
                                      done] { cb(done); });
                    }
                    CXLMEMO_ASSERT(wqOccupancy_ > 0, "WQ underflow");
                    --wqOccupancy_;
                    if (station_) {
                        station_->exitNow(eq_.curTick());
                        // An engine is genuinely serial per job: its
                        // whole service time is busy occupancy.
                        station_->account(0,
                                          eq_.curTick() - st->dispatched,
                                          eq_.curTick() - st->dispatched,
                                          false, eq_.curTick());
                    }
                    engineBusy_[st->engine] = false;
                    tryDispatch();
                };
                dst_dev.access(std::move(write));
            };
            src_dev.access(std::move(read));
        }
    };
    st->pump();
}

} // namespace cxlmemo
