#include "mem/dram.hh"

#include <stdexcept>
#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace cxlmemo
{

void
DramChannelParams::validate() const
{
    if (numBanks == 0)
        throw std::invalid_argument(
            "DramChannelParams: channel with no banks");
    if (!(peakGBps > 0.0))
        throw std::invalid_argument(
            "DramChannelParams: channel with no bandwidth");
    if (!(busEfficiency > 0.0 && busEfficiency <= 1.0))
        throw std::invalid_argument(
            "DramChannelParams: busEfficiency must be in (0,1]");
    if (!(writeEfficiency > 0.0 && writeEfficiency <= 1.0))
        throw std::invalid_argument(
            "DramChannelParams: writeEfficiency must be in (0,1]");
    if (rowBytes < cachelineBytes)
        throw std::invalid_argument("DramChannelParams: row too small");
    if (bankStripeBytes < cachelineBytes)
        throw std::invalid_argument(
            "DramChannelParams: stripe below line size");
    if (rowBytes % bankStripeBytes != 0)
        throw std::invalid_argument(
            "DramChannelParams: row must hold whole stripes");
    if (scanDepth == 0 || maxHitRun == 0 || maxDirectionRun == 0)
        throw std::invalid_argument(
            "DramChannelParams: scheduler depths must be nonzero");
    if (ntPostedEntries == 0)
        throw std::invalid_argument(
            "DramChannelParams: zero-entry posted-write queue");
}

DramChannel::DramChannel(EventQueue &eq, DramChannelParams params,
                         FaultInjector *faults)
    : eq_(eq),
      params_(std::move(params)),
      faults_(faults),
      bankOpenRow_(params_.numBanks, ~std::uint64_t(0)),
      bankBusyUntil_(params_.numBanks, 0),
      bankLastActivate_(params_.numBanks, 0),
      bankHitRun_(params_.numBanks, 0),
      bankQueue_(params_.numBanks)
{
    params_.validate();
}

std::uint64_t
DramChannel::rowOf(Addr addr) const
{
    // column(stripe)-low, bank-mid, row-high mapping: position within
    // the bank advances one stripe per numBanks stripes of address
    // space; rowBytes of in-bank positions form one row.
    const std::uint64_t pos_in_bank =
        addr / (params_.bankStripeBytes * params_.numBanks);
    return pos_in_bank / (params_.rowBytes / params_.bankStripeBytes);
}

std::uint32_t
DramChannel::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>(
        (addr / params_.bankStripeBytes) % params_.numBanks);
}

Tick
DramChannel::busTime(std::uint32_t size, bool write) const
{
    double eff = params_.peakGBps * params_.busEfficiency;
    if (write)
        eff *= params_.writeEfficiency;
    return serializationTicks(size, eff);
}

void
DramChannel::access(MemRequest req)
{
    CXLMEMO_ASSERT(req.size > 0, "zero-size access");
    RequestTracer::mark(req.span, TraceStage::Dram, eq_.curTick());
    if (station_) {
        // Queue accounting runs from here (covering fault stalls and
        // the posted-write gate) until the bank scheduler issues.
        station_->enter(eq_.curTick());
        req.attribMark = eq_.curTick();
    }
    // Transient channel stall (refresh storm, thermal throttle,
    // ECC-scrub collision): the request is held at the controller
    // front end for the episode before being admitted. Drawn at most
    // once per request -- accessAdmit bypasses the check.
    if (faults_ && faults_->dramStall()) {
        faults_->stats().dramStalls++;
        eq_.scheduleIn(faults_->spec().dramStallTicks,
                       [this, r = std::move(req)]() mutable {
            accessAdmit(std::move(r));
        });
        return;
    }
    accessAdmit(std::move(req));
}

void
DramChannel::accessAdmit(MemRequest req)
{
    if (req.cmd == MemCmd::NtWrite) {
        if (ntPosted_ < params_.ntPostedEntries) {
            admitNt(std::move(req));
        } else {
            ntGate_.push_back(std::move(req));
        }
        return;
    }
    enqueue(std::move(req));
}

void
DramChannel::admitNt(MemRequest req)
{
    ++ntPosted_;
    if (req.onAccept) {
        const Tick now = eq_.curTick();
        eq_.schedule(now, [accept = std::move(req.onAccept),
                           now] { accept(now); });
    }
    // Release the posted slot once the write drains to the array.
    req.onComplete = [this, drained = std::move(req.onComplete)](Tick t) {
        CXLMEMO_ASSERT(ntPosted_ > 0, "posted underflow");
        --ntPosted_;
        if (!ntGate_.empty()) {
            MemRequest waiting = std::move(ntGate_.front());
            ntGate_.pop_front();
            admitNt(std::move(waiting));
        }
        if (drained)
            drained(t);
    };
    enqueue(std::move(req));
}

void
DramChannel::enqueue(MemRequest req)
{
    const std::uint32_t bank_idx = bankOf(req.addr);
    ++outstanding_;
    bankQueue_[bank_idx].push_back(std::move(req));
    tryIssue(bank_idx);
}

void
DramChannel::tryIssue(std::uint32_t bank_idx)
{
    std::deque<MemRequest> &queue = bankQueue_[bank_idx];
    if (bankBusyUntil_[bank_idx] != 0 || queue.empty())
        return;

    // FR-FCFS selection: prefer a row hit within the reorder window
    // unless the starvation cap says the oldest request must go first.
    // The cap gates only *reordering*; whether the chosen request is
    // a row hit is decided by the open-row state itself.
    const std::uint64_t open_row = bankOpenRow_[bank_idx];
    std::size_t pick = 0;
    if (bankHitRun_[bank_idx] < params_.maxHitRun
        && rowOf(queue[0].addr) != open_row) {
        const std::size_t depth =
            std::min<std::size_t>(params_.scanDepth, queue.size());
        for (std::size_t i = 1; i < depth; ++i) {
            if (rowOf(queue[i].addr) == open_row) {
                pick = i;
                break;
            }
        }
    }

    MemRequest req = std::move(queue[pick]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));

    const bool hit = rowOf(req.addr) == open_row;
    const Tick now = eq_.curTick();
    const bool write = isWrite(req.cmd);

    // A hit pipelines: the bank is occupied for one burst slot only.
    // A conflict holds the bank for the precharge+activate window (plus
    // write recovery for writes) before it can take the next request.
    Tick dev_latency;
    Tick occupancy;
    if (hit) {
        dev_latency = params_.tRowHit;
        occupancy = busTime(req.size, write);
        bankHitRun_[bank_idx]++;
        stats_.rowHits++;
    } else {
        dev_latency = params_.tRowMiss;
        occupancy = (params_.tRowMiss - params_.tRowHit)
                    + busTime(req.size, write);
        if (write)
            occupancy += params_.tWriteRecovery;
        occupancy = std::max(occupancy, params_.tBankCycle);
        bankOpenRow_[bank_idx] = rowOf(req.addr);
        bankLastActivate_[bank_idx] = now;
        bankHitRun_[bank_idx] = 0;
        stats_.rowMisses++;
    }

    bankBusyUntil_[bank_idx] = now + occupancy;
    eq_.schedule(now + occupancy, [this, bank_idx] {
        bankBusyUntil_[bank_idx] = 0;
        tryIssue(bank_idx);
    });

    const Tick ready = now + params_.tFrontend + dev_latency;
    if (station_) {
        // The bank phase is service, not busy: banks overlap freely
        // and saturation shows up on the shared data bus below.
        station_->account(now - req.attribMark,
                          params_.tFrontend + dev_latency, /*busy=*/0,
                          req.attrib, ready);
        req.attribMark = ready; // bus-queue wait starts at ready
    }
    eq_.schedule(ready, [this, bank_idx, r = std::move(req)]() mutable {
        finishBankPhase(bank_idx, std::move(r));
    });
}

void
DramChannel::finishBankPhase(std::uint32_t bank_idx, MemRequest req)
{
    (void)bank_idx;
    if (isWrite(req.cmd))
        busWriteQueue_.push_back(std::move(req));
    else
        busReadQueue_.push_back(std::move(req));
    kickBus();
}

void
DramChannel::kickBus()
{
    if (busBusy_)
        return;
    if (busReadQueue_.empty() && busWriteQueue_.empty())
        return;

    // Direction arbitration: stay in the current mode while it has
    // work and the batch quota lasts; switching pays tTurnaround.
    bool write = lastWasWrite_;
    auto *same = write ? &busWriteQueue_ : &busReadQueue_;
    auto *other = write ? &busReadQueue_ : &busWriteQueue_;
    if (same->empty()
        || (directionRun_ >= params_.maxDirectionRun && !other->empty())) {
        write = !write;
        std::swap(same, other);
    }

    MemRequest req = std::move(same->front());
    same->pop_front();

    const Tick now = eq_.curTick();
    Tick start = now;
    if (write != lastWasWrite_) {
        start += params_.tTurnaround;
        directionRun_ = 0;
    }
    lastWasWrite_ = write;
    ++directionRun_;

    const Tick done = start + busTime(req.size, write);
    if (station_)
        station_->account(start - req.attribMark, done - start,
                          /*busy=*/done - start, req.attrib, done);
    if (write) {
        stats_.writes++;
        stats_.bytesWritten += req.size;
    } else {
        stats_.reads++;
        stats_.bytesRead += req.size;
    }

    busBusy_ = true;
    eq_.schedule(done, [this, r = std::move(req), done]() mutable {
        CXLMEMO_ASSERT(outstanding_ > 0, "completion underflow");
        --outstanding_;
        busBusy_ = false;
        if (station_)
            station_->exitNow(done);
        if (r.onComplete)
            r.onComplete(done);
        kickBus();
    });
}

InterleavedMemory::InterleavedMemory(EventQueue &eq, const std::string &name,
                                     const DramChannelParams &channelParams,
                                     std::uint32_t numChannels,
                                     std::uint64_t interleaveBytes,
                                     FaultInjector *faults)
    : eq_(eq), name_(name), interleaveBytes_(interleaveBytes)
{
    if (numChannels == 0)
        throw std::invalid_argument(
            "InterleavedMemory: memory node with no channels");
    if (interleaveBytes < cachelineBytes)
        throw std::invalid_argument(
            "InterleavedMemory: interleave below line size splits "
            "transactions");
    channels_.reserve(numChannels);
    for (std::uint32_t i = 0; i < numChannels; ++i) {
        DramChannelParams p = channelParams;
        p.name = name + ".ch" + std::to_string(i);
        channels_.push_back(
            std::make_unique<DramChannel>(eq, std::move(p), faults));
    }
}

void
InterleavedMemory::access(MemRequest req)
{
    if (latHist_) {
        req.onComplete = [this, t0 = eq_.curTick(),
                          cb = std::move(req.onComplete)](Tick t) mutable {
            latHist_->record(t - t0);
            if (cb)
                cb(t);
        };
    }
    const std::uint64_t chunk = req.addr / interleaveBytes_;
    const auto ch = static_cast<std::uint32_t>(chunk % channels_.size());
    // Compact the address into the channel's local space so that a
    // globally sequential stream stays row-sequential per channel.
    const Addr local = (chunk / channels_.size()) * interleaveBytes_
                       + (req.addr % interleaveBytes_);
    req.addr = local;
    channels_[ch]->access(std::move(req));
}

DeviceStats
InterleavedMemory::stats() const
{
    DeviceStats total;
    for (const auto &ch : channels_)
        total.merge(ch->stats());
    return total;
}

void
InterleavedMemory::resetStats()
{
    for (auto &ch : channels_)
        ch->resetStats();
    if (latHist_)
        latHist_->reset();
}

} // namespace cxlmemo
