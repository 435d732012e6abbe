/**
 * @file
 * Request-level DRAM channel timing model.
 *
 * The model is an FR-FCFS (first-ready, first-come-first-served)
 * scheduler with a starvation cap, which is the textbook abstraction
 * of both a server iMC and an FPGA soft/hard memory controller; the
 * two differ only in parameters. It captures the effects the paper's
 * observations hinge on, without descending to cycle accuracy:
 *
 *  1. data-bus serialization (peak bandwidth per channel),
 *  2. per-bank row-buffer state: open-row hits pipeline at the bus
 *     rate, conflicts pay precharge + activate and occupy the bank --
 *     this is how multiple concurrent sequential streams degrade a
 *     single channel (paper Sec. 4.3.1, Fig. 3b),
 *  3. hit-first scheduling with a bounded reorder depth and a bounded
 *     consecutive-hit run, so locality recovery degrades gracefully as
 *     stream count grows,
 *  4. read/write bus turnaround and write-recovery time, penalizing
 *     mixed-direction traffic such as the RFO + writeback pattern of
 *     temporal stores (paper Sec. 4.2).
 */

#ifndef CXLMEMO_MEM_DRAM_HH
#define CXLMEMO_MEM_DRAM_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/attribution.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/histogram.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** Static timing/geometry description of one DRAM channel. */
struct DramChannelParams
{
    std::string name = "dram";

    /** Raw data-bus bandwidth, GB/s (e.g. DDR5-4800: 38.4). */
    double peakGBps = 38.4;

    /**
     * Fraction of the raw bus a well-behaved stream can sustain
     * (refresh, rank/DIMM turnaround, command-bus overheads).
     * Calibrated per device class; see system/testbed.cc.
     */
    double busEfficiency = 0.85;

    /** Load-to-data latency when the target row is open (CAS). */
    Tick tRowHit = ticksFromNs(15.0);

    /** Load-to-data latency on a row conflict (tRP + tRCD + tCAS). */
    Tick tRowMiss = ticksFromNs(45.0);

    /** Additional bank occupancy when a *write* conflicts (tWR). */
    Tick tWriteRecovery = ticksFromNs(15.0);

    /** Minimum bank occupancy per row switch (tRC: activate-to-
     *  activate on one bank). The effective conflict occupancy is
     *  max(tBankCycle, precharge+activate+transfer [+tWR]). */
    Tick tBankCycle = 0;

    /** Extra bus gap when the transfer direction flips (read<->write). */
    Tick tTurnaround = ticksFromNs(7.5);

    /** Fixed controller/PHY latency added to every access. */
    Tick tFrontend = ticksFromNs(10.0);

    /** Independent banks the channel can have open concurrently. */
    std::uint32_t numBanks = 16;

    /** Row-buffer reach in the channel-local address space. */
    std::uint64_t rowBytes = 8 * kiB;

    /**
     * Bank-interleave stripe: consecutive stripes of this size rotate
     * across banks (the column-low/bank-mid/row-high mapping real
     * controllers use), so one sequential stream engages every bank
     * with open-row hits instead of camping on a single bank.
     */
    std::uint64_t bankStripeBytes = 1 * kiB;

    /** How deep into a bank's queue the scheduler looks for row hits. */
    std::uint32_t scanDepth = 16;

    /** Max consecutive row hits served before the oldest request wins
     *  (FR-FCFS starvation cap). */
    std::uint32_t maxHitRun = 16;

    /** Posted-write (NT store) queue depth: NT writes are *accepted*
     *  (freeing the core's WC buffer) as long as this many are not
     *  yet drained; beyond that, acceptance backpressures. */
    std::uint32_t ntPostedEntries = 32;

    /** Extra derating of the data bus for writes (write-to-read gaps,
     *  tWTR; 1.0 = writes as efficient as reads). */
    double writeEfficiency = 1.0;

    /** Same-direction transfers the bus arbiter batches before
     *  considering a direction switch (iMC read/write mode with
     *  drain watermarks; switching pays tTurnaround). */
    std::uint32_t maxDirectionRun = 16;

    /** Throws std::invalid_argument on out-of-range values. */
    void validate() const;
};

/**
 * One DRAM channel: per-bank queues with hit-first scheduling feeding
 * a shared data bus.
 *
 * Pipelining: a row hit occupies its bank only for one burst slot, so
 * a single-stream workload reaches the bus peak; a row conflict holds
 * the bank for the activate window, so conflicting streams are limited
 * by bank throughput -- the aggregate over all banks is the channel's
 * "thrash floor".
 */
class DramChannel : public MemoryDevice
{
  public:
    /** @param faults optional fault injector (nullptr = healthy). */
    DramChannel(EventQueue &eq, DramChannelParams params,
                FaultInjector *faults = nullptr);

    void access(MemRequest req) override;
    const std::string &name() const override { return params_.name; }

    const DramChannelParams &params() const { return params_; }
    const DeviceStats &stats() const { return stats_; }
    void resetStats() { stats_ = DeviceStats{}; }

    /** Requests accepted but not yet completed. */
    std::uint32_t outstanding() const { return outstanding_; }

    /** Attach a latency-accounting station (nullptr = off, the
     *  default; accounting never alters timing). */
    void setStation(AccountedStation *station) { station_ = station; }

  private:
    std::uint64_t rowOf(Addr addr) const;
    std::uint32_t bankOf(Addr addr) const;
    Tick busTime(std::uint32_t size, bool write) const;

    /** Continue an access past the fault-injection check. */
    void accessAdmit(MemRequest req);
    /** Admit an NT write past the posted gate. */
    void admitNt(MemRequest req);
    /** Enqueue into the owning bank and kick the scheduler. */
    void enqueue(MemRequest req);
    /** Serve the next ready transfer on the data bus, if idle. */
    void kickBus();

    /** If @p bank is idle and has work, pick and start a request. */
    void tryIssue(std::uint32_t bank_idx);

    /** Device phase finished: move the request onto the data bus. */
    void finishBankPhase(std::uint32_t bank_idx, MemRequest req);

    EventQueue &eq_;
    DramChannelParams params_;
    FaultInjector *faults_ = nullptr;

    /**
     * Per-bank state in structure-of-arrays layout. The FR-FCFS scan
     * in tryIssue touches openRow/hitRun for every candidate while the
     * issue check reads only busyUntil; with an array-of-structs each
     * bank dragged its 80-byte deque header into the cache per probe.
     * Parallel arrays keep the 16 banks' scan state in two lines.
     */
    std::vector<std::uint64_t> bankOpenRow_; //!< ~0 = no open row
    std::vector<Tick> bankBusyUntil_;  //!< 0 = idle, else occupied-to
    std::vector<Tick> bankLastActivate_; //!< last row-activate tick
    std::vector<std::uint32_t> bankHitRun_;
    std::vector<std::deque<MemRequest>> bankQueue_;
    std::deque<MemRequest> busReadQueue_;  //!< ready, awaiting the bus
    std::deque<MemRequest> busWriteQueue_;
    bool busBusy_ = false;
    bool lastWasWrite_ = false;
    std::uint32_t directionRun_ = 0;
    std::uint32_t outstanding_ = 0;
    std::uint32_t ntPosted_ = 0;
    std::deque<MemRequest> ntGate_;
    DeviceStats stats_;
    AccountedStation *station_ = nullptr;
};

/**
 * A multi-channel memory node (e.g. the eight local DDR5-4800
 * channels of one SPR socket). Fine-grained address interleaving
 * spreads consecutive lines across channels; addresses are compacted
 * into each channel's local space so row locality is preserved.
 */
class InterleavedMemory : public MemoryDevice
{
  public:
    /**
     * @param interleaveBytes channel-interleave granularity
     *        (SPR interleaves at 256 B across iMC channels)
     * @param faults optional fault injector shared by all channels
     */
    InterleavedMemory(EventQueue &eq, const std::string &name,
                      const DramChannelParams &channelParams,
                      std::uint32_t numChannels,
                      std::uint64_t interleaveBytes = 256,
                      FaultInjector *faults = nullptr);

    void access(MemRequest req) override;
    const std::string &name() const override { return name_; }

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    DramChannel &channel(std::uint32_t i) { return *channels_[i]; }

    /** Traffic summed over all channels. */
    DeviceStats stats() const;
    void resetStats();

    /** Record end-to-end access latency (ticks) into a log-bucket
     *  histogram; off by default (no wrapper on the hot path). */
    void
    enableLatencyHistogram()
    {
        if (!latHist_)
            latHist_ = std::make_unique<LatencyHistogram>();
    }

    /** The access-latency histogram (nullptr unless enabled). */
    const LatencyHistogram *latencyHistogram() const
    {
        return latHist_.get();
    }

    /** Attach a latency-accounting station shared by all channels. */
    void
    setStation(AccountedStation *station)
    {
        for (auto &ch : channels_)
            ch->setStation(station);
    }

  private:
    EventQueue &eq_;
    std::string name_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::uint64_t interleaveBytes_;
    std::unique_ptr<LatencyHistogram> latHist_;
};

} // namespace cxlmemo

#endif // CXLMEMO_MEM_DRAM_HH
