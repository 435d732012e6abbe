/**
 * @file
 * Interval metrics: a pull-model registry of named counters and
 * gauges plus a sim-time sampler that snapshots them periodically
 * into a long-format CSV timeline.
 *
 * Components register sources once (a lambda reading their existing
 * stats -- no new accounting on the hot path):
 *
 *  - **counter**: a monotone total (bytes moved, requests retired,
 *    stall ticks). Each snapshot emits the *delta* since the previous
 *    one, and the final flush emits the grand total, so the timeline
 *    is conservative by construction: sum(deltas) == total, exactly,
 *    in u64 arithmetic. Tests and CI assert this.
 *  - **gauge**: an instantaneous level (queue depth, buffer
 *    occupancy, DevLoad, credit-wait depth); sampled as-is.
 *
 * The timeline is a *change log*: zero-delta counter rows and
 * unchanged gauge rows are elided (every gauge still appears at its
 * first sample). Conservation is unaffected -- a zero delta sums to
 * nothing -- and a fleet of mostly-idle per-port fabric counters no
 * longer dominates the sampling cost; readers hold a gauge's last
 * value across silent intervals.
 *
 * CSV schema (long format, one row per metric per snapshot):
 *
 *     time_ns,metric,kind,value
 *
 * with kind in {delta, gauge, total, pctl}. Long format keeps the
 * column set fixed no matter which components exist, so timelines
 * from different configurations concatenate cleanly. "pctl" rows come
 * from registered histograms: each snapshot diffs the cumulative
 * bucket counts against the previous snapshot (an exact u64 delta
 * window) and reports p50/p95/p99/p999 of *that interval's* samples,
 * so a late tail blow-up is visible at the interval it happened, not
 * smeared into the whole-run distribution.
 *
 * The sampler follows the watchdog's scheduling-neutrality rule: its
 * event reschedules itself only while other events are pending, so
 * it never keeps EventQueue::run() from draining; the harness rearms
 * it when starting new work. Disabled (interval 0, the default),
 * nothing is scheduled and behaviour is bit-identical.
 */

#ifndef CXLMEMO_SIM_METRICS_HH
#define CXLMEMO_SIM_METRICS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/types.hh"

namespace cxlmemo
{

class MetricsRegistry
{
  public:
    /** Register a monotone counter; @p read returns the current total. */
    void
    addCounter(std::string name, std::function<std::uint64_t()> read)
    {
        counters_.push_back({std::move(name), std::move(read), 0});
    }

    /** Register an instantaneous gauge. */
    void
    addGauge(std::string name, std::function<double()> read)
    {
        gauges_.push_back({std::move(name), std::move(read)});
    }

    /**
     * Register a cumulative latency histogram for windowed percentile
     * rows. Each snapshot subtracts the previous snapshot's bucket
     * counts (delta window, not cumulative) and emits
     * `<name>.p50/.p95/.p99/.p999` rows (kind "pctl") when the window
     * saw samples. Also registers a `<name>.n` counter so the sample
     * stream keeps the timeline's conservation property.
     * @p read may return null while the source does not exist yet.
     * @p scale converts bucket units to the emitted value (histograms
     * that record ticks pass 1/tickPerNs to report ns).
     */
    void addHistogram(std::string name,
                      std::function<const LatencyHistogram *()> read,
                      double scale = 1.0);

    /** Emit one delta row per counter and one gauge row per gauge. */
    void snapshot(Tick now);

    /**
     * Final accounting at end of run: a last delta snapshot (so no
     * tail activity is lost) followed by one total row per counter.
     * Idempotent per run; reset() starts a new one.
     */
    void flush(Tick now);

    /** Accumulated CSV rows (no header). */
    const std::string &rows() const { return rows_; }

    static const char *csvHeader() { return "time_ns,metric,kind,value"; }

    std::size_t counterCount() const { return counters_.size(); }
    std::size_t gaugeCount() const { return gauges_.size(); }
    std::size_t histogramCount() const { return hists_.size(); }
    std::uint64_t snapshots() const { return snapshots_; }

    /** Clear rows and re-baseline counters (between sweep points). */
    void reset();

  private:
    struct Counter
    {
        std::string name;
        std::function<std::uint64_t()> read;
        std::uint64_t last = 0;
    };

    struct Gauge
    {
        std::string name;
        std::function<double()> read;
        double last = 0.0;
        bool emitted = false;
    };

    struct Hist
    {
        std::string name;
        std::function<const LatencyHistogram *()> read;
        double scale = 1.0;
        /** Previous snapshot's bucket counts; the delta window is
         *  cur - last, exact in u64 (counts are monotone). */
        std::array<std::uint64_t, LatencyHistogram::kBuckets> last{};
        std::uint64_t lastCount = 0;
    };

    void appendRow(Tick now, const std::string &name, const char *kind,
                   std::uint64_t value);
    void appendRow(Tick now, const std::string &name, const char *kind,
                   double value);

    void snapshotHists(Tick now);

    std::vector<Counter> counters_;
    std::vector<Gauge> gauges_;
    std::vector<Hist> hists_;
    std::string rows_;
    std::uint64_t snapshots_ = 0;
    bool flushed_ = false;
};

/**
 * Periodic sim-time driver for a MetricsRegistry. arm() schedules the
 * next snapshot; the event re-arms itself only while the event queue
 * has other work, standing down at quiesce (rearm via
 * Machine::rearmWatchdog(), which the harness already calls when
 * starting each run phase).
 */
class MetricsSampler
{
  public:
    MetricsSampler(EventQueue &eq, MetricsRegistry &registry,
                   Tick interval)
        : eq_(eq), registry_(registry), interval_(interval)
    {
    }

    void
    arm()
    {
        if (armed_ || interval_ == 0)
            return;
        armed_ = true;
        eq_.scheduleIn(interval_, [this] { sample(); });
    }

    bool armed() const { return armed_; }
    Tick interval() const { return interval_; }

  private:
    void
    sample()
    {
        armed_ = false;
        registry_.snapshot(eq_.curTick());
        if (eq_.pending() > 0)
            arm();
    }

    EventQueue &eq_;
    MetricsRegistry &registry_;
    Tick interval_;
    bool armed_ = false;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_METRICS_HH
