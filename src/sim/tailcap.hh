/**
 * @file
 * Worst-K tail capture: bounded top-K outlier retention over *every*
 * completed demand read, with the full per-stage trace bracket.
 *
 * The flight recorder samples 1-in-N requests deterministically, so
 * the handful of requests that *are* the p99 are almost never traced.
 * TailCapture closes that gap: the tracer hands it every completed
 * demand-read span (tail mode makes spans free-listed and O(1) to
 * retire, so this is affordable at every-request volume), and it keeps
 * only the K worst per *regime class* -- Local / Remote / Cxl / Fabric,
 * classified from the stages the request actually touched -- each with
 * its complete ordered stage marks.
 *
 * Determinism contract (same as every observability layer):
 *
 *  - off by default (k == 0 builds nothing, considers nothing);
 *  - the retained set is the top-K of the *set* of completed reads
 *    under a strict total order (latency desc, then start tick asc,
 *    then span id asc, then source asc), so it is independent of
 *    completion/insertion order -- byte-identical at every `--jobs`
 *    count;
 *  - merge() is the exact associative top-K union, so per-shard
 *    captures combine in any grouping;
 *  - a span's per-stage breakdown telescopes over its marks, so the
 *    stage durations sum *exactly* (integer ticks) to the measured
 *    end-to-end latency -- machine-checked and exported as
 *    `tail_stack_exact`.
 */

#ifndef CXLMEMO_SIM_TAILCAP_HH
#define CXLMEMO_SIM_TAILCAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/**
 * Station regime a request resolved to, derived from the stages its
 * span actually touched: any switch-path stage makes it Fabric, else
 * any CXL stage makes it Cxl, else a UPI hop makes it Remote, else it
 * stayed Local (caches + host DRAM).
 */
enum class TailRegime : std::uint8_t
{
    Local,
    Remote,
    Cxl,
    Fabric,
    NumRegimes,
};

constexpr std::size_t numTailRegimes =
    static_cast<std::size_t>(TailRegime::NumRegimes);

const char *tailRegimeName(TailRegime r);

/** One retained outlier: the span's identity plus its full bracket. */
struct TailSpan
{
    std::uint64_t id = 0;
    std::uint16_t source = 0;
    MemCmd cmd = MemCmd::Read;
    Addr addr = 0;
    Tick start = 0;
    Tick end = 0;
    TailRegime regime = TailRegime::Local;
    std::vector<StageMark> marks;

    Tick latency() const { return end - start; }
};

/** One telescoped stage contribution. Signed: per-thread local clocks
 *  can mark fractionally out of order, and keeping the raw difference
 *  is what makes the stack sum *exactly* to the end-to-end latency. */
struct TailStage
{
    TraceStage stage;
    std::int64_t ticks;
};

/** Strict worse-first total order (see file header). */
bool tailWorse(const TailSpan &a, const TailSpan &b);

/** Roll-up of one capture for CSV tiers and reports. */
struct TailSummary
{
    std::uint32_t k = 0;          //!< configured per-class depth
    std::uint64_t held = 0;       //!< outliers currently retained
    std::uint64_t considered = 0; //!< demand reads examined
    double worstNs = 0.0;         //!< latency of the worst read
    double kthNs = 0.0;           //!< latency of the K-th worst read
    std::string regime = "none";  //!< regime of the worst read
    std::string stage = "none";   //!< dominant stage of the worst read
    double stageNs = 0.0;         //!< that stage's contribution
    bool stackExact = true;       //!< every held stack sums exactly
};

class TailCapture
{
  public:
    /** @param k worst spans kept per regime class (0 = disabled). */
    explicit TailCapture(std::uint32_t k = 0) : k_(k) {}

    std::uint32_t k() const { return k_; }
    bool armed() const { return k_ > 0; }
    std::uint64_t considered() const { return considered_; }
    std::uint64_t held() const;

    /** Examine one completed span (the tracer calls this for every
     *  demand read). O(log K) when it promotes, O(1) when it does
     *  not (the common case: one compare against the class floor). */
    void consider(const TraceSpan &span);

    /** Exact associative top-K union of another capture (sweep-point
     *  roll-ups, parallel shards). Adopts @p o's depth when this
     *  capture was default-constructed with k == 0. */
    void merge(const TailCapture &o);

    void reset();

    /** Retained outliers of one regime class, worse-first. */
    const std::vector<TailSpan> &
    regimeSpans(TailRegime r) const
    {
        return classes_[static_cast<std::size_t>(r)];
    }

    /** Every retained outlier across classes, worse-first. */
    std::vector<const TailSpan *> worstFirst() const;

    TailSummary summary() const;

    /** Human worst-K table (watchdog post-mortem section). */
    std::string table() const;

    /**
     * Append the retained outliers as Chrome trace events on a
     * dedicated "tail" track (tid = kTailTid): one parent slice per
     * outlier named tail:<regime>, one child slice per stage.
     * Same comma/first protocol as RequestTracer::appendTraceEvents.
     */
    void appendTraceEvents(std::string &out, int pid, bool &first) const;

    /** Thread row the tail track uses in exported traces. */
    static constexpr std::uint16_t kTailTid = 999;

    /** Regime a completed span resolves to (see TailRegime). */
    static TailRegime classify(const TraceSpan &span);

    /**
     * Telescoped per-stage durations: gap to the next mark (span end
     * for the last), plus a leading Issue entry if the first mark sits
     * after span start and an Issue-only entry for mark-less spans.
     * The entries sum exactly (integer ticks) to end - start.
     */
    static std::vector<TailStage> stageBreakdown(const TailSpan &s);

    /** Self-check: the breakdown sums to the measured latency. */
    static bool stackExact(const TailSpan &s);

  private:
    std::uint32_t k_;
    std::uint64_t considered_ = 0;
    /** Worse-first sorted, bounded at k_, one per regime class. */
    std::vector<TailSpan> classes_[numTailRegimes];
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_TAILCAP_HH
