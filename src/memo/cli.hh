/**
 * @file
 * Command-line front end for MEMO, matching the paper's description:
 * "Users can provide command-line arguments to specify the workloads
 * to be executed by MEMO."
 *
 * Examples:
 *   memo --mode latency  --target cxl
 *   memo --mode seq      --target ddr5-l8 --op load --threads 1-32
 *   memo --mode rand     --target cxl --op nt-store --block 16K \
 *        --threads 1,2,4,8
 *   memo --mode chase    --target ddr5-r1 --wss 16K-512M
 *   memo --mode copy     --path d2c --method dsa --batch 16
 *   memo --mode loaded   --target cxl --threads 12
 *   memo --mode report   --target cxl --op load --threads 1-32
 *   memo --mode drill    --threads 8
 *   memo --mode drill    --chaos-spec link-down-at-ns=50000,crc-burst=8
 *
 * The parser is a standalone, testable component; `memoCliMain` is
 * the actual entry point used by the `memo` binary.
 */

#ifndef CXLMEMO_MEMO_CLI_HH
#define CXLMEMO_MEMO_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memo/memo.hh"
#include "sim/flagparse.hh"

namespace cxlmemo
{
namespace memo
{

/** What the invocation asks MEMO to do. */
enum class CliMode
{
    Latency, //!< Fig. 2 instruction probes
    Seq,     //!< sequential bandwidth sweep
    Rand,    //!< random-block bandwidth sweep
    Chase,   //!< pointer-chase WSS sweep
    Copy,    //!< data-movement (memcpy/movdir64B/DSA)
    Loaded,  //!< loaded latency
    Report,  //!< bandwidth sweep + per-point attribution breakdown
    Drill,   //!< deterministic failure-lifecycle drill
    Pool,    //!< multi-host pooled-memory cluster scenario
    Diff,    //!< differential regression verdict over two CSV runs
    Help,
};

/** Parsed command line. */
struct CliConfig
{
    CliMode mode = CliMode::Help;
    Target target = Target::Ddr5Local;
    MemOp::Kind op = MemOp::Kind::Load;
    std::vector<std::uint32_t> threads = {1};
    std::vector<std::uint64_t> blockBytes = {4 * kiB};
    std::vector<std::uint64_t> wssBytes;
    CopyPath path = CopyPath::D2C;
    CopyMethod method = CopyMethod::Memcpy;
    std::uint32_t batch = 1;
    bool prefetch = false;
    bool csv = false;
    std::uint64_t seed = 42;
    /** RAS fault injection (`--fault-spec`); disabled by default. */
    FaultSpec faults;
    /** Overload control (`--qos-spec`); disabled by default. */
    QosSpec qos;
    /** Failure-lifecycle schedule (`--chaos-spec`); disabled by
     *  default. Drill mode substitutes its default script when this
     *  is empty. */
    ChaosSpec chaos;
    /** Watchdog snapshot interval in microseconds (`--watchdog` /
     *  `--watchdog-ns`); 0 = no watchdog. */
    double watchdogUs = 0.0;

    /** Pooled-cluster scenario (`--pool-spec`, pool mode only). Pool
     *  mode carries all disturbances inside this spec and rejects
     *  `--fault-spec` / `--qos-spec` / `--chaos-spec`. */
    PoolSpec poolSpec;

    /**
     * Host threads for sweep modes (seq/rand/chase/loaded): each sweep
     * point simulates an independent Machine, so points run
     * concurrently through SweepRunner. 0 means one per hardware
     * thread. Output is identical for every value -- results are
     * printed in sweep order, not completion order.
     */
    std::uint32_t jobs = 1;

    /* -------------------- flight recorder ------------------------ */

    /** Chrome trace-event JSON output file (`--trace-out`); empty
     *  (the default) disables tracing unless `--trace-sample` is
     *  given explicitly (post-mortem ring only). */
    std::string traceOut;

    /** Trace 1-in-N requests (`--trace-sample N` or `1/N`); 0 means
     *  "default" (64 when tracing is otherwise enabled). */
    std::uint64_t traceSampleEvery = 0;

    /** Interval-metrics CSV output file (`--metrics-out`). */
    std::string metricsOut;

    /** Metrics snapshot interval (`--metrics-interval-ns`); 0 means
     *  "default" (1000 ns when `--metrics-out` is given). */
    std::uint64_t metricsIntervalNs = 0;

    /** Enable per-component latency histograms (`--histograms`). */
    bool histograms = false;

    /** Exhaustive latency accounting / bottleneck attribution
     *  (`--attrib`; forced on by `--mode report`). */
    bool attrib = false;

    /** Worst-K tail capture depth (`--tail-trace K`); 0 = off. */
    std::uint32_t tailK = 0;

    /* ---------------------- diff mode ---------------------------- */

    /** The two CSV files `memo diff A.csv B.csv` compares. */
    std::string diffA;
    std::string diffB;

    /** Machine-readable JSON verdict (`--json`, diff mode only). */
    bool diffJson = false;

    /** No-change band in percent (`--diff-threshold`, diff mode). */
    double diffThresholdPct = 5.0;

    /** The resolved observability options this invocation runs with
     *  (all-off unless one of the flags above was given). */
    ObservabilityOptions observability() const;
};

/**
 * The CSV header `--csv` emits for @p mode. Exactly one header row is
 * printed per run. With no optional column group active the base
 * column set matches the pre-observability output byte-for-byte; as
 * soon as *any* of @p ras / @p qos / @p hist / @p attrib is active,
 * the full superset (base + RAS + QoS + histogram + attribution
 * columns) is emitted and every row carries every group (zeros for
 * inactive ones), so the column set is stable across
 * fault/QoS/histogram/attribution configurations and mergeable across
 * runs.
 */
std::string csvHeader(CliMode mode, bool ras, bool qos, bool hist,
                      bool attrib = false, bool tail = false);

/**
 * Parse argv into a CliConfig.
 * @return std::nullopt plus a one-line error naming the flag.
 */
std::optional<CliConfig> parseCli(const std::vector<std::string> &args,
                                  std::string &error);

using specparse::parseListSpec;
using specparse::parseSize;

/** The flag table behind parseCli, the options section of cliUsage()
 *  and the mode checks. */
const specparse::Argv<CliConfig> &cliFlags();

/** Usage text. */
std::string cliUsage();

/** Entry point for the `memo` binary. */
int memoCliMain(int argc, char **argv);

} // namespace memo
} // namespace cxlmemo

#endif // CXLMEMO_MEMO_CLI_HH
