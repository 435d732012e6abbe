#include "memo/cli.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "memo/diff.hh"
#include "memo/stationtier.hh"
#include "sim/histogram.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"
#include "sim/tailcap.hh"
#include "sim/trace.hh"

namespace cxlmemo
{
namespace memo
{

using logging_detail::format;

namespace
{

using specparse::Arg;
using specparse::Flag;
using specparse::Name;

constexpr std::uint32_t
modeBit(CliMode m)
{
    return 1u << static_cast<int>(m);
}

// The mode rules. Diff mode compares finished runs, so every flag that
// changes a simulation is a mistake worth naming; pool mode carries
// every disturbance inside --pool-spec, so a machine-level spec would
// silently apply to nothing.
constexpr specparse::Modes simulating{
    ~modeBit(CliMode::Diff),
    "diff mode compares finished runs and takes no simulation flags"};
constexpr specparse::Modes machineSpec{
    ~modeBit(CliMode::Diff) & ~modeBit(CliMode::Pool),
    "pool mode takes disturbances via --pool-spec only, diff mode no "
    "simulation flags"};
constexpr specparse::Modes poolOnly{modeBit(CliMode::Pool)};
constexpr specparse::Modes diffOnly{modeBit(CliMode::Diff)};

template <auto E>
constexpr Name
name(const char *n)
{
    return {n, static_cast<int>(E)};
}

constexpr Name modeNames[] = {
    name<CliMode::Latency>("latency"), name<CliMode::Seq>("seq"),
    name<CliMode::Rand>("rand"),       name<CliMode::Chase>("chase"),
    name<CliMode::Copy>("copy"),       name<CliMode::Loaded>("loaded"),
    name<CliMode::Report>("report"),   name<CliMode::Drill>("drill"),
    name<CliMode::Pool>("pool"),       name<CliMode::Diff>("diff"),
    name<CliMode::Help>("help"),
};
constexpr Name targetNames[] = {
    name<Target::Ddr5Local>("ddr5-l8"), name<Target::Ddr5Local>("local"),
    name<Target::Ddr5Local>("dram"),    name<Target::Ddr5Remote>("ddr5-r1"),
    name<Target::Ddr5Remote>("remote"), name<Target::Cxl>("cxl"),
};
constexpr Name opNames[] = {
    name<MemOp::Kind::Load>("load"),      name<MemOp::Kind::Load>("ld"),
    name<MemOp::Kind::Store>("store"),    name<MemOp::Kind::Store>("st"),
    name<MemOp::Kind::NtStore>("nt-store"), name<MemOp::Kind::NtStore>("nt"),
};
constexpr Name pathNames[] = {
    name<CopyPath::D2D>("d2d"), name<CopyPath::D2C>("d2c"),
    name<CopyPath::C2D>("c2d"), name<CopyPath::C2C>("c2c"),
};
constexpr Name methodNames[] = {
    name<CopyMethod::Memcpy>("memcpy"),
    name<CopyMethod::Movdir64>("movdir64b"),
    name<CopyMethod::Movdir64>("movdir"),
    name<CopyMethod::DsaSync>("dsa-sync"),
    name<CopyMethod::DsaAsync>("dsa"),
    name<CopyMethod::DsaAsync>("dsa-async"),
};

/** An empty or whitespace-only spec value means the shell ate the
 *  real one (unquoted substitution, stray trailing flag); every spec
 *  parser would accept it as "all defaults", silently running without
 *  the faults/QoS/chaos the user asked for. Reject it instead. */
bool
blankSpec(const std::string &s)
{
    return std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isspace(c);
    });
}

template <class Spec, Spec CliConfig::*member>
bool
takeSpec(CliConfig &cfg, const std::string &text, std::string &error)
{
    if (blankSpec(text)) {
        error = "empty " + std::string(Spec::grammar().name);
        return false;
    }
    const auto spec = Spec::parse(text, error);
    if (spec)
        cfg.*member = *spec;
    return spec.has_value();
}

template <class Spec, Spec CliConfig::*member>
bool
specEnabled(const CliConfig &cfg)
{
    return (cfg.*member).enabled();
}

template <class Spec>
std::string
specKeys()
{
    return specparse::usage(Spec::grammar(), std::string(4, ' '));
}

/** A whole number >= 1 after an optional @p prefix. */
std::optional<std::uint64_t>
positiveSize(std::string text, const char *prefix = "")
{
    if (text.rfind(prefix, 0) == 0)
        text.erase(0, std::string(prefix).size());
    const auto n = parseSize(text);
    return n && *n > 0 ? n : std::nullopt;
}

bool
takeTraceSample(CliConfig &cfg, const std::string &v, std::string &error)
{
    // "N" and "1/N" both mean: trace every Nth request.
    const auto n = positiveSize(v, "1/");
    if (!n)
        error = "bad --trace-sample: " + v + " (expected N or 1/N, N >= 1)";
    cfg.traceSampleEvery = n.value_or(0);
    return n.has_value();
}

bool
takeWatchdogNs(CliConfig &cfg, const std::string &v, std::string &error)
{
    const auto n = positiveSize(v);
    if (!n)
        error = "bad --watchdog-ns: " + v + " (expected ns >= 1)";
    cfg.watchdogUs = static_cast<double>(n.value_or(0)) / 1000.0;
    return n.has_value();
}

/** `memo diff A.csv B.csv`: the verb up front, then the two files. */
bool
takeDiffOperand(CliConfig &cfg, std::size_t at, const std::string &a,
                std::string &error)
{
    if (a == "diff" && at == 0) {
        cfg.mode = CliMode::Diff;
        return true;
    }
    if (cfg.mode != CliMode::Diff || a.empty() || a[0] == '-')
        return false;
    std::string &file = cfg.diffA.empty() ? cfg.diffA : cfg.diffB;
    if (!file.empty()) {
        error = "diff takes exactly two files: " + a;
        return false;
    }
    file = a;
    return true;
}

} // namespace

const specparse::Argv<CliConfig> &
cliFlags()
{
    using C = CliConfig;
    static const Flag<C> flags[] = {
        {"--help", "-h", Arg::Stop, {}, {}, "", "print this text",
         {}, {}, 1,
         [](C &c, const std::string &, std::string &) {
             c.mode = CliMode::Help;
             return true;
         }},
        {"--mode", nullptr, Arg::Enum, specparse::enumRef<&C::mode>(), {},
         "MODE", "what to run (modes above)", {}, modeNames},
        {"--target", nullptr, Arg::Enum, specparse::enumRef<&C::target>(),
         {}, "", "memory under test", {}, targetNames},
        {"--op", nullptr, Arg::Enum, specparse::enumRef<&C::op>(), {}, "",
         "access kind", {}, opNames},
        {"--threads", nullptr, Arg::SizeList, &C::threads, {1, 64},
         "LIST", "thread counts to sweep"},
        {"--block", nullptr, Arg::SizeList, &C::blockBytes, {64, 64 * miB},
         "LIST", "random-block sizes (rand mode)", {}, {}, cachelineBytes},
        {"--wss", nullptr, Arg::SizeList, &C::wssBytes, {128, 8 * giB},
         "LIST", "pointer-chase working sets (required in chase mode)",
         {}, {}, cachelineBytes},
        {"--path", nullptr, Arg::Enum, specparse::enumRef<&C::path>(), {},
         "", "copy direction (copy mode)", {}, pathNames},
        {"--method", nullptr, Arg::Enum, specparse::enumRef<&C::method>(),
         {}, "", "copy engine (copy mode)", {}, methodNames},
        {"--batch", nullptr, Arg::Size, &C::batch, {1, 1024}, "N",
         "DSA batch size (copy mode)"},
        {"--prefetch", nullptr, Arg::Switch, &C::prefetch, {}, "",
         "enable hardware prefetchers"},
        {"--csv", nullptr, Arg::Switch, &C::csv, {}, "",
         "machine-readable output"},
        {"--seed", nullptr, Arg::Size, &C::seed, {}, "N",
         "workload RNG seed"},
        {"--jobs", "-j", Arg::Size, &C::jobs, {0, 256}, "N",
         "host threads for sweep points (0 = all cores; output identical "
         "for any N)"},
        {"--fault-spec", nullptr, Arg::Call, {}, {}, "key=value[,...]",
         "RAS fault injection, e.g. crc=1e-4,poison=1e-6",
         machineSpec, {}, 1, &takeSpec<FaultSpec, &C::faults>,
         &specEnabled<FaultSpec, &C::faults>, &specKeys<FaultSpec>},
        {"--qos-spec", nullptr, Arg::Call, {}, {}, "key=value[,...]",
         "CXL overload control, e.g. credits=24,policy=aimd",
         machineSpec, {}, 1, &takeSpec<QosSpec, &C::qos>,
         &specEnabled<QosSpec, &C::qos>, &specKeys<QosSpec>},
        {"--chaos-spec", nullptr, Arg::Call, {}, {}, "key=value[,...]",
         "failure-lifecycle schedule, e.g. "
         "remove-at-ns=100000,readd-at-ns=130000",
         machineSpec, {}, 1, &takeSpec<ChaosSpec, &C::chaos>,
         &specEnabled<ChaosSpec, &C::chaos>, &specKeys<ChaosSpec>},
        {"--pool-spec", nullptr, Arg::Call, {}, {}, "key=value[,...]",
         "pooled-cluster scenario, e.g. hosts=4,crash-host=1",
         poolOnly, {}, 1, &takeSpec<PoolSpec, &C::poolSpec>, nullptr,
         &specKeys<PoolSpec>},
        {"--watchdog", nullptr, Arg::Switch, {}, {}, "",
         "arm the forward-progress watchdog (100 us snapshots unless "
         "--watchdog-ns)",
         simulating, {}, 1,
         [](C &c, const std::string &, std::string &) {
             if (c.watchdogUs == 0.0)
                 c.watchdogUs = 100.0;
             return true;
         }},
        {"--watchdog-ns", nullptr, Arg::Call, {}, {}, "N",
         "watchdog snapshot interval in ns", simulating, {}, 1,
         &takeWatchdogNs},
        {"--trace-out", nullptr, Arg::Text, &C::traceOut, {}, "FILE",
         "write sampled request-lifecycle spans as Chrome trace-event "
         "JSON (Perfetto-loadable)",
         simulating, {}, 1, nullptr,
         [](const C &c) { return !c.traceOut.empty(); }},
        {"--trace-sample", nullptr, Arg::Call, {}, {}, "N|1/N",
         "trace every Nth request (default 1/64 when tracing is enabled)",
         simulating, {}, 1, &takeTraceSample},
        {"--metrics-out", nullptr, Arg::Text, &C::metricsOut, {}, "FILE",
         "write the interval-metrics timeline (long-format CSV: "
         "point,time_ns,metric,kind,value)",
         simulating, {}, 1, nullptr,
         [](const C &c) { return !c.metricsOut.empty(); }},
        {"--metrics-interval-ns", nullptr, Arg::Size, &C::metricsIntervalNs,
         {1, specparse::inf}, "N",
         "metrics snapshot interval (default 1000 when --metrics-out is "
         "given)",
         simulating},
        {"--histograms", nullptr, Arg::Switch, &C::histograms, {}, "",
         "per-component latency histograms (extra CSV columns / report "
         "lines; in pool mode, per-host lat_* columns over the "
         "read-latency histogram)",
         simulating},
        {"--attrib", nullptr, Arg::Switch, &C::attrib, {}, "",
         "exhaustive latency accounting: per-station "
         "queue/service/utilization columns, the demand-read latency "
         "stack and an automatic bottleneck verdict (implied by --mode "
         "report)",
         simulating},
        {"--tail-trace", nullptr, Arg::Size, &C::tailK, {1, 1024}, "K",
         "worst-K outlier capture: every completed demand read competes "
         "for the K worst per regime class (local/remote/cxl/fabric), "
         "kept with the full per-stage bracket -- tail_* CSV columns, a "
         "dedicated tail track in --trace-out, and the watchdog "
         "post-mortem",
         simulating},
        {"--json", nullptr, Arg::Switch, &C::diffJson, {}, "",
         "machine-readable JSON verdict", diffOnly},
        {"--diff-threshold", nullptr, Arg::Real, &C::diffThresholdPct,
         {0, 100}, "P", "no-change band in percent", diffOnly},
    };
    static const specparse::Argv<C> argv{flags, "--mode", &takeDiffOperand};
    return argv;
}

std::string
cliUsage()
{
    return
        "MEMO: microbenchmark for CXL/NUMA memory characterization\n"
        "usage: memo --mode <mode> [options]\n"
        "       memo diff A.csv B.csv [--json] [--diff-threshold P]\n"
        "\n"
        "modes:\n"
        "  latency   instruction latency probes (Fig. 2)\n"
        "  seq       sequential bandwidth sweep (Fig. 3)\n"
        "  rand      random-block bandwidth sweep (Fig. 5)\n"
        "  chase     pointer-chase WSS sweep (Fig. 2 right)\n"
        "  copy      data movement: memcpy/movdir64B/DSA (Fig. 4)\n"
        "  loaded    loaded-latency probe\n"
        "  report    bandwidth sweep with a per-point latency\n"
        "            breakdown table and bottleneck verdict\n"
        "  drill     deterministic failure drill on the CXL device:\n"
        "            link down/retrain, hot-remove/re-add and\n"
        "            poison-driven page offlining under a load flood,\n"
        "            reporting degraded-mode throughput, time-to-\n"
        "            detect, MTTR and data-at-risk\n"
        "  pool      multi-host pooled memory behind a CXL switch:\n"
        "            per-host windows from a shared pool, crash\n"
        "            fencing with capacity quarantine/scrub/re-grant,\n"
        "            port outage/retrain, noisy-neighbor attribution\n"
        "            and a machine-checked blast-radius isolation\n"
        "            invariant (per-host CSV tiers); with --attrib,\n"
        "            --trace-out and --metrics-out the fabric itself\n"
        "            is observable: per-port switch-station\n"
        "            attribution, cross-host Perfetto traces and a\n"
        "            cluster bottleneck verdict\n"
        "  diff      differential regression verdict over two runs:\n"
        "            memo diff A.csv B.csv loads two --csv outputs\n"
        "            (attribution and/or histogram tiers), computes\n"
        "            per-station deltas of the exact latency stack\n"
        "            and names the station that moved the tail\n"
        "            (--json for a machine-readable CI gate)\n"
        "  help      print this text (the default)\n"
        "\n"
        "options (N: an integer, K|M|G suffix allowed; LIST: N, a,b,c or\n"
        "lo-hi, doubling from lo):\n"
        + specparse::usage(cliFlags()) +
        "\n"
        "  --opt=value is accepted everywhere --opt value is.\n";
}

ObservabilityOptions
CliConfig::observability() const
{
    ObservabilityOptions obs;
    if (!traceOut.empty() || traceSampleEvery > 0)
        obs.traceSampleEvery = traceSampleEvery ? traceSampleEvery : 64;
    if (!metricsOut.empty() || metricsIntervalNs > 0) {
        obs.metricsInterval = ticksFromNs(static_cast<double>(
            metricsIntervalNs ? metricsIntervalNs : 1000));
    }
    obs.latencyHistograms = histograms;
    obs.attribution = attrib || mode == CliMode::Report;
    obs.tailK = tailK;
    return obs;
}

std::optional<CliConfig>
parseCli(const std::vector<std::string> &args, std::string &error)
{
    auto cfg = specparse::parseArgv(cliFlags(), args, error);
    if (cfg && cfg->mode == CliMode::Chase && cfg->wssBytes.empty())
        error = "chase mode requires --wss";
    if (cfg && cfg->mode == CliMode::Diff
        && (cfg->diffA.empty() || cfg->diffB.empty()))
        error = "diff requires two CSV files (memo diff A.csv B.csv)";
    // A later --mode can leave an operand taken while the mode was diff.
    if (cfg && cfg->mode != CliMode::Diff && !cfg->diffA.empty())
        error = "diff operand " + cfg->diffA + " outside diff mode";
    if (!error.empty())
        return std::nullopt;
    return cfg;
}

namespace
{

const char *
opName(MemOp::Kind k)
{
    return specparse::nameOf(opNames, static_cast<int>(k));
}

/** One sweep-point result plus its machine's RAS/QoS counters and
 *  flight-recorder collections (indexed by sweep position, so output
 *  is identical for any --jobs value). */
struct PointResult
{
    std::string csv;         //!< the point's own CSV cells
    std::string human;       //!< its human line(s)
    RasStats ras;
    QosStats qos;
    LatencyHistogram hist;   //!< target-device access latency
    AttribSnapshot attrib;   //!< latency-accounting roll-up
    TailCapture tailcap;     //!< worst-K outliers (exact merge)
    std::string traceJson;   //!< comma-separated Chrome trace events
    std::string metricsRows; //!< long-format metrics timeline rows
};

const char *
rasCsvColumns()
{
    return ",crc_errors,link_retries,timeouts,host_retries,"
           "drain_stalls,dram_stalls,poison_injected,"
           "poison_consumed,poison_delivered,poison_contained,"
           "degradations";
}

const char *
qosCsvColumns()
{
    return ",credit_stalls,credit_stall_ns,throttle_ns,devload,"
           "rate,ledger_ok";
}

const char *
histCsvColumns()
{
    return ",lat_n,lat_avg_ns,lat_p50_ns,lat_p99_ns,lat_max_ns";
}

const char *
tailCsvColumns()
{
    return ",tail_k,tail_n,tail_considered,tail_worst_ns,tail_kth_ns,"
           "tail_regime,tail_stage,tail_stage_ns,tail_stack_exact";
}

/** The device hosting @p target on @p m (nullopt target: merge every
 *  device the machine has -- the copy mode touches several). */
void
mergeHistograms(Machine &m, std::optional<Target> target,
                LatencyHistogram &out)
{
    auto add = [&out](const LatencyHistogram *h) {
        if (h)
            out.merge(*h);
    };
    if (!target) {
        add(m.localMem().latencyHistogram());
        if (m.hasRemote())
            add(m.remoteMem().latencyHistogram());
        if (m.hasCxl())
            add(m.cxlDev().latencyHistogram());
        return;
    }
    switch (*target) {
      case Target::Ddr5Local:
        add(m.localMem().latencyHistogram());
        break;
      case Target::Ddr5Remote:
        if (m.hasRemote())
            add(m.remoteMem().latencyHistogram());
        break;
      case Target::Cxl:
        if (m.hasCxl())
            add(m.cxlDev().latencyHistogram());
        break;
    }
}

/**
 * Per-point harvest, invoked on the experiment machine right before
 * it is destroyed: RAS/QoS counters (modes whose runner does not
 * export them), trace events, the metrics timeline and the latency
 * histogram. @p pid distinguishes sweep points in the merged trace.
 */
void
collectPoint(Machine &m, std::optional<Target> target, int pid,
             bool collectObs, PointResult &p)
{
    if (const RasStats *rs = m.rasStats())
        p.ras = *rs;
    if (auto qs = m.qosStats())
        p.qos = *qs;
    // Merge (not assign): a point that builds several machines (the
    // latency probes) accumulates one exact roll-up.
    if (m.attribution())
        p.attrib.merge(m.attribSnapshot());
    if (!collectObs)
        return;
    if (RequestTracer *tr = m.tracer()) {
        bool first = p.traceJson.empty();
        tr->appendTraceEvents(p.traceJson, pid, first);
    }
    if (TailCapture *tc = m.tailCapture()) {
        // Exact associative merge: a point that builds several
        // machines accumulates one top-K union; the outliers also
        // land on the trace's dedicated tail track when exported.
        p.tailcap.merge(*tc);
        bool first = p.traceJson.empty();
        tc->appendTraceEvents(p.traceJson, pid, first);
    }
    if (MetricsRegistry *mr = m.metrics()) {
        m.flushMetrics();
        p.metricsRows = mr->rows();
    }
    mergeHistograms(m, target, p.hist);
}

void
printRasCsvCells(const RasStats &rs)
{
    std::printf(",%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                "%llu",
                (unsigned long long)rs.crcErrors,
                (unsigned long long)rs.linkRetries,
                (unsigned long long)rs.timeouts,
                (unsigned long long)rs.hostRetries,
                (unsigned long long)rs.drainStalls,
                (unsigned long long)rs.dramStalls,
                (unsigned long long)rs.poisonInjected,
                (unsigned long long)rs.poisonConsumed,
                (unsigned long long)rs.poisonDelivered,
                (unsigned long long)rs.poisonContained,
                (unsigned long long)rs.linkDegradations);
}

void
printRasLine(const RasStats &rs)
{
    std::printf("  ras: %s\n", rs.summary().c_str());
}

void
printQosCsvCells(const QosStats &qs)
{
    std::printf(",%llu,%llu,%llu,%.3f,%.3f,%d",
                (unsigned long long)(qs.rdCreditStalls
                                     + qs.wrCreditStalls),
                (unsigned long long)(qs.creditStallTicks / tickPerNs),
                (unsigned long long)(qs.throttleDelayTicks / tickPerNs),
                qs.devLoad, qs.rate, qs.ledgerOk ? 1 : 0);
}

void
printQosLine(const QosStats &qs)
{
    std::printf("  qos: %s\n", qs.summary().c_str());
}

/** @p toNs converts the histogram's recorded unit to ns: machine
 *  device histograms record ticks (pass 1/tickPerNs), the pool's
 *  per-host read histograms record ns already (pass 1.0). */
void
printHistCsvCells(const LatencyHistogram &h, double toNs)
{
    std::printf(",%llu,%.1f,%.1f,%.1f,%.1f",
                (unsigned long long)h.count(), h.mean() * toNs,
                h.p50() * toNs, h.p99() * toNs,
                static_cast<double>(h.max()) * toNs);
}

void
printHistLine(const LatencyHistogram &h, double toNs)
{
    if (h.empty()) {
        std::printf("  lat: no samples\n");
        return;
    }
    std::printf("  lat: n=%llu  avg %.1f  p50 %.1f  p99 %.1f  "
                "max %.1f ns\n",
                (unsigned long long)h.count(), h.mean() * toNs,
                h.p50() * toNs, h.p99() * toNs,
                static_cast<double>(h.max()) * toNs);
}

void
printTailCsvCells(const TailSummary &t)
{
    std::printf(",%u,%llu,%llu,%.1f,%.1f,%s,%s,%.1f,%d", t.k,
                (unsigned long long)t.held,
                (unsigned long long)t.considered, t.worstNs, t.kthNs,
                t.regime.c_str(), t.stage.c_str(), t.stageNs,
                t.stackExact ? 1 : 0);
}

void
printTailLine(const TailSummary &t)
{
    if (t.held == 0) {
        std::printf("  tail: no demand reads considered\n");
        return;
    }
    std::printf("  tail: worst %.1f ns [%s] worst_in=%s(%.1f ns)  "
                "kth %.1f ns  held %llu (K=%u/class)  "
                "considered %llu  stack_exact=%d\n",
                t.worstNs, t.regime.c_str(), t.stage.c_str(),
                t.stageNs, t.kthNs, (unsigned long long)t.held, t.k,
                (unsigned long long)t.considered,
                t.stackExact ? 1 : 0);
}

void
printAttribLine(const AttribSnapshot &a)
{
    std::printf("  attrib: %s\n", a.verdict().c_str());
}

/** The full optional cell set: every group, zeros when inactive, so
 *  rows always match csvHeader()'s stable superset. The attribution
 *  group is appended only when enabled, keeping pre-attribution
 *  configurations byte-identical. */
void
printExtraCsvCells(const PointResult &p, bool attrib, bool tail)
{
    printRasCsvCells(p.ras);
    printQosCsvCells(p.qos);
    printHistCsvCells(p.hist, 1.0 / tickPerNs);
    if (attrib)
        attribTier.printCells(p.attrib, p.attrib.elapsed,
                              p.attrib.littleOk(),
                              stationName(p.attrib.bottleneck()));
    if (tail)
        printTailCsvCells(p.tailcap.summary());
}

void
printExtraLines(const PointResult &p, bool ras, bool qos, bool hist,
                bool attrib, bool tail)
{
    if (ras)
        printRasLine(p.ras);
    if (qos)
        printQosLine(p.qos);
    if (hist)
        printHistLine(p.hist, 1.0 / tickPerNs);
    if (attrib)
        printAttribLine(p.attrib);
    if (tail)
        printTailLine(p.tailcap.summary());
}

/** Merge per-point trace fragments into one Chrome trace-event JSON
 *  document ({"traceEvents": [...]}). */
bool
writeTraceFile(const std::string &path,
               const std::vector<PointResult> &pts)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "memo: cannot write trace file %s\n",
                     path.c_str());
        return false;
    }
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const PointResult &p : pts) {
        if (p.traceJson.empty())
            continue;
        if (!first)
            std::fputs(",\n", f);
        std::fputs(p.traceJson.c_str(), f);
        first = false;
    }
    std::fputs("]}\n", f);
    std::fclose(f);
    return true;
}

/** Concatenate per-point metrics timelines, prefixing each row with
 *  its sweep-point index (schema: point,time_ns,metric,kind,value). */
bool
writeMetricsFile(const std::string &path,
                 const std::vector<PointResult> &pts)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "memo: cannot write metrics file %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "point,%s\n", MetricsRegistry::csvHeader());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const std::string &rows = pts[i].metricsRows;
        std::size_t pos = 0;
        while (pos < rows.size()) {
            std::size_t nl = rows.find('\n', pos);
            if (nl == std::string::npos)
                nl = rows.size();
            std::fprintf(f, "%zu,%.*s\n", i,
                         static_cast<int>(nl - pos), rows.c_str() + pos);
            pos = nl + 1;
        }
    }
    std::fclose(f);
    return true;
}

/** End-of-run file output shared by every mode. */
int
finishRun(const CliConfig &cfg, const std::vector<PointResult> &pts)
{
    bool ok = true;
    if (!cfg.traceOut.empty())
        ok = writeTraceFile(cfg.traceOut, pts) && ok;
    if (!cfg.metricsOut.empty())
        ok = writeMetricsFile(cfg.metricsOut, pts) && ok;
    return ok ? 0 : 1;
}

} // namespace

std::string
csvHeader(CliMode mode, bool ras, bool qos, bool hist, bool attrib,
          bool tail)
{
    std::string base;
    const bool extras = ras || qos || hist || attrib || tail;
    switch (mode) {
      case CliMode::Latency:
        base = "target,ld,st+wb,nt-st,ptr-chase";
        break;
      case CliMode::Seq:
        base = "target,op,threads,gbps";
        break;
      case CliMode::Rand:
        base = "target,op,block,threads,gbps";
        break;
      case CliMode::Chase:
        base = "target,wss,ns";
        break;
      case CliMode::Copy:
        base = "path,method,batch,gbps";
        break;
      case CliMode::Loaded:
        // With any extra group active the loaded probe reports the
        // windowed distribution (tails are the interesting signal).
        base = extras ? "target,threads,avg_ns,p50_ns,p99_ns"
                      : "target,threads,ns";
        break;
      case CliMode::Report:
        base = "target,op,threads,gbps";
        break;
      case CliMode::Drill:
        base = "threads,healthy_gbps,degraded_gbps,recovered_gbps,"
               "link_detect_ns,link_mttr_ns,remove_detect_ns,"
               "remove_mttr_ns,data_at_risk_bytes,evacuated_bytes,"
               "pages_offlined,offlined_bytes,migrated_bytes,"
               "aborted_reads,aborted_writes,invariant_ok";
        break;
      case CliMode::Pool: {
        // Per-host tiers plus run-level fencing/isolation columns
        // (repeated on every row so the file is self-contained). Pool
        // mode rejects the machine-level specs; --attrib appends the
        // fabric tier (each row is a switch port) and nothing else
        // moves, so attrib-off output stays byte-identical.
        std::string pool =
            "host,port,role,ops,gbps,read_avg_ns,read_p99_ns,"
            "poisoned,aborted,fenced,granted_mb,digest,"
            "time_to_fence_ns,quarantined_mb,recovered_mb,"
            "ledger_ok,isolation_ok,verdict";
        if (hist)
            pool += histCsvColumns();
        if (tail)
            pool += tailCsvColumns();
        if (attrib)
            pool += fabricTier.columns();
        return pool;
      }
      case CliMode::Diff:
      case CliMode::Help:
        return "";
    }
    if (extras)
        base += std::string(rasCsvColumns()) + qosCsvColumns()
                + histCsvColumns();
    if (attrib || mode == CliMode::Report)
        base += attribTier.columns();
    if (tail)
        base += tailCsvColumns();
    return base;
}

namespace
{

int
runCli(const CliConfig &cfg)
{
    Options opts;
    opts.prefetch = cfg.prefetch;
    opts.seed = cfg.seed;
    opts.faults = cfg.faults;
    opts.qos = cfg.qos;
    opts.chaos = cfg.chaos;
    opts.watchdogUs = cfg.watchdogUs;
    opts.obs = cfg.observability();
    // The drill always has RAS counters (it arms a poison stream for
    // the offlining leg even with no --fault-spec), so its CSV rows
    // always carry the extra groups.
    const bool ras = cfg.faults.enabled() || cfg.mode == CliMode::Drill;
    const bool qos = cfg.qos.enabled();
    const bool hist = cfg.histograms;
    const bool attrib = opts.obs.attribution;
    const bool tail = opts.obs.tailK > 0;
    const bool extras = ras || qos || hist || attrib || tail;
    const bool collect = opts.obs.enabled();

    // Per-point options: every sweep point gets its own hook writing
    // into that point's PointResult, so SweepRunner workers never
    // share mutable state and output is --jobs-independent.
    auto hooked = [&](PointResult &p, int pid,
                      std::optional<Target> target) {
        Options o = opts;
        if (collect || extras) {
            o.onMachineDone = [&p, pid, target, collect](Machine &m) {
                collectPoint(m, target, pid, collect, p);
            };
        }
        return o;
    };

    auto csvHeaderLine = [&] {
        std::printf("%s\n",
                    csvHeader(cfg.mode, ras, qos, hist, attrib,
                              tail).c_str());
    };

    // A sweep of @p n points, each simulated by @p point on its own
    // machine and printed in sweep order: its CSV cells plus the extra
    // groups, or its human line(s) plus their summaries.
    auto sweep = [&](std::size_t n, std::optional<Target> target,
                     const auto &point) {
        SweepRunner pool(cfg.jobs);
        const auto pts = pool.map(n, [&](std::size_t i) {
            PointResult p;
            point(i, hooked(p, static_cast<int>(i), target), p);
            return p;
        });
        const bool report = cfg.mode == CliMode::Report;
        if (cfg.csv)
            csvHeaderLine();
        for (const PointResult &p : pts) {
            if (cfg.csv) {
                std::fputs(p.csv.c_str(), stdout);
                if (extras)
                    printExtraCsvCells(p, attrib, tail);
                std::printf("\n");
            } else {
                std::fputs(p.human.c_str(), stdout);
                printExtraLines(p, ras, qos, hist, attrib && !report, tail);
                if (report)
                    std::fputs(p.attrib.table().c_str(), stdout);
            }
        }
        return finishRun(cfg, pts);
    };

    switch (cfg.mode) {
      case CliMode::Help:
        std::fputs(cliUsage().c_str(), stdout);
        return 0;

      case CliMode::Latency:
        return sweep(1, cfg.target,
                     [&](std::size_t, const Options &o, PointResult &p) {
            const LatencyResult r = runLatency(cfg.target, o, &p.ras);
            p.csv = format("%s,%.1f,%.1f,%.1f,%.1f", targetName(cfg.target),
                           r.loadNs, r.storeWbNs, r.ntStoreNs, r.ptrChaseNs);
            p.human = format("%s latency (ns): ld %.1f  st+wb %.1f  "
                             "nt-st %.1f  ptr-chase %.1f\n",
                             targetName(cfg.target), r.loadNs, r.storeWbNs,
                             r.ntStoreNs, r.ptrChaseNs);
        });

      case CliMode::Seq:
      case CliMode::Report:
        // Report is the seq sweep (the Fig. 3 shape) with attribution
        // forced on: each point also prints its breakdown table.
        return sweep(cfg.threads.size(), cfg.target,
                     [&](std::size_t i, const Options &o, PointResult &p) {
            const std::uint32_t t = cfg.threads[i];
            const double gbps = runSeqBandwidth(cfg.target, cfg.op, t, o,
                                                &p.ras, &p.qos);
            p.csv = format("%s,%s,%u,%.2f", targetName(cfg.target),
                           opName(cfg.op), t, gbps);
            p.human = format("%s %s seq, %2u threads: %7.2f GB/s\n",
                             targetName(cfg.target), opName(cfg.op), t,
                             gbps);
        });

      case CliMode::Rand: {
        std::vector<std::pair<std::uint64_t, std::uint32_t>> points;
        for (std::uint64_t b : cfg.blockBytes)
            for (std::uint32_t t : cfg.threads)
                points.emplace_back(b, t);
        return sweep(points.size(), cfg.target,
                     [&](std::size_t i, const Options &o, PointResult &p) {
            const auto [block, t] = points[i];
            const double gbps = runRandBandwidth(cfg.target, cfg.op, t,
                                                 block, o, &p.ras, &p.qos);
            p.csv = format("%s,%s,%llu,%u,%.2f", targetName(cfg.target),
                           opName(cfg.op), (unsigned long long)block, t,
                           gbps);
            p.human = format("%s %s rand %6lluB blocks, %2u threads: "
                             "%7.2f GB/s\n",
                             targetName(cfg.target), opName(cfg.op),
                             (unsigned long long)block, t, gbps);
        });
      }

      case CliMode::Chase:
        // One machine per WSS point (single-element sweeps) so the
        // decomposition -- and therefore the output -- is the same for
        // every job count.
        return sweep(cfg.wssBytes.size(), cfg.target,
                     [&](std::size_t i, const Options &o, PointResult &p) {
            const auto wss = (unsigned long long)cfg.wssBytes[i];
            const double ns = runPtrChaseWssSweep(
                cfg.target, {cfg.wssBytes[i]}, o, &p.ras)[0];
            p.csv = format("%s,%llu,%.1f", targetName(cfg.target), wss, ns);
            p.human = format("%s chase wss %10llu B: %7.1f ns\n",
                             targetName(cfg.target), wss, ns);
        });

      case CliMode::Copy:
        // The copy path touches several devices; merge them all into
        // the histogram (nullopt target).
        return sweep(1, std::nullopt,
                     [&](std::size_t, const Options &o, PointResult &p) {
            const double gbps = runCopyBandwidth(cfg.path, cfg.method,
                                                 cfg.batch, 4 * kiB, o);
            p.csv = format("%s,%s,%u,%.2f", copyPathName(cfg.path),
                           copyMethodName(cfg.method), cfg.batch, gbps);
            p.human = format("%s via %s (batch %u): %.2f GB/s\n",
                             copyPathName(cfg.path),
                             copyMethodName(cfg.method), cfg.batch, gbps);
        });

      case CliMode::Loaded:
        return sweep(cfg.threads.size(), cfg.target,
                     [&](std::size_t i, const Options &o, PointResult &p) {
            const std::uint32_t t = cfg.threads[i];
            const char *target = targetName(cfg.target);
            if (!extras) {
                const double ns = runLoadedLatency(cfg.target, t, o,
                                                   nullptr, &p.qos);
                p.csv = format("%s,%u,%.1f", target, t, ns);
                p.human = format("%s loaded latency, %2u threads: %7.1f "
                                 "ns\n", target, t, ns);
                return;
            }
            // With any extra column group active the interesting
            // signal is the *tail*: report the windowed distribution
            // instead of one long-run average.
            const LoadedLatencyDist d = runLoadedLatencyDist(cfg.target, t, o);
            p.ras = d.ras;
            p.qos = d.qos;
            p.csv = format("%s,%u,%.1f,%.1f,%.1f", target, t, d.avgNs,
                           d.p50Ns, d.p99Ns);
            p.human = format("%s loaded latency, %2u threads: avg %7.1f  "
                             "p50 %7.1f  p99 %7.1f ns\n",
                             target, t, d.avgNs, d.p50Ns, d.p99Ns);
        });

      case CliMode::Drill:
        // One drill per thread-count point; each point is its own
        // Machine, so SweepRunner keeps --jobs output-independent.
        return sweep(cfg.threads.size(), Target::Cxl,
                     [&](std::size_t i, const Options &o, PointResult &p) {
            const DrillResult d = runDrill(cfg.threads[i], o);
            const ChaosStats &c = d.chaos;
            p.ras = d.ras;
            p.csv = format("%u,%.2f,%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,"
                           "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d",
                           cfg.threads[i], d.healthyGBps, d.degradedGBps,
                           d.recoveredGBps, d.linkDetectNs, d.linkMttrNs,
                           d.removeDetectNs, d.removeMttrNs,
                           (unsigned long long)c.dataAtRiskBytes,
                           (unsigned long long)d.evacuatedBytes,
                           (unsigned long long)c.pagesOfflined,
                           (unsigned long long)c.offlinedBytes,
                           (unsigned long long)c.migratedBytes,
                           (unsigned long long)c.abortedReads,
                           (unsigned long long)c.abortedWrites,
                           d.invariantOk ? 1 : 0);
            p.human = format("CXL drill, %2u threads:\n"
                             "  throughput: healthy %.2f -> degraded "
                             "%.2f -> recovered %.2f GB/s\n",
                             cfg.threads[i], d.healthyGBps,
                             d.degradedGBps, d.recoveredGBps);
            if (c.linkDowns > 0) {
                p.human += format("  link: detected down in %.1f ns, "
                                  "full width back after %.1f ns "
                                  "(%llu retrain%s, %llu step-up%s)\n",
                                  d.linkDetectNs, d.linkMttrNs,
                                  (unsigned long long)c.retrains,
                                  c.retrains == 1 ? "" : "s",
                                  (unsigned long long)c.widthStepUps,
                                  c.widthStepUps == 1 ? "" : "s");
            }
            if (c.removals > 0) {
                p.human += format("  device: removal detected in %.1f "
                                  "ns, re-added after %.1f ns; aborted "
                                  "%llu reads / %llu writes (%llu B)\n"
                                  "  containment: %llu B at risk, "
                                  "%llu B evacuated via DSA\n",
                                  d.removeDetectNs, d.removeMttrNs,
                                  (unsigned long long)c.abortedReads,
                                  (unsigned long long)c.abortedWrites,
                                  (unsigned long long)c.abortedBytes,
                                  (unsigned long long)c.dataAtRiskBytes,
                                  (unsigned long long)d.evacuatedBytes);
            }
            if (c.pagesOfflined > 0 || c.poisonEvents > 0) {
                p.human += format("  pages: %llu offlined (%llu B), "
                                  "%llu B migrated (%llu poison "
                                  "events)\n",
                                  (unsigned long long)c.pagesOfflined,
                                  (unsigned long long)c.offlinedBytes,
                                  (unsigned long long)c.migratedBytes,
                                  (unsigned long long)c.poisonEvents);
            }
            p.human += format("  poison invariant: %s%s\n",
                              d.invariantOk ? "OK" : "VIOLATED",
                              d.watchdogTripped ? " (watchdog tripped)"
                                                : "");
        });

      case CliMode::Pool: {
        const PoolResult r = runPool(cfg.poolSpec, opts, cfg.jobs);
        const ClusterResult &c = r.cluster;
        const bool fabric = attrib && c.fabric.enabled();
        if (cfg.csv) {
            csvHeaderLine();
            for (const HostReport &h : c.hosts) {
                std::printf(
                    "%u,%u,%s,%llu,%.2f,%.1f,%.1f,%llu,%llu,%d,%llu,"
                    "%016llx%016llx,%.1f,%llu,%llu,%d,%d,%s",
                    h.host, h.host, h.role.c_str(),
                    (unsigned long long)h.digest.ops, h.gbps,
                    h.readAvgNs, h.readP99Ns,
                    (unsigned long long)h.digest.poisoned,
                    (unsigned long long)h.digest.aborted,
                    h.fenced ? 1 : 0,
                    (unsigned long long)(h.grantedBytes / miB),
                    (unsigned long long)h.digest.valueHash,
                    (unsigned long long)h.digest.ledgerHash,
                    c.timeToFenceNs,
                    (unsigned long long)(c.quarantinedBytes / miB),
                    (unsigned long long)(c.recoveredBytes / miB),
                    c.ledgerOk ? 1 : 0, r.isolationOk ? 1 : 0,
                    c.verdict.c_str());
                // Per-host read histograms record nanoseconds
                // directly (unlike machine device histograms, which
                // record ticks), so the unit scale is 1.
                if (hist)
                    printHistCsvCells(h.readHist, 1.0);
                if (tail)
                    printTailCsvCells(h.tail);
                if (fabric) {
                    const FabricPortSnap &fp = c.fabric.ports[h.host];
                    fabricTier.printCells(
                        fp, c.fabric.elapsed, fp.littleOk(c.fabric.elapsed),
                        fp.decompositionExact() ? "1" : "0");
                }
                std::printf("\n");
            }
        } else {
            std::printf("pooled cluster: %s\n",
                        cfg.poolSpec.toString().c_str());
            for (const HostReport &h : c.hosts) {
                std::printf("  host%u [%s]%s: %llu ops, %.2f GB/s, "
                            "read avg/p99 %.1f/%.1f ns, poisoned "
                            "%llu, aborted %llu, window %llu MiB\n",
                            h.host, h.role.c_str(),
                            h.fenced ? " FENCED" : "",
                            (unsigned long long)h.digest.ops, h.gbps,
                            h.readAvgNs, h.readP99Ns,
                            (unsigned long long)h.digest.poisoned,
                            (unsigned long long)h.digest.aborted,
                            (unsigned long long)(h.grantedBytes
                                                 / miB));
                if (hist)
                    printHistLine(h.readHist, 1.0);
                if (tail)
                    printTailLine(h.tail);
            }
            if (c.timeToFenceNs >= 0.0) {
                std::printf("  fencing: dead host fenced in %.1f ns; "
                            "%llu MiB quarantined, %llu MiB "
                            "re-granted to survivors\n",
                            c.timeToFenceNs,
                            (unsigned long long)(c.quarantinedBytes
                                                 / miB),
                            (unsigned long long)(c.recoveredBytes
                                                 / miB));
            }
            std::printf("  ledger: %s",
                        c.ledgerOk ? "conserved" : "VIOLATED");
            if (r.victim >= 0 && cfg.poolSpec.disturbed()) {
                std::printf("; isolation (host%d): %s", r.victim,
                            r.isolationOk ? "OK" : "VIOLATED");
            }
            std::printf("\n  verdict: %s\n", c.verdict.c_str());
            if (fabric) {
                std::printf("  fabric attribution:\n%s",
                            c.fabric.table().c_str());
            }
            if (c.watchdogTripped) {
                std::printf("  watchdog tripped:\n%s\n",
                            c.watchdogReport.c_str());
            }
        }
        // The disturbed cluster is the run's single "point" for the
        // trace/metrics sinks (the baseline runs dark, see runPool).
        std::vector<PointResult> pts(1);
        pts[0].traceJson = c.traceJson;
        pts[0].metricsRows = c.metricsRows;
        const int fileRc = finishRun(cfg, pts);
        // Invariant violations are a failing exit: CI smoke drills
        // rely on it the way the poison-conservation checks do.
        const bool ok =
            c.ledgerOk && r.isolationOk && !c.watchdogTripped;
        return ok ? fileRc : 1;
      }

      case CliMode::Diff: {
        const auto readFile = [](const std::string &path,
                                 std::string &out) {
            std::FILE *f = std::fopen(path.c_str(), "rb");
            if (!f)
                return false;
            char buf[4096];
            std::size_t n;
            while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
                out.append(buf, n);
            std::fclose(f);
            return true;
        };
        std::string a, b;
        if (!readFile(cfg.diffA, a)) {
            std::fprintf(stderr, "memo: cannot read %s\n",
                         cfg.diffA.c_str());
            return 1;
        }
        if (!readFile(cfg.diffB, b)) {
            std::fprintf(stderr, "memo: cannot read %s\n",
                         cfg.diffB.c_str());
            return 1;
        }
        DiffOptions dopts;
        dopts.thresholdPct = cfg.diffThresholdPct;
        dopts.json = cfg.diffJson;
        const DiffReport rep = diffRuns(a, b, dopts);
        if (!rep.ok) {
            std::fprintf(stderr, "memo: %s\n", rep.error.c_str());
            return 1;
        }
        std::fputs(cfg.diffJson ? diffReportJson(rep).c_str()
                                : diffReportText(rep).c_str(),
                   stdout);
        return 0;
      }
    }
    return 1;
}

} // namespace

int
memoCliMain(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string error;
    const auto cfg = parseCli(args, error);
    if (!cfg) {
        // One line, stderr, nonzero exit: scripts and CI can grep it
        // without wading through the usage text.
        std::fprintf(stderr, "memo: %s (try --help)\n", error.c_str());
        return 2;
    }
    return runCli(*cfg);
}

} // namespace memo
} // namespace cxlmemo
