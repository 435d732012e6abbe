#include "memo/cli.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "memo/diff.hh"
#include "memo/stationtier.hh"
#include "sim/histogram.hh"
#include "sim/sweep.hh"
#include "sim/tailcap.hh"
#include "sim/trace.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

std::optional<Target>
parseTarget(const std::string &s)
{
    if (s == "ddr5-l8" || s == "local" || s == "dram")
        return Target::Ddr5Local;
    if (s == "ddr5-r1" || s == "remote")
        return Target::Ddr5Remote;
    if (s == "cxl")
        return Target::Cxl;
    return std::nullopt;
}

std::optional<MemOp::Kind>
parseOp(const std::string &s)
{
    if (s == "load" || s == "ld")
        return MemOp::Kind::Load;
    if (s == "store" || s == "st")
        return MemOp::Kind::Store;
    if (s == "nt-store" || s == "nt")
        return MemOp::Kind::NtStore;
    return std::nullopt;
}

std::optional<CliMode>
parseMode(const std::string &s)
{
    if (s == "latency")
        return CliMode::Latency;
    if (s == "seq")
        return CliMode::Seq;
    if (s == "rand")
        return CliMode::Rand;
    if (s == "chase")
        return CliMode::Chase;
    if (s == "copy")
        return CliMode::Copy;
    if (s == "loaded")
        return CliMode::Loaded;
    if (s == "report")
        return CliMode::Report;
    if (s == "drill")
        return CliMode::Drill;
    if (s == "pool")
        return CliMode::Pool;
    if (s == "diff")
        return CliMode::Diff;
    if (s == "help")
        return CliMode::Help;
    return std::nullopt;
}

std::optional<CopyPath>
parsePath(const std::string &s)
{
    if (s == "d2d")
        return CopyPath::D2D;
    if (s == "d2c")
        return CopyPath::D2C;
    if (s == "c2d")
        return CopyPath::C2D;
    if (s == "c2c")
        return CopyPath::C2C;
    return std::nullopt;
}

std::optional<CopyMethod>
parseMethod(const std::string &s)
{
    if (s == "memcpy")
        return CopyMethod::Memcpy;
    if (s == "movdir64b" || s == "movdir")
        return CopyMethod::Movdir64;
    if (s == "dsa-sync")
        return CopyMethod::DsaSync;
    if (s == "dsa" || s == "dsa-async")
        return CopyMethod::DsaAsync;
    return std::nullopt;
}

/** An empty or whitespace-only spec value means the shell ate the
 *  real one (unquoted substitution, stray trailing flag); every spec
 *  parser would accept it as "all defaults", silently running without
 *  the faults/QoS/chaos the user asked for. Reject it instead. */
bool
blankSpec(const std::string &s)
{
    for (char c : s)
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

template <class Spec, Spec CliConfig::*member>
bool
takeSpec(CliConfig &cfg, const std::string &text, std::string &error)
{
    const auto spec = Spec::parse(text, error);
    if (spec)
        cfg.*member = *spec;
    return spec.has_value();
}

template <class Spec>
std::string
specKeys()
{
    return specparse::usage(Spec::grammar(), std::string(4, ' '));
}

/** The four key=value spec flags. One entry drives both the --help
 *  text and parseCli's handling of the flag. */
struct SpecFlag
{
    const char *flag;
    const char *what;    //!< usage text before the key list
    const char *example; //!< usage text after it
    std::string (*keys)();
    bool (*take)(CliConfig &, const std::string &, std::string &);
};

constexpr SpecFlag specFlags[] = {
    {"--fault-spec", "RAS fault injection",
     "e.g. --fault-spec crc=1e-4,poison=1e-6",
     &specKeys<FaultSpec>, &takeSpec<FaultSpec, &CliConfig::faults>},
    {"--qos-spec", "CXL overload control",
     "e.g. --qos-spec credits=24,policy=aimd",
     &specKeys<QosSpec>, &takeSpec<QosSpec, &CliConfig::qos>},
    {"--chaos-spec", "failure-lifecycle schedule",
     "e.g. --chaos-spec link-down-at-ns=60000,\n"
     "      remove-at-ns=100000,readd-at-ns=130000",
     &specKeys<ChaosSpec>, &takeSpec<ChaosSpec, &CliConfig::chaos>},
    {"--pool-spec",
     "pooled-cluster scenario\n"
     "                (pool mode only; machine-level specs do not\n"
     "                apply)",
     "e.g. --pool-spec hosts=4,crash-host=1,crash-at-ns=20000",
     &specKeys<PoolSpec>, &takeSpec<PoolSpec, &CliConfig::poolSpec>},
};

const SpecFlag *
findSpecFlag(const std::string &flag)
{
    for (const SpecFlag &sf : specFlags)
        if (flag == sf.flag)
            return &sf;
    return nullptr;
}

std::string
specUsage()
{
    std::string out;
    for (const SpecFlag &sf : specFlags) {
        std::string flag = sf.flag;
        flag.resize(14, ' ');
        out += "  " + flag + "key=value[,...] " + sf.what + ":\n"
               + sf.keys() + "    " + sf.example + "\n";
    }
    return out;
}

} // namespace

std::optional<std::uint64_t>
parseSize(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t mult = 1;
    std::string digits = text;
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(
            text.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        mult = suffix == 'K' ? kiB : suffix == 'M' ? miB : giB;
        digits = text.substr(0, text.size() - 1);
    }
    if (digits.empty())
        return std::nullopt;
    constexpr std::uint64_t maxVal =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (maxVal - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    if (mult > 1 && value > maxVal / mult)
        return std::nullopt; // overflow
    return value * mult;
}

std::optional<std::vector<std::uint64_t>>
parseListSpec(const std::string &text)
{
    std::vector<std::uint64_t> out;
    const auto dash = text.find('-');
    if (dash != std::string::npos) {
        const auto lo = parseSize(text.substr(0, dash));
        const auto hi = parseSize(text.substr(dash + 1));
        if (!lo || !hi || *lo == 0 || *lo > *hi)
            return std::nullopt;
        // Powers-of-two steps from lo, plus the exact endpoint.
        for (std::uint64_t v = *lo; v < *hi; v *= 2)
            out.push_back(v);
        out.push_back(*hi);
        return out;
    }
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto v = parseSize(item);
        if (!v)
            return std::nullopt;
        out.push_back(*v);
    }
    if (out.empty())
        return std::nullopt;
    return out;
}

std::string
cliUsage()
{
    return
        "MEMO: microbenchmark for CXL/NUMA memory characterization\n"
        "usage: memo --mode <mode> [options]\n"
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
        "\n"
        "options:\n"
        "  --target  ddr5-l8 | ddr5-r1 | cxl         (default ddr5-l8)\n"
        "  --op      load | store | nt-store         (default load)\n"
        "  --threads N | a,b,c | lo-hi               (default 1)\n"
        "  --block   SIZE | list/range (rand mode)   (default 4K)\n"
        "  --wss     SIZE | list/range (chase mode)\n"
        "  --path    d2d | d2c | c2d | c2c (copy)    (default d2c)\n"
        "  --method  memcpy | movdir64b | dsa-sync | dsa (copy)\n"
        "  --batch   N   DSA batch size              (default 1)\n"
        "  --prefetch    enable hardware prefetchers\n"
        "  --csv         machine-readable output\n"
        "  --seed    N   workload RNG seed           (default 42)\n"
        "  --jobs/-j N   host threads for sweep points (default 1;\n"
        "                0 = all cores; output identical for any N)\n"
        + specUsage() +
        "  --watchdog-ns N   watchdog snapshot interval in ns\n"
        "  --trace-out FILE  write sampled request-lifecycle spans as\n"
        "                Chrome trace-event JSON (Perfetto-loadable)\n"
        "  --trace-sample N | 1/N   trace every Nth request\n"
        "                (default 1/64 when tracing is enabled)\n"
        "  --metrics-out FILE   write the interval-metrics timeline\n"
        "                (long-format CSV: point,time_ns,metric,kind,\n"
        "                value)\n"
        "  --metrics-interval-ns N   metrics snapshot interval\n"
        "                (default 1000 when --metrics-out is given)\n"
        "  --histograms  per-component latency histograms (extra CSV\n"
        "                columns / report lines; in pool mode, per-host\n"
        "                lat_* columns over the read-latency histogram)\n"
        "  --attrib      exhaustive latency accounting: per-station\n"
        "                queue/service/utilization columns, the\n"
        "                demand-read latency stack and an automatic\n"
        "                bottleneck verdict (implied by --mode report)\n"
        "  --tail-trace K   worst-K outlier capture: every completed\n"
        "                demand read competes for the K worst per\n"
        "                regime class (local/remote/cxl/fabric), kept\n"
        "                with the full per-stage bracket -- tail_*\n"
        "                CSV columns, a dedicated tail track in\n"
        "                --trace-out, and the watchdog post-mortem\n"
        "                (works in pool mode too)\n"
        "  --json        diff mode: machine-readable JSON verdict\n"
        "  --diff-threshold P   diff mode: no-change band in percent\n"
        "                (default 5)\n"
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
parseCli(const std::vector<std::string> &rawArgs, std::string &error)
{
    // Normalize "--opt=value" into "--opt value" so both spellings
    // work; values themselves (e.g. --fault-spec crc=1e-4) keep their
    // '=' because only tokens starting with "--" are split.
    std::vector<std::string> args;
    args.reserve(rawArgs.size());
    for (const std::string &a : rawArgs) {
        const auto eq = a.find('=');
        if (a.size() > 2 && a.compare(0, 2, "--") == 0
            && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    CliConfig cfg;
    bool sawPoolSpec = false;
    bool sawJson = false;
    bool sawThreshold = false;
    auto need = [&](std::size_t i) -> std::optional<std::string> {
        if (i + 1 >= args.size()) {
            error = "missing value after " + args[i];
            return std::nullopt;
        }
        return args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--help" || a == "-h") {
            cfg.mode = CliMode::Help;
            return cfg;
        } else if (a == "--mode") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto m = parseMode(*v);
            if (!m) {
                error = "unknown mode: " + *v;
                return std::nullopt;
            }
            cfg.mode = *m;
            ++i;
        } else if (a == "--target") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto t = parseTarget(*v);
            if (!t) {
                error = "unknown target: " + *v;
                return std::nullopt;
            }
            cfg.target = *t;
            ++i;
        } else if (a == "--op") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto o = parseOp(*v);
            if (!o) {
                error = "unknown op: " + *v;
                return std::nullopt;
            }
            cfg.op = *o;
            ++i;
        } else if (a == "--threads") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto list = parseListSpec(*v);
            if (!list) {
                error = "bad thread spec: " + *v;
                return std::nullopt;
            }
            cfg.threads.clear();
            for (std::uint64_t t : *list) {
                if (t == 0 || t > 64) {
                    error = "thread count out of range";
                    return std::nullopt;
                }
                cfg.threads.push_back(static_cast<std::uint32_t>(t));
            }
            ++i;
        } else if (a == "--block") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto list = parseListSpec(*v);
            if (!list) {
                error = "bad block spec: " + *v;
                return std::nullopt;
            }
            for (std::uint64_t b : *list) {
                if (b < cachelineBytes || b % cachelineBytes != 0
                    || b > 64 * miB) {
                    error = "block size must be a multiple of 64 in "
                            "[64, 64M]: " + *v;
                    return std::nullopt;
                }
            }
            cfg.blockBytes = *list;
            ++i;
        } else if (a == "--wss") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto list = parseListSpec(*v);
            if (!list) {
                error = "bad wss spec: " + *v;
                return std::nullopt;
            }
            for (std::uint64_t w : *list) {
                // The pointer chase needs at least two lines; huge
                // sets would just swamp the simulated capacity.
                if (w < 2 * cachelineBytes || w % cachelineBytes != 0
                    || w > 8 * giB) {
                    error = "wss must be a multiple of 64 in "
                            "[128, 8G]: " + *v;
                    return std::nullopt;
                }
            }
            cfg.wssBytes = *list;
            ++i;
        } else if (a == "--path") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto p = parsePath(*v);
            if (!p) {
                error = "unknown path: " + *v;
                return std::nullopt;
            }
            cfg.path = *p;
            ++i;
        } else if (a == "--method") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto m = parseMethod(*v);
            if (!m) {
                error = "unknown method: " + *v;
                return std::nullopt;
            }
            cfg.method = *m;
            ++i;
        } else if (a == "--batch") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto b = parseSize(*v);
            if (!b || *b == 0 || *b > 1024) {
                error = "bad batch (1..1024): " + *v;
                return std::nullopt;
            }
            cfg.batch = static_cast<std::uint32_t>(*b);
            ++i;
        } else if (a == "--seed") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto s = parseSize(*v);
            if (!s) {
                error = "bad seed: " + *v;
                return std::nullopt;
            }
            cfg.seed = *s;
            ++i;
        } else if (a == "--jobs" || a == "-j") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto j = parseSize(*v);
            if (!j || *j > 256) {
                error = "bad jobs count: " + *v;
                return std::nullopt;
            }
            cfg.jobs = static_cast<std::uint32_t>(*j);
            ++i;
        } else if (const SpecFlag *sf = findSpecFlag(a)) {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            if (blankSpec(*v)) {
                error = "empty " + a.substr(2);
                return std::nullopt;
            }
            if (!sf->take(cfg, *v, error))
                return std::nullopt;
            sawPoolSpec = sawPoolSpec || a == "--pool-spec";
            ++i;
        } else if (a == "--watchdog") {
            if (cfg.watchdogUs == 0.0)
                cfg.watchdogUs = 100.0;
        } else if (a == "--watchdog-ns") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto n = parseSize(*v);
            if (!n || *n == 0) {
                error = "bad watchdog interval (ns): " + *v;
                return std::nullopt;
            }
            cfg.watchdogUs = static_cast<double>(*n) / 1000.0;
            ++i;
        } else if (a == "--trace-out") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            cfg.traceOut = *v;
            ++i;
        } else if (a == "--trace-sample") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            // "N" and "1/N" both mean: trace every Nth request.
            std::string n = *v;
            if (n.rfind("1/", 0) == 0)
                n = n.substr(2);
            auto s = parseSize(n);
            if (!s || *s == 0) {
                error = "bad trace sample rate (N or 1/N): " + *v;
                return std::nullopt;
            }
            cfg.traceSampleEvery = *s;
            ++i;
        } else if (a == "--metrics-out") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            cfg.metricsOut = *v;
            ++i;
        } else if (a == "--metrics-interval-ns") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto n = parseSize(*v);
            if (!n || *n == 0) {
                error = "bad metrics interval (ns): " + *v;
                return std::nullopt;
            }
            cfg.metricsIntervalNs = *n;
            ++i;
        } else if (a == "--histograms") {
            cfg.histograms = true;
        } else if (a == "--attrib") {
            cfg.attrib = true;
        } else if (a == "--tail-trace") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            auto k = parseSize(*v);
            if (!k || *k == 0 || *k > 1024) {
                error = "bad tail-trace depth (1..1024): " + *v;
                return std::nullopt;
            }
            cfg.tailK = static_cast<std::uint32_t>(*k);
            ++i;
        } else if (a == "--json") {
            cfg.diffJson = true;
            sawJson = true;
        } else if (a == "--diff-threshold") {
            auto v = need(i);
            if (!v)
                return std::nullopt;
            char *end = nullptr;
            const double t = std::strtod(v->c_str(), &end);
            if (v->empty() || end == nullptr || *end != '\0'
                || !(t >= 0.0) || t > 100.0) {
                error = "bad diff-threshold (percent, 0..100): " + *v;
                return std::nullopt;
            }
            cfg.diffThresholdPct = t;
            sawThreshold = true;
            ++i;
        } else if (a == "--prefetch") {
            cfg.prefetch = true;
        } else if (a == "--csv") {
            cfg.csv = true;
        } else if (a == "diff" && i == 0) {
            // `memo diff A.csv B.csv` -- the comparison verb reads
            // better up front than `--mode diff`.
            cfg.mode = CliMode::Diff;
        } else if (cfg.mode == CliMode::Diff && !a.empty()
                   && a[0] != '-') {
            if (cfg.diffA.empty()) {
                cfg.diffA = a;
            } else if (cfg.diffB.empty()) {
                cfg.diffB = a;
            } else {
                error = "diff takes exactly two files: " + a;
                return std::nullopt;
            }
        } else {
            error = "unknown argument: " + a;
            return std::nullopt;
        }
    }
    if (cfg.mode == CliMode::Chase && cfg.wssBytes.empty()) {
        error = "chase mode requires --wss";
        return std::nullopt;
    }
    // Pool mode carries every disturbance inside the pool spec: a
    // stray machine-level spec would silently apply to nothing.
    if (cfg.mode == CliMode::Pool
        && (cfg.faults.enabled() || cfg.qos.enabled()
            || cfg.chaos.enabled())) {
        error = "pool mode takes disturbances via --pool-spec only";
        return std::nullopt;
    }
    if (sawPoolSpec && cfg.mode != CliMode::Pool) {
        error = "--pool-spec requires --mode pool";
        return std::nullopt;
    }
    // Flag matrix, rejected up front with one line instead of a
    // mid-run throw. Diff mode compares finished runs -- it simulates
    // nothing, so every simulation flag is a mistake worth naming
    // rather than ignoring.
    if (cfg.mode == CliMode::Diff) {
        if (cfg.diffA.empty() || cfg.diffB.empty()) {
            error = "diff requires two CSV files "
                    "(memo diff A.csv B.csv)";
            return std::nullopt;
        }
        if (cfg.tailK > 0 || cfg.histograms || cfg.attrib
            || !cfg.traceOut.empty() || cfg.traceSampleEvery > 0
            || !cfg.metricsOut.empty() || cfg.metricsIntervalNs > 0
            || cfg.faults.enabled() || cfg.qos.enabled()
            || cfg.chaos.enabled() || cfg.watchdogUs > 0.0) {
            error = "diff mode compares finished runs and takes no "
                    "simulation flags";
            return std::nullopt;
        }
    } else {
        if (sawJson) {
            error = "--json requires diff mode";
            return std::nullopt;
        }
        if (sawThreshold) {
            error = "--diff-threshold requires diff mode";
            return std::nullopt;
        }
    }
    return cfg;
}

namespace
{

const char *
opName(MemOp::Kind k)
{
    switch (k) {
      case MemOp::Kind::Load:
        return "load";
      case MemOp::Kind::Store:
        return "store";
      case MemOp::Kind::NtStore:
        return "nt-store";
      default:
        return "?";
    }
}

/** One sweep-point result plus its machine's RAS/QoS counters and
 *  flight-recorder collections (indexed by sweep position, so output
 *  is identical for any --jobs value). */
struct PointResult
{
    double value = 0.0;
    LoadedLatencyDist dist;  //!< loaded mode with extra columns only
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

    switch (cfg.mode) {
      case CliMode::Help:
        std::fputs(cliUsage().c_str(), stdout);
        return 0;

      case CliMode::Latency: {
        std::vector<PointResult> pts(1);
        PointResult &p = pts[0];
        const Options o = hooked(p, 0, cfg.target);
        const LatencyResult r = runLatency(cfg.target, o, &p.ras);
        if (cfg.csv) {
            csvHeaderLine();
            std::printf("%s,%.1f,%.1f,%.1f,%.1f",
                        targetName(cfg.target), r.loadNs, r.storeWbNs,
                        r.ntStoreNs, r.ptrChaseNs);
            if (extras)
                printExtraCsvCells(p, attrib, tail);
            std::printf("\n");
        } else {
            std::printf("%s latency (ns): ld %.1f  st+wb %.1f  "
                        "nt-st %.1f  ptr-chase %.1f\n",
                        targetName(cfg.target), r.loadNs, r.storeWbNs,
                        r.ntStoreNs, r.ptrChaseNs);
            printExtraLines(p, ras, qos, hist, attrib, tail);
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Seq: {
        SweepRunner pool(cfg.jobs);
        const auto pts = pool.map(cfg.threads.size(),
                                  [&](std::size_t i) {
            PointResult p;
            const Options o = hooked(p, static_cast<int>(i),
                                     cfg.target);
            p.value = runSeqBandwidth(cfg.target, cfg.op,
                                      cfg.threads[i], o, &p.ras,
                                      &p.qos);
            return p;
        });
        if (cfg.csv)
            csvHeaderLine();
        for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
            const std::uint32_t t = cfg.threads[i];
            if (cfg.csv) {
                std::printf("%s,%s,%u,%.2f", targetName(cfg.target),
                            opName(cfg.op), t, pts[i].value);
                if (extras)
                    printExtraCsvCells(pts[i], attrib, tail);
                std::printf("\n");
            } else {
                std::printf("%s %s seq, %2u threads: %7.2f GB/s\n",
                            targetName(cfg.target), opName(cfg.op), t,
                            pts[i].value);
                printExtraLines(pts[i], ras, qos, hist, attrib, tail);
            }
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Rand: {
        struct Point
        {
            std::uint64_t block;
            std::uint32_t threads;
        };
        std::vector<Point> points;
        for (std::uint64_t b : cfg.blockBytes)
            for (std::uint32_t t : cfg.threads)
                points.push_back({b, t});
        SweepRunner pool(cfg.jobs);
        const auto pts = pool.map(points.size(), [&](std::size_t i) {
            PointResult p;
            const Options o = hooked(p, static_cast<int>(i),
                                     cfg.target);
            p.value = runRandBandwidth(cfg.target, cfg.op,
                                       points[i].threads,
                                       points[i].block, o, &p.ras,
                                       &p.qos);
            return p;
        });
        if (cfg.csv)
            csvHeaderLine();
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (cfg.csv) {
                std::printf("%s,%s,%llu,%u,%.2f",
                            targetName(cfg.target), opName(cfg.op),
                            (unsigned long long)points[i].block,
                            points[i].threads, pts[i].value);
                if (extras)
                    printExtraCsvCells(pts[i], attrib, tail);
                std::printf("\n");
            } else {
                std::printf("%s %s rand %6lluB blocks, %2u "
                            "threads: %7.2f GB/s\n",
                            targetName(cfg.target), opName(cfg.op),
                            (unsigned long long)points[i].block,
                            points[i].threads, pts[i].value);
                printExtraLines(pts[i], ras, qos, hist, attrib, tail);
            }
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Chase: {
        // One machine per WSS point (single-element sweeps) so the
        // decomposition -- and therefore the output -- is the same for
        // every job count.
        SweepRunner pool(cfg.jobs);
        const auto pts = pool.map(cfg.wssBytes.size(),
                                  [&](std::size_t i) {
            PointResult p;
            const Options o = hooked(p, static_cast<int>(i),
                                     cfg.target);
            p.value = runPtrChaseWssSweep(cfg.target, {cfg.wssBytes[i]},
                                          o, &p.ras)[0];
            return p;
        });
        if (cfg.csv)
            csvHeaderLine();
        for (std::size_t i = 0; i < cfg.wssBytes.size(); ++i) {
            if (cfg.csv) {
                std::printf("%s,%llu,%.1f", targetName(cfg.target),
                            (unsigned long long)cfg.wssBytes[i],
                            pts[i].value);
                if (extras)
                    printExtraCsvCells(pts[i], attrib, tail);
                std::printf("\n");
            } else {
                std::printf("%s chase wss %10llu B: %7.1f ns\n",
                            targetName(cfg.target),
                            (unsigned long long)cfg.wssBytes[i],
                            pts[i].value);
                printExtraLines(pts[i], ras, qos, hist, attrib, tail);
            }
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Copy: {
        std::vector<PointResult> pts(1);
        PointResult &p = pts[0];
        // The copy path touches several devices; merge them all into
        // the histogram (nullopt target).
        const Options o = hooked(p, 0, std::nullopt);
        p.value = runCopyBandwidth(cfg.path, cfg.method, cfg.batch,
                                   4 * kiB, o);
        if (cfg.csv) {
            csvHeaderLine();
            std::printf("%s,%s,%u,%.2f", copyPathName(cfg.path),
                        copyMethodName(cfg.method), cfg.batch,
                        p.value);
            if (extras)
                printExtraCsvCells(p, attrib, tail);
            std::printf("\n");
        } else {
            std::printf("%s via %s (batch %u): %.2f GB/s\n",
                        copyPathName(cfg.path),
                        copyMethodName(cfg.method), cfg.batch,
                        p.value);
            printExtraLines(p, ras, qos, hist, attrib, tail);
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Loaded: {
        SweepRunner pool(cfg.jobs);
        if (extras) {
            // With any extra column group active the interesting
            // signal is the *tail*: report the windowed distribution
            // instead of one long-run average.
            const auto pts = pool.map(cfg.threads.size(),
                                      [&](std::size_t i) {
                PointResult p;
                const Options o = hooked(p, static_cast<int>(i),
                                         cfg.target);
                p.dist = runLoadedLatencyDist(cfg.target,
                                              cfg.threads[i], o);
                p.ras = p.dist.ras;
                p.qos = p.dist.qos;
                return p;
            });
            if (cfg.csv)
                csvHeaderLine();
            for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
                const std::uint32_t t = cfg.threads[i];
                const LoadedLatencyDist &d = pts[i].dist;
                if (cfg.csv) {
                    std::printf("%s,%u,%.1f,%.1f,%.1f",
                                targetName(cfg.target), t, d.avgNs,
                                d.p50Ns, d.p99Ns);
                    printExtraCsvCells(pts[i], attrib, tail);
                    std::printf("\n");
                } else {
                    std::printf("%s loaded latency, %2u threads: "
                                "avg %7.1f  p50 %7.1f  p99 %7.1f ns\n",
                                targetName(cfg.target), t, d.avgNs,
                                d.p50Ns, d.p99Ns);
                    printExtraLines(pts[i], ras, qos, hist, attrib, tail);
                }
            }
            return finishRun(cfg, pts);
        }
        const auto pts = pool.map(cfg.threads.size(),
                                  [&](std::size_t i) {
            PointResult p;
            const Options o = hooked(p, static_cast<int>(i),
                                     cfg.target);
            p.value = runLoadedLatency(cfg.target, cfg.threads[i], o,
                                       nullptr, &p.qos);
            return p;
        });
        if (cfg.csv)
            csvHeaderLine();
        for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
            const std::uint32_t t = cfg.threads[i];
            if (cfg.csv)
                std::printf("%s,%u,%.1f\n", targetName(cfg.target), t,
                            pts[i].value);
            else
                std::printf("%s loaded latency, %2u threads: %7.1f "
                            "ns\n",
                            targetName(cfg.target), t, pts[i].value);
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Report: {
        // Sequential-bandwidth sweep (the Fig. 3 shape) with
        // attribution forced on: each point prints its bandwidth, the
        // full per-station breakdown table and a bottleneck verdict.
        SweepRunner pool(cfg.jobs);
        const auto pts = pool.map(cfg.threads.size(),
                                  [&](std::size_t i) {
            PointResult p;
            const Options o = hooked(p, static_cast<int>(i),
                                     cfg.target);
            p.value = runSeqBandwidth(cfg.target, cfg.op,
                                      cfg.threads[i], o, &p.ras,
                                      &p.qos);
            return p;
        });
        if (cfg.csv)
            csvHeaderLine();
        for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
            const std::uint32_t t = cfg.threads[i];
            if (cfg.csv) {
                std::printf("%s,%s,%u,%.2f", targetName(cfg.target),
                            opName(cfg.op), t, pts[i].value);
                printExtraCsvCells(pts[i], attrib, tail);
                std::printf("\n");
            } else {
                std::printf("%s %s seq, %2u threads: %7.2f GB/s\n",
                            targetName(cfg.target), opName(cfg.op), t,
                            pts[i].value);
                printExtraLines(pts[i], ras, qos, hist, false, tail);
                std::fputs(pts[i].attrib.table().c_str(), stdout);
            }
        }
        return finishRun(cfg, pts);
      }

      case CliMode::Drill: {
        // One drill per thread-count point; each point is its own
        // Machine, so SweepRunner keeps --jobs output-independent.
        struct DrillPoint
        {
            PointResult p;
            DrillResult d;
        };
        SweepRunner pool(cfg.jobs);
        const auto pts = pool.map(cfg.threads.size(),
                                  [&](std::size_t i) {
            DrillPoint dp;
            const Options o = hooked(dp.p, static_cast<int>(i),
                                     Target::Cxl);
            dp.d = runDrill(cfg.threads[i], o);
            dp.p.ras = dp.d.ras;
            return dp;
        });
        if (cfg.csv)
            csvHeaderLine();
        std::vector<PointResult> outs;
        outs.reserve(pts.size());
        for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
            const DrillResult &d = pts[i].d;
            const ChaosStats &c = d.chaos;
            if (cfg.csv) {
                std::printf("%u,%.2f,%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,"
                            "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d",
                            cfg.threads[i], d.healthyGBps,
                            d.degradedGBps, d.recoveredGBps,
                            d.linkDetectNs, d.linkMttrNs,
                            d.removeDetectNs, d.removeMttrNs,
                            (unsigned long long)c.dataAtRiskBytes,
                            (unsigned long long)d.evacuatedBytes,
                            (unsigned long long)c.pagesOfflined,
                            (unsigned long long)c.offlinedBytes,
                            (unsigned long long)c.migratedBytes,
                            (unsigned long long)c.abortedReads,
                            (unsigned long long)c.abortedWrites,
                            d.invariantOk ? 1 : 0);
                printExtraCsvCells(pts[i].p, attrib, tail);
                std::printf("\n");
            } else {
                std::printf("CXL drill, %2u threads:\n",
                            cfg.threads[i]);
                std::printf("  throughput: healthy %.2f -> degraded "
                            "%.2f -> recovered %.2f GB/s\n",
                            d.healthyGBps, d.degradedGBps,
                            d.recoveredGBps);
                if (c.linkDowns > 0) {
                    std::printf("  link: detected down in %.1f ns, "
                                "full width back after %.1f ns "
                                "(%llu retrain%s, %llu step-up%s)\n",
                                d.linkDetectNs, d.linkMttrNs,
                                (unsigned long long)c.retrains,
                                c.retrains == 1 ? "" : "s",
                                (unsigned long long)c.widthStepUps,
                                c.widthStepUps == 1 ? "" : "s");
                }
                if (c.removals > 0) {
                    std::printf("  device: removal detected in %.1f "
                                "ns, re-added after %.1f ns; aborted "
                                "%llu reads / %llu writes (%llu B)\n",
                                d.removeDetectNs, d.removeMttrNs,
                                (unsigned long long)c.abortedReads,
                                (unsigned long long)c.abortedWrites,
                                (unsigned long long)c.abortedBytes);
                    std::printf("  containment: %llu B at risk, "
                                "%llu B evacuated via DSA\n",
                                (unsigned long long)c.dataAtRiskBytes,
                                (unsigned long long)d.evacuatedBytes);
                }
                if (c.pagesOfflined > 0 || c.poisonEvents > 0) {
                    std::printf("  pages: %llu offlined (%llu B), "
                                "%llu B migrated (%llu poison "
                                "events)\n",
                                (unsigned long long)c.pagesOfflined,
                                (unsigned long long)c.offlinedBytes,
                                (unsigned long long)c.migratedBytes,
                                (unsigned long long)c.poisonEvents);
                }
                std::printf("  poison invariant: %s%s\n",
                            d.invariantOk ? "OK" : "VIOLATED",
                            d.watchdogTripped
                                ? " (watchdog tripped)" : "");
                printExtraLines(pts[i].p, ras, qos, hist, attrib, tail);
            }
            outs.push_back(pts[i].p);
        }
        return finishRun(cfg, outs);
      }

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
