/**
 * @file
 * cxlbench: runs one benchmark workload through cxlmemo's
 * public entry points and prints its raw measurements as one JSON
 * object on stdout. run.py builds this binary, checks its output and
 * turns it into the benchmark's metrics.
 *
 *   cxlbench --workload bw_sweep|latency_chase|pool_fabric
 *                   --seed N --seconds S --trace 0|1 [--spans FILE]
 *
 * A run alternates set-up repetitions (each point's simulated system
 * built through its public constructors, then dropped) with timed
 * passes (each point run once through its memo:: entry point) until
 * --seconds have passed and at least three of each are done. With
 * --trace 1 every pass runs each point twice, dark then traced, so
 * the cost of the benchmark's own spans shows, and small probes then
 * time single layers (cache tags, event queue, DRAM channel, CXL
 * device, observability) on the workload's access shape.
 *
 * Only public functions are bound: memo::run*, memo::makeMachine, the
 * Machine and Cluster constructors, NumaSpace::alloc, the stream
 * constructors, EventQueue::schedule/run, DramChannel::access,
 * CxlMemDevice::access, SetAssocCache::find/insert and stats getters.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cpu/streams.hh"
#include "cxl/device.hh"
#include "mem/dram.hh"
#include "memo/memo.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "system/cluster.hh"
#include "system/machine.hh"

using namespace cxlmemo;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/* ------------------------------ JSON ------------------------------ */

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

/* ------------------------------ spans ----------------------------- */

/** Spans recorded around the benchmark's calls into each layer; kept
 *  in memory and written as a Chrome trace when the run ends. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }

    void
    open(std::string name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), now(), 0.0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void
    close()
    {
        spans_[stack_.back()].end = now();
        stack_.pop_back();
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fputs("{\"traceEvents\":[", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                         "\"parent\":%d}}",
                         i ? "," : "", quote(s.name).c_str(), s.start,
                         s.end - s.start, i, s.parent);
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        double start; //!< us since the program started
        double end;
        int parent;   //!< index of the enclosing span, -1 at the root
    };

    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - t0_)
            .count();
    }

    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** One span for the lifetime of a scope (no-op when tracing is off). */
class Scope
{
  public:
    Scope(Tracer &tr, std::string name, bool on = true)
        : tr_(on && tr.on() ? &tr : nullptr)
    {
        if (tr_)
            tr_->open(std::move(name));
    }
    ~Scope()
    {
        if (tr_)
            tr_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr_;
};

/* ------------------------- work counters -------------------------- */

/** Deterministic work counters read from public stats getters. */
struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t accesses = 0; //!< L1 lookups, or completed pool ops
    std::uint64_t l1Lookups = 0;
    std::uint64_t l2Lookups = 0;
    std::uint64_t llcLookups = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t cxlReads = 0;
    std::uint64_t cxlWrites = 0;
    std::uint64_t cxlBytesDown = 0;
    std::uint64_t cxlBytesUp = 0;
    std::uint64_t readStallTicks = 0;
    std::uint64_t writeStallTicks = 0;
    std::uint64_t wbufHighWater = 0;
    std::uint64_t swOps = 0;
    std::uint64_t swCreditStalls = 0;
    std::uint64_t fabricEvents = 0;

    bool operator==(const Counts &) const = default;
};

constexpr std::pair<const char *, std::uint64_t Counts::*> countFields[] = {
    {"events", &Counts::events},
    {"accesses", &Counts::accesses},
    {"l1_lookups", &Counts::l1Lookups},
    {"l2_lookups", &Counts::l2Lookups},
    {"llc_lookups", &Counts::llcLookups},
    {"llc_hits", &Counts::llcHits},
    {"evictions", &Counts::evictions},
    {"dram_reads", &Counts::dramReads},
    {"dram_writes", &Counts::dramWrites},
    {"row_hits", &Counts::rowHits},
    {"row_misses", &Counts::rowMisses},
    {"cxl_reads", &Counts::cxlReads},
    {"cxl_writes", &Counts::cxlWrites},
    {"cxl_bytes_down", &Counts::cxlBytesDown},
    {"cxl_bytes_up", &Counts::cxlBytesUp},
    {"read_stall_ticks", &Counts::readStallTicks},
    {"write_stall_ticks", &Counts::writeStallTicks},
    {"wbuf_high_water", &Counts::wbufHighWater},
    {"sw_ops", &Counts::swOps},
    {"sw_credit_stalls", &Counts::swCreditStalls},
    {"fabric_events", &Counts::fabricEvents},
};

std::string
countsJson(const Counts &c)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, field] : countFields) {
        out += (first ? "" : ",") + quote(name) + ":"
               + std::to_string(c.*field);
        first = false;
    }
    return out + "}";
}

void
addCacheStats(const CacheStats &s, std::uint64_t &lookups, Counts &c)
{
    lookups += s.hits + s.misses;
    c.evictions += s.evictions;
}

/** Fold a finished Machine's counters into @p c. */
void
addMachine(Machine &m, Counts &c)
{
    c.events += m.eq().eventsExecuted();
    const CacheHierarchy &h = m.caches();
    for (std::uint32_t core = 0; core < m.numCores(); ++core) {
        const auto id = static_cast<std::uint16_t>(core);
        addCacheStats(h.l1Stats(id), c.l1Lookups, c);
        addCacheStats(h.l2Stats(id), c.l2Lookups, c);
    }
    addCacheStats(h.llcStats(), c.llcLookups, c);
    c.llcHits += h.llcStats().hits;
    c.accesses = c.l1Lookups;

    DeviceStats dram = m.localMem().stats();
    if (m.hasRemote())
        dram.merge(m.remoteMem().stats());
    c.dramReads += dram.reads;
    c.dramWrites += dram.writes;
    c.rowHits += dram.rowHits;
    c.rowMisses += dram.rowMisses;

    if (m.hasCxl()) {
        CxlMemDevice &dev = m.cxlDev();
        const DeviceStats back = dev.backendStats();
        const CxlControllerStats &ctrl = dev.controllerStats();
        c.cxlReads += back.reads;
        c.cxlWrites += back.writes;
        c.cxlBytesDown += dev.bytesDown();
        c.cxlBytesUp += dev.bytesUp();
        c.readStallTicks += ctrl.readStallTicks;
        c.writeStallTicks += ctrl.writeStallTicks;
        c.wbufHighWater =
            std::max<std::uint64_t>(c.wbufHighWater,
                                    ctrl.writeBufferHighWater);
    }
}

/** Fold a finished Cluster's counters into @p c. The pooled devices
 *  are private to Cluster, so the CXL read/write counts are the ones
 *  the switch forwarded to them. */
void
addCluster(Cluster &cl, const ClusterResult &r, Counts &c)
{
    const std::uint64_t events = cl.fabricQueue().eventsExecuted();
    c.events += events;
    c.fabricEvents += events;
    CxlSwitch &sw = cl.fabric();
    for (std::uint32_t p = 0; p < sw.numPorts(); ++p) {
        const SwitchPortStats &s = sw.portStats(p);
        c.swOps += s.reqs;
        c.swCreditStalls += s.creditStalls;
        c.cxlReads += s.reads;
        c.cxlWrites += s.writes;
    }
    for (const HostReport &h : r.hosts)
        c.accesses += h.digest.ops;
}

/* ---------------------------- results ----------------------------- */

/** FNV-1a over the simulated results a point produces. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** What one run of a point produced. */
struct Outcome
{
    std::vector<std::pair<std::string, double>> values;
    std::vector<std::string> violations; //!< broken invariants
    std::uint64_t digest = 0;
    Counts counts;
};

/** Digest the named values and flag any that is not finite and > 0. */
void
sealValues(Outcome &o)
{
    Digest d;
    for (const auto &[name, v] : o.values) {
        d.str(name);
        d.f64(v);
        if (!std::isfinite(v) || v <= 0.0)
            o.violations.push_back(name + " not positive");
    }
    o.digest = d.value();
}

/* ----------------------------- set-up ----------------------------- */

/** Times the construction steps of one set-up repetition, per layer. */
class SetupTimer
{
  public:
    SetupTimer(Tracer &tr, bool traced) : tr_(tr), traced_(traced) {}

    /** Layer-split extras (the standalone cache build) run only in
     *  the traced run. */
    bool traced() const { return traced_; }

    /** Time @p f as set-up work of @p layer; @return its result. */
    template <typename F>
    auto
    time(const char *layer, F &&f)
    {
        Scope s(tr_, layer);
        const auto t0 = Clock::now();
        auto r = f();
        parts_[layer] += secondsSince(t0);
        return r;
    }

    void addPages(std::uint64_t bytes) { pages_ += bytes / pageBytes; }

    /** Seconds of set-up proper: every layer but the standalone cache
     *  build, which the Machine constructor already contains. */
    double
    total() const
    {
        double t = 0.0;
        for (const auto &[layer, s] : parts_)
            if (layer != "cache.build")
                t += s;
        return t;
    }

    const std::map<std::string, double> &parts() const { return parts_; }
    std::uint64_t pages() const { return pages_; }

  private:
    Tracer &tr_;
    bool traced_;
    std::map<std::string, double> parts_;
    std::uint64_t pages_ = 0;
};

/* ---------------------------- workloads --------------------------- */

/** Per-thread region of memo's bandwidth streams (memo/bandwidth.cc). */
constexpr std::uint64_t regionBytes = 128 * miB;
constexpr std::uint64_t endlessBytes = std::uint64_t(1) << 42;
/** Pointer-chase space of memo's latency probes (memo/latency.cc). */
constexpr std::uint64_t latencyChaseBytes = 512 * miB;

/** Chase length memo uses for a working set (memo/latency.cc). */
std::uint64_t
chaseAccesses(std::uint64_t wss)
{
    return std::clamp<std::uint64_t>(wss / cachelineBytes * 2, 20'000,
                                     150'000);
}

const char *
targetSlug(memo::Target t)
{
    switch (t) {
      case memo::Target::Ddr5Local:
        return "ddr5-l8";
      case memo::Target::Ddr5Remote:
        return "ddr5-r1";
      case memo::Target::Cxl:
        return "cxl";
    }
    return "?";
}

struct Point
{
    std::string name;
    /** The timed call through the point's memo:: entry point. */
    std::function<Outcome()> run;
    /** Build what run() builds, through public constructors, without
     *  running an event. When @p census is non-null, also run the
     *  built system once and fill the work counters run() cannot
     *  reach. */
    std::function<void(SetupTimer &, Counts *census)> setup;
};

/** The access shape a workload hands to the single-layer probes. */
enum class Shape
{
    Stream, //!< sequential lines, reads beside nt-writes
    Chase,  //!< random lines, dependent reads
    Pool,   //!< random lines, 80% reads / 20% nt-writes
};

struct Workload
{
    std::vector<Point> points;
    Shape shape = Shape::Stream;
};

/** Options with a hook folding the finished machine into @p c. */
memo::Options
countingOptions(const memo::Options &base, Counts &c)
{
    memo::Options o = base;
    o.onMachineDone = [&c](Machine &m) { addMachine(m, c); };
    return o;
}

std::unique_ptr<Machine>
buildMachine(SetupTimer &st, memo::Target target, const memo::Options &o,
             bool prefetch)
{
    auto m = st.time("system.build", [&] {
        return memo::makeMachine(target, o, prefetch);
    });
    if (st.traced()) {
        EventQueue eq;
        st.time("cache.build", [&] {
            return std::make_unique<CacheHierarchy>(eq, m->numa(),
                                                    m->caches().params());
        });
    }
    return m;
}

NumaBuffer
allocOn(SetupTimer &st, Machine &m, memo::Target target,
        std::uint64_t bytes)
{
    const MemPolicy policy =
        MemPolicy::membind(memo::targetNode(m, target));
    NumaBuffer buf = st.time("numa.alloc", [&] {
        return m.numa().alloc(bytes, policy);
    });
    st.addPages(bytes);
    return buf;
}

Point
bandwidthPoint(const memo::Options &opts, memo::Target target,
               MemOp::Kind kind, std::uint32_t threads,
               std::uint64_t block)
{
    const bool nt = kind == MemOp::Kind::NtStore;
    std::string name = std::string(block ? "rand_" : "seq_")
                       + (nt ? "nt_" : "load_") + targetSlug(target)
                       + "_t" + std::to_string(threads);
    if (block)
        name += "_b" + std::to_string(block / kiB) + "k";

    Point p;
    p.name = name;
    p.run = [=] {
        Outcome o;
        const memo::Options ro = countingOptions(opts, o.counts);
        const double gbps =
            block ? memo::runRandBandwidth(target, kind, threads, block, ro)
                  : memo::runSeqBandwidth(target, kind, threads, ro);
        o.values = {{"gbps", gbps}};
        sealValues(o);
        return o;
    };
    p.setup = [=](SetupTimer &st, Counts *) {
        auto m = buildMachine(st, target, opts, opts.prefetch);
        NumaBuffer buf = allocOn(st, *m, target, threads * regionBytes);
        st.time("cpu.stream_build", [&] {
            std::vector<std::unique_ptr<AccessStream>> v;
            for (std::uint32_t t = 0; t < threads; ++t) {
                const std::uint64_t off = t * regionBytes;
                if (block) {
                    v.push_back(std::make_unique<RandomBlockStream>(
                        buf, off, regionBytes, endlessBytes, block, kind,
                        nt, opts.seed + 1000 + t));
                } else {
                    v.push_back(std::make_unique<SequentialStream>(
                        buf, off, regionBytes, endlessBytes, kind));
                }
            }
            return v;
        });
    };
    return p;
}

Point
latencyPoint(const memo::Options &opts, memo::Target target)
{
    Point p;
    p.name = std::string("lat_") + targetSlug(target);
    p.run = [=] {
        Outcome o;
        const memo::LatencyResult r =
            memo::runLatency(target, countingOptions(opts, o.counts));
        o.values = {{"load_ns", r.loadNs},
                    {"store_wb_ns", r.storeWbNs},
                    {"nt_store_ns", r.ntStoreNs},
                    {"ptr_chase_ns", r.ptrChaseNs}};
        sealValues(o);
        return o;
    };
    p.setup = [=](SetupTimer &st, Counts *) {
        auto m = buildMachine(st, target, opts, false);
        NumaBuffer buf = allocOn(st, *m, target, latencyChaseBytes);
        st.time("cpu.stream_build", [&] {
            return std::make_unique<PointerChaseStream>(
                buf, latencyChaseBytes, chaseAccesses(latencyChaseBytes),
                false, opts.seed);
        });
    };
    return p;
}

Point
chasePoint(const memo::Options &opts, memo::Target target,
           std::uint64_t wss)
{
    Point p;
    p.name = std::string("chase_") + targetSlug(target) + "_"
             + std::to_string(wss / kiB) + "k";
    p.run = [=] {
        Outcome o;
        const std::vector<double> ns = memo::runPtrChaseWssSweep(
            target, {wss}, countingOptions(opts, o.counts));
        o.values = {{"ns", ns.at(0)}};
        sealValues(o);
        return o;
    };
    p.setup = [=](SetupTimer &st, Counts *) {
        auto m = buildMachine(st, target, opts, false);
        NumaBuffer buf = allocOn(st, *m, target, wss);
        st.time("cpu.stream_build", [&] {
            std::vector<std::unique_ptr<AccessStream>> v;
            v.push_back(std::make_unique<SequentialStream>(
                buf, 0, wss, wss, MemOp::Kind::Load));
            v.push_back(std::make_unique<PointerChaseStream>(
                buf, wss, chaseAccesses(wss), false, opts.seed));
            return v;
        });
    };
    return p;
}

/** The pool scenario: 16 hosts on 4 devices with credits, and three
 *  disturbances at once (nt-store aggressor, crash, poison stream). */
PoolSpec
poolSpec(std::uint64_t seed, std::uint64_t ops)
{
    PoolSpec s;
    s.hosts = 16;
    s.devices = 4;
    s.credits = 16;
    s.ops = ops;
    s.aggressor = 15;
    s.crashHost = 1;
    s.crashAtNs = 40000.0;
    s.poisonHost = 2;
    s.poisonEvery = 97;
    s.seed = seed;
    return s;
}

/** Fabric attribution, histograms and worst-K capture, all armed. */
ObservabilityOptions
armedObs()
{
    ObservabilityOptions obs;
    obs.attribution = true;
    obs.latencyHistograms = true;
    obs.tailK = 8;
    return obs;
}

void
sealPool(const memo::PoolResult &r, Outcome &o)
{
    const ClusterResult &c = r.cluster;
    Digest d;
    double gbps = 0.0;
    for (const HostReport &h : c.hosts) {
        const HostDigest &g = h.digest;
        for (const std::uint64_t v :
             {std::uint64_t(h.host), g.ops, g.reads, g.writes, g.bytes,
              g.poisoned, g.aborted, g.valueHash, g.ledgerHash,
              h.grantedBytes, std::uint64_t(h.fenced), h.tail.held})
            d.u64(v);
        d.str(h.role);
        for (const double v : {h.durationNs, h.gbps, h.readAvgNs,
                               h.readP99Ns, h.tail.worstNs, h.tail.kthNs})
            d.f64(v);
        gbps += h.gbps;
        if (!h.tail.stackExact)
            o.violations.push_back("tail stack inexact on host "
                                   + std::to_string(h.host));
    }
    d.f64(c.timeToFenceNs);
    d.u64(c.quarantinedBytes);
    d.u64(c.recoveredBytes);
    d.u64(c.endTick);
    d.str(c.verdict);
    o.digest = d.value();

    const HostReport &victim =
        c.hosts.at(static_cast<std::size_t>(std::max(r.victim, 0)));
    o.values = {{"victim_read_avg_ns", victim.readAvgNs},
                {"victim_read_p99_ns", victim.readP99Ns},
                {"time_to_fence_ns", c.timeToFenceNs},
                {"aggregate_gbps", gbps}};
    if (!c.ledgerOk)
        o.violations.push_back("pool ledger broken");
    if (!r.isolationOk)
        o.violations.push_back("victim isolation broken");
    if (c.watchdogTripped)
        o.violations.push_back("watchdog tripped: " + c.watchdogReport);
    if (!c.fabric.enabled() || !c.fabric.decompositionExact())
        o.violations.push_back("fabric decomposition inexact");
    if (!c.fabric.littleOk())
        o.violations.push_back("Little's law off");
    for (const auto &[name, v] : o.values)
        if (!std::isfinite(v) || v <= 0.0)
            o.violations.push_back(name + " not positive");
}

Point
poolPoint(const memo::Options &opts, const PoolSpec &spec)
{
    Point p;
    p.name = "pool_h" + std::to_string(spec.hosts) + "_d"
             + std::to_string(spec.devices);
    p.run = [=] {
        Outcome o;
        sealPool(memo::runPool(spec, opts, 1), o);
        return o;
    };
    p.setup = [=](SetupTimer &st, Counts *census) {
        // The two clusters runPool builds: the disturbed run (armed)
        // and the victim-only baseline (dark).
        Cluster::Options po;
        po.watchdogUs = opts.watchdogUs;
        po.obs = opts.obs;
        Cluster::Options bo;
        bo.watchdogUs = opts.watchdogUs;
        bo.soloHost = spec.victimHost();
        auto full = st.time("interconnect.cluster_build", [&] {
            return std::make_unique<Cluster>(spec, po);
        });
        auto solo = st.time("interconnect.cluster_build", [&] {
            return std::make_unique<Cluster>(spec.isolationBaseline(), bo);
        });
        if (census) {
            addCluster(*full, full->run(), *census);
            addCluster(*solo, solo->run(), *census);
        }
    };
    return p;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    using memo::Target;
    memo::Options opts;
    opts.seed = seed;
    Workload w;
    if (name == "bw_sweep") {
        // Figs. 3 and 5: sequential load / nt-store on local DDR5 and
        // CXL across thread counts, random blocks on CXL.
        w.shape = Shape::Stream;
        for (const Target t : {Target::Ddr5Local, Target::Cxl})
            for (const MemOp::Kind k :
                 {MemOp::Kind::Load, MemOp::Kind::NtStore})
                for (const std::uint32_t n : {1u, 2u, 4u, 8u, 16u, 32u})
                    w.points.push_back(bandwidthPoint(opts, t, k, n, 0));
        for (const MemOp::Kind k : {MemOp::Kind::Load, MemOp::Kind::NtStore})
            for (const std::uint64_t b : {4 * kiB, 32 * kiB})
                for (const std::uint32_t n : {2u, 8u})
                    w.points.push_back(
                        bandwidthPoint(opts, Target::Cxl, k, n, b));
    } else if (name == "latency_chase") {
        // Fig. 2: instruction latency probes on all three targets,
        // then the pointer-chase working-set sweep 4K..64M.
        w.shape = Shape::Chase;
        for (const Target t :
             {Target::Ddr5Local, Target::Ddr5Remote, Target::Cxl})
            w.points.push_back(latencyPoint(opts, t));
        for (const Target t : {Target::Ddr5Local, Target::Cxl})
            for (std::uint64_t wss = 4 * kiB; wss <= 64 * miB; wss *= 4)
                w.points.push_back(chasePoint(opts, t, wss));
    } else if (name == "pool_fabric") {
        w.shape = Shape::Pool;
        opts.obs = armedObs();
        opts.watchdogUs = 20.0;
        w.points.push_back(poolPoint(opts, poolSpec(seed, 60000)));
    }
    return w;
}

/* ----------------------- single-layer probes ---------------------- */

/** Median over @p reps of host ns per op of @p body (returns ops). */
template <typename F>
double
nsPerOp(int reps, F &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const std::uint64_t ops = body();
        ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(ops));
    }
    return median(ns);
}

/** Line addresses in the workload's order: a sequential stream
 *  twice the LLC, or a shuffled 64 MiB chase set. */
std::vector<std::uint64_t>
linePattern(Shape shape, std::uint64_t seed)
{
    std::vector<std::uint64_t> lines;
    if (shape == Shape::Stream) {
        const std::uint64_t n = 128 * miB / cachelineBytes;
        for (std::uint64_t i = 0; i < n; ++i)
            lines.push_back((std::uint64_t(1) << 24) + i);
        return lines;
    }
    const std::uint64_t n = 64 * miB / cachelineBytes;
    for (std::uint64_t i = 0; i < n; ++i)
        lines.push_back(i);
    Rng rng(seed);
    for (std::uint64_t i = n - 1; i > 0; --i)
        std::swap(lines[i], lines[rng.below(i)]);
    return lines;
}

/** LLC tag probe: find() as a hit test, insert() on a miss, at the
 *  testbed's LLC geometry. */
double
llcProbeNs(const std::vector<std::uint64_t> &lines)
{
    SetAssocCache llc(testbed_params::sprHierarchy(32).llc);
    const auto sweep = [&] {
        for (const std::uint64_t l : lines)
            if (llc.find(l) == nullptr)
                llc.insert(l, LineState::Exclusive, 0);
        return static_cast<std::uint64_t>(lines.size());
    };
    sweep(); // reach the steady state first
    return nsPerOp(5, sweep);
}

/** Event engine: 32 self-rescheduling chains with a near-horizon
 *  delay mix (core, cache, DRAM and link latencies). */
double
eventNs(std::uint64_t seed)
{
    struct Chain
    {
        EventQueue *eq;
        Rng *rng;
        std::uint64_t *left;

        void
        operator()() const
        {
            static constexpr Tick delays[] = {
                ticksFromNs(0.5), ticksFromNs(2.5),  ticksFromNs(8.0),
                ticksFromNs(12.0), ticksFromNs(22.0), ticksFromNs(40.0),
                ticksFromNs(90.0), ticksFromNs(300.0)};
            if (*left == 0)
                return;
            --*left;
            eq->schedule(eq->curTick() + delays[rng->below(8)], *this);
        }
    };
    constexpr std::uint64_t events = 2'000'000;
    return nsPerOp(5, [&] {
        EventQueue eq;
        Rng rng(seed);
        std::uint64_t left = events;
        for (Tick k = 0; k < 32; ++k)
            eq.schedule(k, Chain{&eq, &rng, &left});
        eq.run();
        return eq.eventsExecuted();
    });
}

/**
 * Closed loop of @p mlp requests against @p dev: each completion
 * issues the next request, addressed and typed by the workload shape.
 * @return host ns per completed access.
 */
double
deviceAccessNs(const std::function<std::unique_ptr<MemoryDevice>(
                   EventQueue &)> &build,
               Shape shape, std::uint32_t mlp, std::uint64_t total,
               std::uint64_t seed)
{
    struct Loop
    {
        MemoryDevice &dev;
        Shape shape;
        Rng rng;
        std::uint64_t total;
        std::uint64_t issued = 0;
        std::uint64_t done = 0;

        void
        issue()
        {
            MemRequest req;
            const std::uint64_t i = issued++;
            if (shape == Shape::Stream) {
                req.addr = i * cachelineBytes;
                req.cmd = i % 2 ? MemCmd::NtWrite : MemCmd::Read;
            } else {
                req.addr = rng.below(giB / cachelineBytes) * cachelineBytes;
                req.cmd = shape == Shape::Pool && rng.below(5) == 0
                              ? MemCmd::NtWrite
                              : MemCmd::Read;
            }
            req.onComplete = [this](Tick) {
                ++done;
                if (issued < total)
                    issue();
            };
            dev.access(std::move(req));
        }
    };
    return nsPerOp(3, [&] {
        EventQueue eq;
        const std::unique_ptr<MemoryDevice> dev = build(eq);
        Loop loop{*dev, shape, Rng(seed), total};
        for (std::uint32_t k = 0; k < mlp && loop.issued < total; ++k)
            loop.issue();
        eq.run();
        return loop.done;
    });
}

struct ArmedCost
{
    double overheadPct = 0.0;
    bool exact = true;
    bool little = true;
};

/** Interleaved dark-vs-armed repetitions of @p run (taking the obs
 *  options and reporting the exactness bits); median ratio. */
ArmedCost
armedOverhead(const std::function<void(const ObservabilityOptions &,
                                       ArmedCost &)> &run)
{
    ArmedCost cost;
    std::vector<double> dark;
    std::vector<double> armed;
    for (int r = 0; r < 3; ++r) {
        auto t0 = Clock::now();
        ArmedCost scratch;
        run(ObservabilityOptions{}, scratch);
        dark.push_back(secondsSince(t0));
        t0 = Clock::now();
        run(armedObs(), cost);
        armed.push_back(secondsSince(t0));
    }
    cost.overheadPct = (median(armed) / median(dark) - 1.0) * 100.0;
    return cost;
}

/** Per-layer host-time figures of the traced run. */
std::vector<std::pair<std::string, double>>
layerProbes(const std::string &workload, Shape shape, std::uint64_t seed,
             Tracer &tr)
{
    std::vector<std::pair<std::string, double>> out;
    {
        Scope s(tr, "cache.llc_probe");
        out.emplace_back("cache.llc_probe_ns",
                         llcProbeNs(linePattern(shape, seed)));
    }
    {
        Scope s(tr, "sim.event");
        out.emplace_back("sim.event_ns", eventNs(seed));
    }
    {
        Scope s(tr, "mem.access");
        out.emplace_back(
            "mem.access_ns",
            deviceAccessNs(
                [](EventQueue &eq) {
                    return std::make_unique<DramChannel>(
                        eq, testbed_params::localDdr5Channel());
                },
                shape, 16, 200'000, seed));
    }
    {
        Scope s(tr, "cxl.access");
        out.emplace_back(
            "cxl.access_ns",
            deviceAccessNs(
                [](EventQueue &eq) {
                    return std::make_unique<CxlMemDevice>(
                        eq, testbed_params::agilexCxlDevice());
                },
                shape, 32, 100'000, seed));
    }

    Scope s(tr, "obs.armed");
    double machinePct = 0.0;
    double poolPct = 0.0;
    ArmedCost cost;
    if (workload == "pool_fabric") {
        cost = armedOverhead([&](const ObservabilityOptions &obs,
                                 ArmedCost &c) {
            memo::Options o;
            o.obs = obs;
            const memo::PoolResult r =
                memo::runPool(poolSpec(seed, 15000), o, 1);
            if (obs.enabled()) {
                c.exact = c.exact && r.cluster.fabric.decompositionExact();
                c.little = c.little && r.cluster.fabric.littleOk();
            }
        });
        poolPct = cost.overheadPct;
    } else {
        cost = armedOverhead([&](const ObservabilityOptions &obs,
                                 ArmedCost &c) {
            memo::Options o;
            o.seed = seed;
            o.obs = obs;
            o.onMachineDone = [&c](Machine &m) {
                if (m.attribution() == nullptr)
                    return;
                const AttribSnapshot snap = m.attribSnapshot();
                c.exact = c.exact && snap.decompositionExact();
                c.little = c.little && snap.littleOk();
            };
            if (workload == "bw_sweep")
                memo::runSeqBandwidth(memo::Target::Cxl,
                                      MemOp::Kind::Load, 8, o);
            else
                memo::runPtrChaseWssSweep(memo::Target::Cxl, {miB}, o);
        });
        machinePct = cost.overheadPct;
    }
    out.emplace_back("obs.machine_armed_overhead_pct", machinePct);
    out.emplace_back("obs.pool_armed_overhead_pct", poolPct);
    out.emplace_back("obs.decomp_exact", cost.exact ? 1.0 : 0.0);
    out.emplace_back("obs.little_ok", cost.little ? 1.0 : 0.0);
    return out;
}

/* ------------------------------- main ----------------------------- */

/** Everything recorded about one point over the run. */
struct PointRecord
{
    std::vector<double> times;       //!< dark runs, seconds
    std::vector<double> tracedTimes; //!< traced runs, seconds
    std::vector<double> setupTimes;  //!< one per set-up repetition
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool seen = false;
    std::uint64_t digest = 0;
    Counts counts;
    bool census = false; //!< counts came from a set-up census run
    std::vector<std::pair<std::string, double>> values;
    std::vector<std::string> errors;
};

void
runPoint(const Point &p, PointRecord &rec, Tracer &tr, bool traced)
{
    ++rec.attempted;
    Outcome o;
    double dt = 0.0;
    try {
        Scope s(tr, "memo." + p.name, traced);
        const auto t0 = Clock::now();
        o = p.run();
        dt = secondsSince(t0);
    } catch (const std::exception &e) {
        ++rec.failed;
        rec.errors.push_back(std::string("threw: ") + e.what());
        return;
    }
    (traced ? rec.tracedTimes : rec.times).push_back(dt);
    if (!rec.seen) {
        rec.seen = true;
        rec.digest = o.digest;
        rec.values = o.values;
        if (!rec.census)
            rec.counts = o.counts;
    } else if (o.digest != rec.digest
               || (!rec.census && !(o.counts == rec.counts))) {
        o.violations.push_back("result differs between repetitions");
    }
    if (!o.violations.empty()) {
        ++rec.failed;
        for (auto &v : o.violations)
            rec.errors.push_back(std::move(v));
    }
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: cxlbench --workload "
                 "bw_sweep|latency_chase|pool_fabric --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spansPath;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        std::size_t used = val.size();
        try {
            if (key == "--workload")
                workload = val;
            else if (key == "--seed")
                seed = std::stoull(val, &used);
            else if (key == "--seconds")
                seconds = std::stod(val, &used);
            else if (key == "--trace" && (val == "0" || val == "1"))
                traced = val == "1";
            else if (key == "--spans")
                spansPath = val;
            else
                used = 0;
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != val.size() || val.empty()) {
            usage();
            return 2;
        }
    }
    if (argc % 2 == 0) {
        usage();
        return 2;
    }
    Workload w = makeWorkload(workload, seed);
    if (w.points.empty()) {
        usage();
        return 2;
    }

    // Dark runs take the median of at least three passes; a traced
    // round already runs every point twice.
    const int minRounds = traced ? 2 : 3;
    // Set-up repetitions per round run until this much set-up time
    // has accumulated, so cheap set-ups (the pool's) still get a
    // steady median.
    constexpr double setupSecondsPerRound = 0.25;
    Tracer tr(traced);
    std::vector<PointRecord> recs(w.points.size());
    std::map<std::string, std::vector<double>> setupParts;
    std::uint64_t pages = 0;
    int rounds = 0;
    const auto start = Clock::now();
    do {
        // Set-up repetitions, then one timed pass over every point.
        const auto setupStart = Clock::now();
        for (int rep = 0; rep == 0 || secondsSince(setupStart)
                                          < setupSecondsPerRound;
             ++rep) {
            Scope s(tr, "setup");
            SetupTimer st(tr, traced);
            for (std::size_t i = 0; i < w.points.size(); ++i) {
                const double before = st.total();
                Scope ps(tr, "setup." + w.points[i].name);
                const bool census = rounds == 0 && rep == 0;
                Counts counts;
                w.points[i].setup(st, census ? &counts : nullptr);
                recs[i].setupTimes.push_back(st.total() - before);
                if (census && !(counts == Counts{})) {
                    recs[i].census = true;
                    recs[i].counts = counts;
                }
            }
            for (const auto &[layer, secs] : st.parts())
                setupParts[layer].push_back(secs);
            pages = st.pages();
        }
        Scope s(tr, "pass");
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            runPoint(w.points[i], recs[i], tr, false);
            if (traced)
                runPoint(w.points[i], recs[i], tr, true);
        }
        ++rounds;
    } while (rounds < minRounds || secondsSince(start) < seconds);

    std::vector<std::pair<std::string, double>> layers;
    if (traced)
        layers = layerProbes(workload, w.shape, seed, tr);

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::string out = "{\"workload\":" + quote(workload)
                      + ",\"seed\":" + std::to_string(seed)
                      + ",\"rounds\":" + std::to_string(rounds)
                      + ",\"peak_rss_mb\":"
                      + num(static_cast<double>(ru.ru_maxrss) / 1024.0)
                      + ",\"numa_pages\":" + std::to_string(pages)
                      + ",\"points\":[";
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const PointRecord &r = recs[i];
        char digest[20];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.digest));
        out += std::string(i ? "," : "") + "{\"name\":"
               + quote(w.points[i].name) + ",\"digest\":" + quote(digest)
               + ",\"attempted\":" + std::to_string(r.attempted)
               + ",\"failed\":" + std::to_string(r.failed)
               + ",\"times\":" + numList(r.times)
               + ",\"traced_times\":" + numList(r.tracedTimes)
               + ",\"setup_times\":" + numList(r.setupTimes)
               + ",\"counts\":" + countsJson(r.counts) + ",\"values\":{";
        for (std::size_t v = 0; v < r.values.size(); ++v)
            out += std::string(v ? "," : "") + quote(r.values[v].first)
                   + ":" + num(r.values[v].second);
        out += "},\"errors\":[";
        for (std::size_t e = 0; e < r.errors.size(); ++e)
            out += std::string(e ? "," : "") + quote(r.errors[e]);
        out += "]}";
    }
    out += "],\"setup_parts\":{";
    bool first = true;
    for (const auto &[layer, secs] : setupParts) {
        out += (first ? "" : ",") + quote(layer) + ":" + numList(secs);
        first = false;
    }
    out += "},\"layers\":{";
    for (std::size_t i = 0; i < layers.size(); ++i)
        out += std::string(i ? "," : "") + quote(layers[i].first) + ":"
               + num(layers[i].second);
    out += "}}";
    std::puts(out.c_str());

    if (traced && !spansPath.empty() && !tr.write(spansPath)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     spansPath.c_str());
        return 1;
    }
    return 0;
}
