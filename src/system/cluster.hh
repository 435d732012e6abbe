/**
 * @file
 * Multi-host pooled-memory cluster: N hosts sharing M CXL devices
 * behind a CxlSwitch, with crash fencing and machine-checked
 * blast-radius isolation.
 *
 * Topology (one Cluster):
 *
 *     host0 ----port0----+
 *     host1 ----port1----+--- CxlSwitch --- pooled device 0..M-1
 *       ...              |        |
 *     hostN-1 --portN-1--+   PoolManager (ownership ledger)
 *
 * Each host runs a closed-loop generator against its *exclusive*
 * pool window (granted by the PoolManager at setup). Hosts and the
 * fabric -- switch, devices, pool manager, fence controller -- share
 * one event queue; every host <-> fabric message crosses a switch
 * port and pays its one-way latency.
 *
 * Determinism and the blast-radius invariant
 * ------------------------------------------
 * A host's functional outcome (its HostDigest: delivered values,
 * status counts, poison ledger) must be *timing independent*, so that
 * disturbing host A cannot change host B's digest even though it
 * changes B's latency. Three mechanisms make that hold by
 * construction, and the isolation self-test checks it end to end:
 *
 *  1. exclusive windows -- the PoolManager never grants a segment to
 *     two hosts, so only B's writes land in B's window;
 *  2. slot-partitioned addressing -- host MLP is modeled as `mlp`
 *     independent closed-loop slots, and slot s only touches lines
 *     with (line % mlp == s). No host ever has two in-flight ops to
 *     the same line, so each read's value is fixed by its slot's
 *     program order, not by completion interleaving;
 *  3. order-free folding -- digests fold per slot in slot-program
 *     order, and per-host state (poison counters, RNG streams) is
 *     keyed by host id, never by global arrival order.
 *
 * Fencing lifecycle: hosts beat a sideband heartbeat into the fabric
 * every fence-check period; a crashed host goes silent, the fence
 * checker declares it dead after `miss-threshold` silent periods,
 * fences its switch port (aborting everything in flight under the
 * ContainPolicy), quarantines its capacity, scrubs it, and re-grants
 * it to the survivors. Time-to-fence and capacity-recovered are
 * reported, and the pool ledger + switch credit ledgers are verified
 * at every fence-check snapshot.
 */

#ifndef CXLMEMO_SYSTEM_CLUSTER_HH
#define CXLMEMO_SYSTEM_CLUSTER_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "interconnect/poolmgr.hh"
#include "interconnect/switch.hh"
#include "sim/fabric_attrib.hh"
#include "sim/histogram.hh"
#include "sim/metrics.hh"
#include "sim/observability.hh"
#include "sim/rng.hh"
#include "sim/specparse.hh"
#include "sim/tailcap.hh"
#include "sim/trace.hh"
#include "sim/watchdog.hh"

namespace cxlmemo
{

class CxlMemDevice;

/**
 * Pooled-cluster scenario description (the `--pool-spec` grammar).
 * Key=value, comma separated; unknown keys and malformed values are
 * parse errors. The keys are the table in PoolSpec::grammar()
 * (system/cluster.cc); `memo --help` lists them. All disturbances
 * are off by default: the default spec is a clean N-host run.
 */
struct PoolSpec
{
    std::uint32_t hosts = 2;   //!< upstream hosts / switch ports
    std::uint32_t devices = 1; //!< pooled devices behind the switch
    std::uint64_t capacityMb = 64; //!< per-device capacity (MiB)
    std::uint64_t windowMb = 0; //!< per-host grant; 0 = even split
    std::uint32_t credits = 0;  //!< per-port rd+wr credits (0 = uncapped)
    CxlSwitchParams::Arb arb = CxlSwitchParams::Arb::RoundRobin;

    std::uint64_t ops = 20000; //!< per-host operation count
    double readFrac = 0.8;     //!< read fraction (aggressor ignores)
    std::uint32_t mlp = 8;     //!< closed-loop slots per host

    /** Aggressor host: floods nt-stores instead of the mixed load. */
    std::int32_t aggressor = -1;

    /** Crash schedule: host stops issuing and beating at crash-at-ns;
     *  the fence checker must detect and fence it. */
    std::int32_t crashHost = -1;
    double crashAtNs = 0.0;

    double fenceCheckNs = 2000.0;    //!< heartbeat / fence-check period
    std::uint32_t missThreshold = 2; //!< silent periods before fencing
    double scrubNsPerMb = 200.0;     //!< quarantine scrub cost
    ContainPolicy contain = ContainPolicy::Poison;

    /** Poison injection: every Nth read of this host completes
     *  poisoned (fabric-side, per-host counter). */
    std::int32_t poisonHost = -1;
    std::uint64_t poisonEvery = 0;

    /** Switch-port outage/retrain against one host's port. */
    std::int32_t portDownHost = -1;
    double portDownAtNs = 0.0;
    double retrainNs = 2000.0;

    std::uint64_t seed = 42;

    /** Any disturbance (aggressor/crash/poison/port-down) armed? */
    bool disturbed() const;

    /** Lowest host targeted by no disturbance (-1 if none exists):
     *  the subject of the isolation self-test. */
    std::int32_t victimHost() const;

    /** This spec with every disturbance cleared: the B-only baseline
     *  the isolation invariant compares against. */
    PoolSpec isolationBaseline() const;

    /** The `--pool-spec` key table. */
    static const specparse::Grammar<PoolSpec> &grammar();

    /** @throw std::invalid_argument on out-of-range values. */
    void validate() const;

    /** Render in the `--pool-spec` grammar (every key). */
    std::string
    toString() const
    {
        return specparse::print(grammar(), *this);
    }

    /** Parse "k=v,k=v"; std::nullopt + @p error on failure. */
    static std::optional<PoolSpec>
    parse(const std::string &text, std::string &error)
    {
        return specparse::parse(grammar(), text, error);
    }
};

/**
 * Timing-independent functional outcome of one host. Two runs that
 * disturb only *other* hosts must produce byte-identical digests
 * (the blast-radius invariant); latency and bandwidth live outside
 * the digest because they legitimately change under contention.
 */
struct HostDigest
{
    std::uint64_t ops = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t aborted = 0;
    std::uint64_t valueHash = 0;  //!< FNV over (slot, op, status, value)
    std::uint64_t ledgerHash = 0; //!< FNV over the poison ledger

    bool operator==(const HostDigest &o) const;
    bool operator!=(const HostDigest &o) const { return !(*this == o); }
};

/** Per-host result row (one CSV tier in `memo --mode pool`). */
struct HostReport
{
    std::uint32_t host = 0;
    std::string role; //!< normal|aggressor|victim|crashed
    HostDigest digest;
    std::uint64_t grantedBytes = 0; //!< initial window
    bool fenced = false;
    double durationNs = 0.0;
    double gbps = 0.0;
    double readAvgNs = 0.0;
    double readP99Ns = 0.0;
    /** Full read-latency histogram (ns; always recorded, so the
     *  `lat_*` CSV tier costs nothing extra to fill). */
    LatencyHistogram readHist;
    /** Worst-K tail roll-up (k == 0 unless obs.tailK). */
    TailSummary tail;
};

/** Whole-cluster outcome of one Cluster::run(). */
struct ClusterResult
{
    std::vector<HostReport> hosts;

    /** Crash-to-fence latency (-1: nothing was fenced). */
    double timeToFenceNs = -1.0;
    std::uint64_t quarantinedBytes = 0;
    std::uint64_t recoveredBytes = 0; //!< re-granted to survivors

    /** Pool ledger + switch credit ledgers held at every fence-check
     *  snapshot and at completion. */
    bool ledgerOk = true;

    bool watchdogTripped = false;
    std::string watchdogReport;

    /** Attribution: names the aggressor host and the victim port, or
     *  reports the absence of an aggressor; with fabric attribution
     *  enabled, followed by the fabric bottleneck regime. Comma-free
     *  (CSV cell). */
    std::string verdict;

    /** Fabric attribution roll-up (empty unless obs.attribution). */
    FabricSnapshot fabric;

    /** Chrome trace events (comma-joined, no array wrapper). One
     *  track per host plus a fabric track (pid 0). run() leaves this
     *  empty -- serialization is a consumer cost -- and runPool()
     *  fills it from Cluster::traceJson() when tracing is armed. */
    std::string traceJson;

    /** Interval-metrics CSV rows (empty unless obs.metricsInterval). */
    std::string metricsRows;

    Tick endTick = 0;
};

class Cluster
{
  public:
    struct Options
    {
        /** >= 0: isolation-baseline mode -- only this host issues its
         *  workload; every other host runs zero ops (but still holds
         *  its identical window grant). */
        std::int32_t soloHost = -1;

        /** Watchdog snapshot interval (0 = off). */
        double watchdogUs = 0.0;

        /** Hard simulated-time limit (0 = run to quiesce). */
        double limitUs = 0.0;

        /** Fabric observability (tracing / metrics / attribution /
         *  tail capture). All off by default; enabling any layer
         *  never changes simulated results. */
        ObservabilityOptions obs;
    };

    explicit Cluster(const PoolSpec &spec);
    Cluster(const PoolSpec &spec, Options opts);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Run the scenario to quiescence and report. */
    ClusterResult run();

    /* --------------- test access (litmus / unit) ----------------- */

    CxlSwitch &fabric() { return *sw_; }
    PoolManager &pool() { return *pool_; }
    EventQueue &fabricQueue() { return eq_; }
    Watchdog *watchdog() { return watchdog_.get(); }
    FabricBoard *fabricBoard() { return board_.get(); }
    MetricsRegistry *metricsRegistry() { return metrics_.get(); }

    using InjectDone =
        std::function<void(Tick, CxlSwitch::Status, std::uint64_t)>;

    /**
     * Inject one operation from @p host at the current fabric tick
     * (litmus tests drive the shared device path directly). Crosses the port like workload traffic and applies
     * the fabric-side poison shaping.
     */
    void inject(std::uint32_t host, MemCmd cmd, Addr hostAddr,
                std::uint64_t value, InjectDone done);

    /** Drive the cluster's event queue. */
    bool runFabricUntil(Tick limit) { return eq_.runUntil(limit); }

    /** Export every completed span as Chrome trace-event JSON (the
     *  same document run() returns; litmus tests drive inject() +
     *  runFabricUntil() and never call run()). */
    std::string traceJson() const { return exportTraceJson(); }

    /** Poison ledger of @p host (host-window address -> count). */
    const std::map<Addr, std::uint64_t> &
    poisonLedger(std::uint32_t host) const;

  private:
    struct Slot
    {
        Rng rng;
        std::uint64_t issued = 0;
        std::uint64_t done = 0;
        std::uint64_t target = 0;
        std::uint64_t valueHash = 0;
        Tick issueTick = 0; //!< of the op in flight
        TraceSpan *span = nullptr; //!< trace span of the op in flight
    };

    struct Host
    {
        std::uint32_t id = 0;
        std::string role = "normal";
        bool crashed = false;
        bool complete = false;
        std::uint64_t target = 0;
        std::uint64_t windowLines = 0; //!< initial grant, fixed
        std::vector<Slot> slots;
        std::uint64_t slotsDone = 0;
        HostDigest digest;
        std::map<Addr, std::uint64_t> poisonLedger;
        LatencyHistogram readHist;
        double readLatSumNs = 0.0;
        Tick lastDoneTick = 0;
        /** Per-host tracer: host-scoped span ids, deterministic
         *  per-host sampling (null unless tracing or tail capture is
         *  enabled). */
        std::unique_ptr<RequestTracer> tracer;
        /** Per-host worst-K capture (null unless obs.tailK). */
        std::unique_ptr<TailCapture> tailcap;
    };

    void issueSlot(std::uint32_t host, std::uint32_t slot);
    void slotDone(std::uint32_t host, std::uint32_t slot,
                  std::uint64_t opIdx, Addr hostAddr, MemCmd cmd,
                  Tick issued, Tick at, CxlSwitch::Status status,
                  std::uint64_t value);
    void hostComplete(std::uint32_t host, Tick at);
    void beat(std::uint32_t host);
    /** Fabric-side completion shaping: the per-host poison stream. */
    CxlSwitch::Status shapeStatus(std::uint32_t host, MemCmd cmd,
                                  CxlSwitch::Status st);
    void submitFromHost(std::uint32_t host, MemCmd cmd, Addr hostAddr,
                        std::uint64_t value, Tick issued,
                        TraceSpan *span, CxlSwitch::Done done);
    void fenceCheck();
    void fenceHost(std::uint32_t host, Tick now);
    std::uint64_t missValue(std::uint32_t dev, Addr addr) const;
    std::string attributionVerdict() const;
    void setupObservability();
    void registerMetrics();
    std::string exportTraceJson() const;

    PoolSpec spec_;
    Options opts_;

    EventQueue eq_;

    std::vector<std::unique_ptr<CxlMemDevice>> devices_;
    std::unique_ptr<CxlSwitch> sw_;
    std::unique_ptr<PoolManager> pool_;
    std::unique_ptr<Watchdog> watchdog_;

    /* Observability (all null when the matching knob is off). */
    std::unique_ptr<FabricBoard> board_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<MetricsSampler> sampler_;

    /** Functional line store, [device] addr -> last written value.
     *  Committed at device completion on the fabric queue. */
    std::vector<std::unordered_map<Addr, std::uint64_t>> store_;

    std::vector<Host> hosts_;

    /* Fabric-side fencing state (only fabric callbacks touch it). */
    std::vector<Tick> lastBeat_;
    std::vector<bool> beatDone_;   //!< host reported completion
    std::vector<bool> fenced_;
    std::vector<std::uint64_t> poisonCtr_;
    Tick crashTick_ = 0;
    Tick fencedAt_ = 0;
    bool checkerArmed_ = false;
    bool ledgerAllOk_ = true;
    std::uint64_t quarantinedBytes_ = 0;
    std::uint64_t recoveredBytes_ = 0;

    bool watchdogTripped_ = false;
    std::string watchdogReport_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SYSTEM_CLUSTER_HH
