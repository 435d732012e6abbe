/**
 * @file
 * Testbed assembly: wires cores, caches, NUMA nodes, DRAM channels,
 * the UPI link and the CXL device into the machines of the paper's
 * Table 1. All calibration constants live in machine.cc with their
 * provenance.
 */

#ifndef CXLMEMO_SYSTEM_MACHINE_HH
#define CXLMEMO_SYSTEM_MACHINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cxl/device.hh"
#include "dsa/dsa.hh"
#include "interconnect/upi.hh"
#include "mem/dram.hh"
#include "numa/numa.hh"
#include "sim/attribution.hh"
#include "sim/chaos.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/lifecycle.hh"
#include "sim/metrics.hh"
#include "sim/observability.hh"
#include "sim/qos.hh"
#include "sim/tailcap.hh"
#include "sim/trace.hh"
#include "sim/watchdog.hh"

namespace cxlmemo
{

/** Which of the paper's testbeds to build. */
enum class Testbed
{
    /** Intel Xeon Gold 6414U: 32 cores, 60 MB LLC, 8x DDR5-4800,
     *  CXL 1.1 x16 with the Agilex-I device (16 GB DDR4-2666). */
    SingleSocketCxl,

    /** 2x Intel Xeon Platinum 8460H: adds a remote-socket DDR5 node
     *  behind UPI (populated with one channel, the paper's DDR5-R1). */
    DualSocket,

    /** Single socket in SNC mode, workload confined to one quadrant's
     *  memory controllers: 2 DDR5 channels + 15 MB LLC slice, plus the
     *  CXL device (the bandwidth-bound setup of Fig. 9). */
    SncQuadrantCxl,
};

/** Optional knobs applied on top of a testbed preset. */
struct MachineOptions
{
    bool prefetchEnabled = false;
    /** Enable the per-core DTLB model (see HierarchyParams). */
    bool tlbEnabled = false;
    std::optional<std::uint32_t> numCores;
    std::optional<std::uint32_t> localChannels;
    /** Replace the CXL device (e.g. a hypothetical ASIC; see
     *  bench_future_cxl). */
    std::optional<CxlDeviceParams> cxlDevice;
    /** RAS fault model applied to the CXL path (link, controller and
     *  the device-side DRAM). All-zero rates (the default) build a
     *  healthy machine with no injector at all, guaranteeing
     *  bit-identical behaviour to a build without the RAS layer. */
    FaultSpec faults;

    /** Failure-lifecycle schedule on the CXL path: scripted link
     *  down/retrain, device hot-remove/re-add and poison-driven page
     *  offlining (sim/chaos.hh). The default (disabled) spec arms
     *  nothing and is bit-identical to a machine without the layer. */
    ChaosSpec chaos;

    /** Overload-control model on the CXL path: M2S credit pools,
     *  DevLoad telemetry and the host throttle. The default
     *  (disabled) spec builds no pools, no meter and no throttle --
     *  bit-identical to a machine without the QoS layer. */
    QosSpec qos;

    /** Forward-progress watchdog snapshot interval; 0 (the default)
     *  builds no watchdog and schedules no events. */
    Tick watchdogInterval = 0;

    /** Flight-recorder configuration: request-lifecycle tracing,
     *  interval metrics and per-component latency histograms. The
     *  default (all off) builds no tracer, no registry, no sampler
     *  and enables no histograms -- timing and statistics are
     *  bit-identical to a machine without the observability layer. */
    ObservabilityOptions obs;
};

/**
 * A fully assembled simulated machine. Owns the event queue, devices,
 * NUMA space and cache hierarchy; workloads create HwThreads on top.
 */
class Machine
{
  public:
    explicit Machine(Testbed testbed, MachineOptions opts = {});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    EventQueue &eq() { return eq_; }
    NumaSpace &numa() { return numa_; }

    CacheHierarchy &caches() { return *caches_; }
    const CoreParams &coreParams() const { return coreParams_; }
    Testbed testbed() const { return testbed_; }
    const std::string &name() const { return name_; }

    std::uint32_t numCores() const { return caches_->params().numCores; }

    /** NUMA node ids (fatal accessor if absent on this testbed). */
    NodeId localNode() const { return localNode_; }
    NodeId remoteNode() const;
    NodeId cxlNode() const;
    bool hasRemote() const { return remote_ != nullptr; }
    bool hasCxl() const { return cxl_ != nullptr; }

    /** Device accessors for stats inspection. */
    InterleavedMemory &localMem() { return *local_; }
    Dsa &dsa() { return *dsa_; }
    UpiRemoteMemory &remoteMem();
    CxlMemDevice &cxlDev();

    /** Fault injector (nullptr when faults are disabled). */
    FaultInjector *faults() { return faults_.get(); }

    /** RAS counters, or nullptr when faults are disabled. */
    const RasStats *rasStats() const;

    /** The QoS configuration this machine was built with. */
    const QosSpec &qosSpec() const { return qosSpec_; }

    /** Overload-control counters, or nullopt when QoS is disabled. */
    std::optional<QosStats> qosStats() const;

    /** Host throttle (nullptr unless a reaction policy is active). */
    HostThrottle *hostThrottle() { return throttle_.get(); }

    /** The chaos schedule this machine was built with. */
    const ChaosSpec &chaosSpec() const { return chaosSpec_; }

    /** Per-page memory-failure handler (nullptr unless the chaos spec
     *  enables page offlining). */
    MemoryFailureHandler *failureHandler() { return failureHandler_.get(); }

    /**
     * Failure-lifecycle counters: the device's link/removal FSM state
     * merged with the host page ledger.
     */
    ChaosStats chaosStats() const;

    /**
     * Host-side reaction hook fired when the CXL node is marked
     * offline (online = false) or back online (online = true) by a
     * scheduled hot-remove/re-add. The drill harness uses it to
     * evacuate tiered data off the dying device.
     */
    void
    setCxlHotplugHook(std::function<void(Tick, bool)> hook)
    {
        cxlHotplugHook_ = std::move(hook);
    }

    /** Forward-progress watchdog (nullptr when disabled). */
    Watchdog *watchdog() { return watchdog_.get(); }

    /** Request-lifecycle tracer (nullptr when tracing is disabled).
     *  Also built (sampling 0-in-N) when only tail capture is armed,
     *  since tail mode rides the tracer's span plumbing. */
    RequestTracer *tracer() { return tracer_.get(); }

    /** Worst-K tail capture (nullptr when `obs.tailK` is 0). */
    TailCapture *tailCapture() { return tailcap_.get(); }

    /** Interval-metrics registry (nullptr when metrics are disabled). */
    MetricsRegistry *metrics() { return metrics_.get(); }

    /** Latency-attribution board (nullptr when `obs.attribution` is
     *  off -- the default: no stations, no accounting, bit-identical
     *  timing and statistics). */
    AttributionBoard *attribution() { return attrib_.get(); }

    /** Machine-wide attribution roll-up. Requires
     *  attribution() != nullptr. */
    AttribSnapshot attribSnapshot() const;

    /** Emit the final metrics snapshot plus end-of-run totals (no-op
     *  when metrics are disabled; idempotent). */
    void
    flushMetrics()
    {
        if (metrics_)
            metrics_->flush(eq_.curTick());
    }

    /** Restart the watchdog snapshot cycle and the metrics sampler;
     *  call before pushing new work after the event queue quiesced
     *  (no-op when both are disabled). */
    void
    rearmWatchdog()
    {
        if (watchdog_)
            watchdog_->arm();
        if (sampler_)
            sampler_->arm();
    }

    /** Create a thread pinned to @p core with this machine's core
     *  parameters. */
    std::unique_ptr<HwThread> makeThread(std::uint16_t core);

    /** Reset all device/cache statistics (not state). */
    void resetStats();

    /** Human-readable configuration dump (Table 1 reproduction). */
    std::string configString() const;

    /**
     * Machine-wide statistics report: per-node device traffic and
     * row-buffer behaviour, CXL link/controller counters, LLC hit
     * rate, prefetcher and TLB activity. Intended for experiment
     * post-mortems and debugging.
     */
    std::string statsString() const;

  private:
    Testbed testbed_;
    std::string name_;
    EventQueue eq_;
    NumaSpace numa_;

    std::unique_ptr<FaultInjector> faults_; //!< before devices using it

    std::unique_ptr<InterleavedMemory> local_;
    std::unique_ptr<UpiRemoteMemory> remote_;
    std::unique_ptr<CxlMemDevice> cxl_;
    std::unique_ptr<CacheHierarchy> caches_;
    std::unique_ptr<Dsa> dsa_;
    QosSpec qosSpec_;
    ChaosSpec chaosSpec_;
    std::unique_ptr<MemoryFailureHandler> failureHandler_;
    std::function<void(Tick, bool)> cxlHotplugHook_;
    std::unique_ptr<HostThrottle> throttle_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<RequestTracer> tracer_;
    std::unique_ptr<TailCapture> tailcap_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<MetricsSampler> sampler_;
    std::unique_ptr<AttributionBoard> attrib_;
    CoreParams coreParams_;

    /** Register component counters/gauges with metrics_. */
    void registerMetrics();

    NodeId localNode_ = 0;
    NodeId remoteNode_ = 0;
    NodeId cxlNode_ = 0;
};

/** Calibrated component parameter factories (shared with tests). */
namespace testbed_params
{

/** One local DDR5-4800 channel behind the SPR iMC. */
DramChannelParams localDdr5Channel();

/** One remote-socket DDR5-4800 channel (behind UPI). */
DramChannelParams remoteDdr5Channel();

/** The DDR4-2666 channel behind the Agilex-I EMIF. */
DramChannelParams cxlDdr4Channel();

/** The Agilex-I CXL Type-3 device. */
CxlDeviceParams agilexCxlDevice();

/** The UPI path to the second socket. */
UpiParams uiPathToRemote();

/** SPR cache hierarchy (single socket, unified mode). */
HierarchyParams sprHierarchy(std::uint32_t numCores);

/** SPR core issue resources. */
CoreParams sprCore();

} // namespace testbed_params

} // namespace cxlmemo

#endif // CXLMEMO_SYSTEM_MACHINE_HH
