/**
 * @file
 * Exhaustive latency accounting and bottleneck attribution.
 *
 * Every queue/server on the request path (core fill/WC/store buffers,
 * the cache hierarchy, DRAM channels, the UPI link, the CXL link
 * directions, the CXL controller's credit gate / ingress trackers /
 * back-end / egress pipeline, and the DSA) is wrapped in an
 * AccountedStation that accumulates -- for *every* request, no
 * sampling -- a queueing-delay vs service-time split, server busy
 * time, and a time-weighted occupancy integral. An AttributionBoard
 * owns one station per StationId plus an end-to-end bracket over
 * demand reads, so a sweep point can be rolled up into a per-component
 * latency stack whose components sum exactly (in integer ticks) to
 * the measured end-to-end latency, with a non-negative residual
 * "other" bucket for unattributed fixed costs.
 *
 * The stack core is written once, over a station enum: StationBoard
 * (live stations + bracket) and StationRollup (its snapshot and every
 * derived figure). The host board instantiates it over StationId;
 * each switch port of the fabric board (fabric_attrib.hh) is another
 * instance over FabricStation. Only the verdicts and renderers differ.
 *
 * Contract (shared with the RAS/QoS/flight-recorder layers): off by
 * default -- a Machine built without `obs.attribution` constructs no
 * board and every instrumentation site is a single null-pointer test;
 * enabling it never schedules events or changes timing, so simulated
 * results are bit-identical either way; snapshots merge exactly and
 * associatively (integer sums only), so `--jobs` parallel sweeps are
 * deterministic.
 *
 * Two invariants are built in as self-tests:
 *  - exact decomposition: sum of per-station stack contributions
 *    never exceeds the bracketed end-to-end total (residual >= 0),
 *    and total == sum(components) + residual exactly, in ticks;
 *  - Little's law: per station, avg occupancy (occupancy integral /
 *    elapsed) equals throughput x avg residency within tolerance.
 */

#ifndef CXLMEMO_SIM_ATTRIBUTION_HH
#define CXLMEMO_SIM_ATTRIBUTION_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/statmerge.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** Stations on the request path, in upstream-to-downstream order. */
enum class StationId : std::uint8_t
{
    CoreLfb,    //!< core LFB/WC/store-buffer block time (queue only)
    Cache,      //!< cache hierarchy: hit service, MSHR wait, dispatch
    Dram,       //!< host DDR5 channels (local + remote socket)
    Upi,        //!< UPI hop to the remote socket
    CxlM2s,     //!< CXL down-link flit serialization (M2S)
    CxlCredit,  //!< M2S credit-wait / posted-write gate at the host
    CxlIngress, //!< controller ingress pipe + read-tracker/write-buffer
    CxlBackend, //!< device-side DRAM channel(s)
    CxlEgress,  //!< controller egress pipeline
    CxlS2m,     //!< CXL up-link flit serialization (S2M)
    Dsa,        //!< DSA work queue + engines
    NumStations,
};

constexpr std::size_t numStations =
    static_cast<std::size_t>(StationId::NumStations);

/** Short dotted station name used in reports and CSV columns. */
const char *stationName(StationId id);

/** Immutable per-station roll-up inside a StationRollup. */
struct StationSnap
{
    std::uint32_t servers = 1;
    bool buffer = false;
    std::uint64_t enters = 0;
    std::uint64_t exits = 0;
    std::uint64_t queueTicks = 0;
    std::uint64_t serviceTicks = 0;
    std::uint64_t busyTicks = 0;
    std::uint64_t occIntegral = 0;
    std::uint64_t stackQueueTicks = 0;
    std::uint64_t stackServiceTicks = 0;

    /** Exact, associative merge (integer sums; servers/buffer kept). */
    void merge(const StationSnap &o);
};

/**
 * One queue/server pair on the request path. All mutators are O(1)
 * integer arithmetic; no allocation, no event scheduling.
 *
 * Sites with real event-time transitions bracket residency with
 * enter()/exitNow() (the occupancy integral is then an independent
 * measurement, making the Little's-law check meaningful); analytic
 * sites whose wait/service split is computed in one shot (link
 * serialization against a free-at horizon, fixed pipeline delays)
 * use passThrough(), which credits the occupancy integral with the
 * residency sum (for which Little's law is an identity).
 */
struct AccountedStation
{
    /** Parallel servers (channels, engines, buffer entries); the
     *  denominator of the utilization figure. */
    std::uint32_t servers = 1;

    /** True for finite-buffer stations (credit gates, trackers) whose
     *  utilization is occupancy-based rather than busy-time-based. */
    bool buffer = false;

    /* ---- accumulators over all traffic (integer ticks) ---- */
    std::uint64_t enters = 0;
    std::uint64_t exits = 0;
    std::uint64_t queueTicks = 0;   //!< total time spent waiting
    std::uint64_t serviceTicks = 0; //!< total time spent in service
    std::uint64_t busyTicks = 0;    //!< server-busy integral
    std::uint64_t occIntegral = 0;  //!< occupancy x time integral

    /* ---- contributions of bracketed (demand-read) requests ---- */
    std::uint64_t stackQueueTicks = 0;
    std::uint64_t stackServiceTicks = 0;

    /* ---- live state ---- */
    std::uint32_t occupancy = 0;
    Tick lastOcc = 0;

    /** Latest absolute end of any accounted interval. The board's
     *  snapshot uses the maximum across stations as the horizon that
     *  bounds in-flight brackets, which is what makes the stack <=
     *  total invariant hold even mid-flight (an accounted interval
     *  may end after the snapshot tick: scheduled dispatches, local
     *  core clocks running ahead of the event queue). */
    Tick intervalEnd = 0;

    /** Advance the occupancy integral to @p now. Transitions driven
     *  by per-thread local clocks can arrive slightly out of order
     *  across threads; a stale @p now is a no-op, never a rollback. */
    void
    occTo(Tick now)
    {
        if (now <= lastOcc)
            return;
        occIntegral += std::uint64_t(occupancy) * (now - lastOcc);
        lastOcc = now;
    }

    /** A request arrived at the station (real event time). */
    void
    enter(Tick now)
    {
        occTo(now);
        ++occupancy;
        ++enters;
    }

    /** A request left the station (real event time); pair with
     *  account() for its queue/service split. */
    void
    exitNow(Tick now)
    {
        occTo(now);
        if (occupancy > 0)
            --occupancy;
        ++exits;
    }

    /**
     * Record a request's queue/service split.
     *
     * @p busy is the server-occupancy portion of @p service: equal to
     * it for a genuinely serial resource (a DRAM data bus, a DSA
     * engine, link serialization), less for stages whose latency is
     * pipelined and cannot saturate by itself (fixed controller
     * pipelines, wire propagation, the DRAM array access under bank
     * parallelism). Only @p busy feeds the utilization figure.
     * @p stack adds the split to the bracketed latency-stack sums.
     * @p end is the absolute tick the accounted interval ends at; it
     * advances the snapshot horizon bounding in-flight brackets.
     */
    void
    account(Tick queued, Tick service, Tick busy, bool stack, Tick end)
    {
        queueTicks += queued;
        serviceTicks += service;
        busyTicks += busy;
        if (stack) {
            stackQueueTicks += queued;
            stackServiceTicks += service;
        }
        if (end > intervalEnd)
            intervalEnd = end;
    }

    /** One-shot accounting for analytic sites: enter + exit + split
     *  in a single call, occupancy integral credited by residency. */
    void
    passThrough(Tick queued, Tick service, Tick busy, bool stack,
                Tick end)
    {
        ++enters;
        ++exits;
        occIntegral += queued + service;
        account(queued, service, busy, stack, end);
    }

    /** Zero the accumulators (not the live occupancy) and restart the
     *  occupancy integral at @p now. */
    void reset(Tick now);

    /** The accumulators as of @p now, the occupancy integral carried
     *  up to @p now. */
    StationSnap snap(Tick now) const;
};

/**
 * The exact latency stack over one station enum @p Id: per-station
 * roll-ups plus the end-to-end bracket (bracketed requests and their
 * summed latency, live brackets charged to the horizon). The host
 * board's AttribSnapshot and every fabric port's FabricPortSnap are
 * this type. Merging is exact and associative (integer sums only) and
 * every derived figure is computed on demand from the sums, so merging
 * and then deriving equals deriving from the merged sums. Figures that
 * need the window length take it as @p elapsed, so a cross-port
 * roll-up shares its owner's window.
 */
template <typename Id>
struct StationRollup
{
    static constexpr std::size_t size =
        static_cast<std::size_t>(Id::NumStations);

    static constexpr Id
    idAt(std::size_t i)
    {
        return static_cast<Id>(i);
    }

    std::uint64_t reqCount = 0;   //!< bracketed requests retired (+live)
    std::uint64_t totalTicks = 0; //!< their summed end-to-end latency
    std::array<StationSnap, size> st{};

    const StationSnap &
    at(Id id) const
    {
        return st[static_cast<std::size_t>(id)];
    }

    /** Exact, associative merge (all sums add). */
    void
    merge(const StationRollup &o)
    {
        mergeCounters(*this, o, &StationRollup::reqCount,
                      &StationRollup::totalTicks);
        for (std::size_t i = 0; i < size; ++i)
            st[i].merge(o.st[i]);
    }

    /* ---- latency stack (bracketed requests) ---- */

    /** Sum of per-station stack contributions, in ticks. */
    std::uint64_t
    stackTicks() const
    {
        std::uint64_t sum = 0;
        for (const auto &s : st)
            sum += s.stackQueueTicks + s.stackServiceTicks;
        return sum;
    }

    /** Residual "other" bucket: totalTicks - stackTicks(). */
    std::uint64_t
    otherTicks() const
    {
        const std::uint64_t stack = stackTicks();
        return totalTicks >= stack ? totalTicks - stack : 0;
    }

    /** true iff stackTicks() <= totalTicks (residual >= 0), i.e. the
     *  stack reconstructs the measured total exactly. */
    bool
    decompositionExact() const
    {
        return stackTicks() <= totalTicks;
    }

    double avgTotalNs() const { return perRequestNs(totalTicks); }

    double
    componentQueueNs(Id id) const
    {
        return perRequestNs(at(id).stackQueueTicks);
    }

    double
    componentServiceNs(Id id) const
    {
        return perRequestNs(at(id).stackServiceTicks);
    }

    double otherNs() const { return perRequestNs(otherTicks()); }

    /* ---- per-station figures (all traffic) ---- */

    /** Busy (or, for buffers, occupancy) share of the servers. */
    double
    util(Id id, Tick elapsed) const
    {
        const StationSnap &s = at(id);
        if (elapsed == 0 || s.servers == 0)
            return 0.0;
        const std::uint64_t numer = s.buffer ? s.occIntegral : s.busyTicks;
        const double u = static_cast<double>(numer)
                         / (static_cast<double>(elapsed)
                            * static_cast<double>(s.servers));
        return std::min(u, 1.0);
    }

    double
    avgOccupancy(Id id, Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(at(id).occIntegral)
               / static_cast<double>(elapsed);
    }

    /** Completions per nanosecond. */
    double
    throughputPerNs(Id id, Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(at(id).exits) / nsFromTicks(elapsed);
    }

    double
    avgResidencyNs(Id id) const
    {
        const StationSnap &s = at(id);
        if (s.exits == 0)
            return 0.0;
        return nsFromTicks(s.queueTicks + s.serviceTicks)
               / static_cast<double>(s.exits);
    }

    /** Relative |L - lambda*W| deviation (0 when idle). */
    double
    littleDeviation(Id id, Tick elapsed) const
    {
        if (at(id).exits == 0 || elapsed == 0)
            return 0.0;
        const double l = avgOccupancy(id, elapsed);
        const double lw =
            throughputPerNs(id, elapsed) * avgResidencyNs(id);
        const double ref = std::max(l, lw);
        if (ref <= 0.0)
            return 0.0;
        return std::abs(l - lw) / ref;
    }

    /** true iff every active station except @p exempt satisfies
     *  Little's law within @p tol relative deviation. */
    bool
    littleOk(Tick elapsed, double tol = 0.05,
             Id exempt = Id::NumStations) const
    {
        for (std::size_t i = 0; i < size; ++i)
            if (idAt(i) != exempt
                && littleDeviation(idAt(i), elapsed) > tol)
                return false;
        return true;
    }

  private:
    double
    perRequestNs(std::uint64_t ticks) const
    {
        if (reqCount == 0)
            return 0.0;
        return nsFromTicks(ticks) / static_cast<double>(reqCount);
    }
};

/**
 * Registry of one AccountedStation per @p Id plus the end-to-end
 * bracket: the live core of the host board and of every fabric port.
 * All mutators are O(1) integer arithmetic.
 */
template <typename Id>
class StationBoard
{
  public:
    explicit StationBoard(Tick now = 0)
    {
        for (auto &s : st_)
            s.lastOcc = now;
    }

    AccountedStation &
    station(Id id)
    {
        return st_[static_cast<std::size_t>(id)];
    }

    const AccountedStation &
    station(Id id) const
    {
        return st_[static_cast<std::size_t>(id)];
    }

    /** A bracketed request issued at @p t0. Every begin must be
     *  matched by completeRequest(t0, ...): in-flight brackets are
     *  charged into the snapshot up to the accounting horizon, which
     *  is what keeps the latency stack bounded by the measured total
     *  even while requests are mid-flight. */
    void
    beginRequest(Tick t0)
    {
        ++liveCount_;
        liveStartSum_ += t0;
    }

    /** The bracketed request begun at @p t0 retired at @p t. */
    void
    completeRequest(Tick t0, Tick t)
    {
        --liveCount_;
        liveStartSum_ -= t0;
        ++reqCount_;
        totalTicks_ += t - t0;
    }

    /** Zero the sums at @p now. Live brackets deliberately survive:
     *  brackets opened before the window retire with their true
     *  start, so their stack contributions inside the window stay
     *  covered by their totals. */
    void
    beginWindow(Tick now)
    {
        reqCount_ = 0;
        totalTicks_ = 0;
        for (auto &s : st_)
            s.reset(now);
    }

    /** Roll up the sums as of @p now. */
    StationRollup<Id>
    snapshot(Tick now) const
    {
        StationRollup<Id> snap;
        snap.reqCount = reqCount_;
        snap.totalTicks = totalTicks_;
        if (liveCount_ > 0) {
            // Charge in-flight brackets up to the accounting horizon:
            // the latest end of any accounted interval (which can lie
            // past @p now -- scheduled dispatches, core-local clocks
            // running ahead). Every live bracket's accounted intervals
            // fit inside [its start, horizon], so stack <= total holds
            // mid-flight.
            Tick horizon = now;
            for (const auto &s : st_)
                horizon = std::max(horizon, s.intervalEnd);
            snap.reqCount += liveCount_;
            snap.totalTicks += liveCount_ * horizon - liveStartSum_;
        }
        for (std::size_t i = 0; i < st_.size(); ++i)
            snap.st[i] = st_[i].snap(now);
        return snap;
    }

  private:
    std::array<AccountedStation, StationRollup<Id>::size> st_{};
    std::uint64_t reqCount_ = 0;
    std::uint64_t totalTicks_ = 0;
    std::uint64_t liveCount_ = 0;    //!< brackets begun, not retired
    std::uint64_t liveStartSum_ = 0; //!< sum of their start ticks
};

/**
 * A sweep point's attribution roll-up: the host stations' stack over
 * a measurement window of length @p elapsed, plus the device traffic
 * mix the bottleneck verdict keys on.
 */
struct AttribSnapshot : StationRollup<StationId>
{
    Tick elapsed = 0; //!< measurement-window length
    /** Device-level traffic mix (fed by the CXL controller): decides
     *  whether the bottleneck verdict follows the read path or the
     *  posted-write acknowledgement path. */
    std::uint64_t devReads = 0;
    std::uint64_t devWrites = 0;

    /** Exact, associative merge (elapsed and all sums add). */
    void merge(const AttribSnapshot &o);

    /** Little's law on every active station but core.lfb, whose
     *  occupancy transitions are stamped with per-thread local clocks
     *  that are not mutually monotonic: its occupancy integral (and
     *  hence L = lambda*W) is only approximate. Its deviation is
     *  still reported in the table, just not enforced. */
    bool littleOk(double tol = 0.05) const;

    /** Queueing share of a station's residency: q / (q + s). */
    double queueShare(StationId id) const;

    /* ---- bottleneck verdict ---- */

    /**
     * Automatic root-cause verdict, in three regimes:
     *
     *  - Posted-write-dominated device traffic (nt-store floods):
     *    writes are acknowledged at the controller ingress buffer and
     *    drain to the back-end off the host-visible path, so the
     *    back-end/egress/S2M stations are excluded and the verdict is
     *    the highest-utilization remaining station -- the full write
     *    buffer, the paper's nt-store overload narrative.
     *  - Read path with a saturated *server* (utilization >= 0.5):
     *    the highest-utilization non-buffer station wins, near-ties
     *    (within 0.02) resolved downstream. A full upstream buffer is
     *    the *symptom* of a saturated downstream server, so buffers
     *    never outrank a busy server.
     *  - Nothing saturated (latency-bound): the station contributing
     *    the largest share of the demand-read latency stack.
     */
    StationId bottleneck() const;

    /** e.g. "bottleneck=cxl.backend util=0.97 queue_share=0.81". */
    std::string verdict() const;

    /* ---- rendering ---- */

    /** Multi-line "attrib: ..." stat lines for Machine::statsString. */
    std::string statLines() const;

    /** Human-readable per-point breakdown table (memo report). */
    std::string table() const;

    /** Compact per-station occupancy/utilization dump for the
     *  watchdog post-mortem. */
    std::string postMortem() const;
};

/**
 * Per-machine board: the host stations' StationBoard plus the window
 * start and the device traffic mix. Constructed only when attribution
 * is enabled; every instrumentation site holds a pointer that is null
 * otherwise.
 */
class AttributionBoard : public StationBoard<StationId>
{
  public:
    explicit AttributionBoard(Tick now = 0)
        : StationBoard(now), windowStart_(now)
    {}

    /** Configure a station's utilization denominator. */
    void setServers(StationId id, std::uint32_t servers,
                    bool buffer = false);

    /** A request arrived at the (CXL) device controller; feeds the
     *  read/write traffic mix the bottleneck verdict keys on. */
    void
    noteDeviceOp(bool write)
    {
        if (write)
            ++devWrites_;
        else
            ++devReads_;
    }

    /** Restart the measurement window at @p now (Machine::resetStats). */
    void beginWindow(Tick now);

    /** Roll up the window ending at @p now. */
    AttribSnapshot snapshot(Tick now) const;

  private:
    std::uint64_t devReads_ = 0;
    std::uint64_t devWrites_ = 0;
    Tick windowStart_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_ATTRIBUTION_HH
