/**
 * @file
 * Failure-lifecycle ("chaos") schedule: deterministic, scripted
 * whole-component failures layered on top of the rate-based RAS
 * injection in sim/fault.hh. Where FaultInjector flips individual
 * flits and reads, the chaos layer takes entire resources away and
 * brings them back:
 *
 *  - link down / retrain: the CXL link drops at a scheduled tick (or
 *    when a CRC burst rides through the width-degradation ceiling),
 *    blocks traffic for a modeled retrain latency, then comes back at
 *    degraded width and steps back up to full width;
 *  - device hot-remove / re-add: the CXL memory device becomes
 *    unreachable mid-run; outstanding and newly arriving requests
 *    complete-with-poison or abort per a containment policy, the NUMA
 *    node goes offline, and re-add restores the capacity empty;
 *  - poison-driven page offlining: consumed poison feeds a per-page
 *    error ledger (sim/lifecycle.hh) that offlines pages past a
 *    threshold and migrates live data off them.
 *
 * Everything is driven by a `--chaos-spec` schedule: no RNG draws of
 * its own, off by default, and bit-identical to a chaos-free build
 * when disabled (the whole layer is behind null-pointer tests).
 */

#ifndef CXLMEMO_SIM_CHAOS_HH
#define CXLMEMO_SIM_CHAOS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/specparse.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** What happens to requests caught by a hot-removed device. */
enum class ContainPolicy : std::uint8_t
{
    Poison, //!< complete with a poison indication (data is suspect)
    Abort,  //!< complete with an error, data contained (never seen)
};

const char *containPolicyName(ContainPolicy p);

/** The values of the spec grammars' contain= key. */
inline constexpr specparse::Name containPolicyNames[] = {
    {"poison", static_cast<int>(ContainPolicy::Poison)},
    {"abort", static_cast<int>(ContainPolicy::Abort)},
};

/**
 * Parsed `--chaos-spec`. All times are absolute simulation nanoseconds
 * (the schedule is a script, not a distribution); 0 means "never" for
 * every event. The default-constructed spec is fully disabled.
 */
struct ChaosSpec
{
    /** Scheduled link-down tick (ns); 0 = never. */
    std::uint64_t linkDownAtNs = 0;

    /** Retrain latency: link blocks for this long after going down. */
    double retrainNs = 2000.0;

    /** After retrain the link re-enters at the degraded-width ceiling
     *  and steps one width level back up every stepUpNs. */
    double stepUpNs = 3000.0;

    /** CRC errors observed *at* the degradation ceiling that trigger
     *  an un-scheduled link-down (0 = never). */
    std::uint32_t crcBurstTrigger = 0;

    /** Scheduled device hot-remove tick (ns); 0 = never. */
    std::uint64_t removeAtNs = 0;

    /** Scheduled re-add tick (ns); 0 = never (must follow remove). */
    std::uint64_t readdAtNs = 0;

    /** Containment policy for requests caught by a removal. */
    ContainPolicy contain = ContainPolicy::Poison;

    /** Latency of an aborted completion (device ruled unreachable). */
    double abortNs = 500.0;

    /** Consumed-poison events on one page before the host offlines it
     *  (0 = page offlining disabled). */
    std::uint32_t offlineThreshold = 0;

    /** Upper bound on offlined pages (containment of the ledger). */
    std::uint32_t maxOfflinePages = 64;

    /** Reserved for randomized drills; the scripted schedule above
     *  never draws from it. */
    std::uint64_t seed = 0xc4a05c4a05ULL;

    /** True when any failure is scheduled or armed. */
    bool
    enabled() const
    {
        return linkDownAtNs > 0 || crcBurstTrigger > 0 || removeAtNs > 0
               || offlineThreshold > 0;
    }

    /** The `--chaos-spec` key table (sim/chaos.cc); `memo --help`
     *  lists it. */
    static const specparse::Grammar<ChaosSpec> &grammar();

    /** @throw std::invalid_argument on out-of-range values. */
    void validate() const;

    /** Render in the `--chaos-spec` grammar (every key). */
    std::string
    toString() const
    {
        return specparse::print(grammar(), *this);
    }

    /**
     * Parse "key=value,key=value".
     * @return std::nullopt plus an error string on bad input.
     */
    static std::optional<ChaosSpec>
    parse(const std::string &text, std::string &error)
    {
        return specparse::parse(grammar(), text, error);
    }
};

/**
 * Failure-lifecycle accounting. Device-side fields (link/removal) and
 * host-side fields (page ledger) are owned by different components and
 * merged by Machine::chaosStats(); merge is exact and associative.
 */
struct ChaosStats
{
    /* ------------------------- link FSM -------------------------- */
    std::uint64_t linkDowns = 0;    //!< outages begun
    std::uint64_t retrains = 0;     //!< retrains completed
    std::uint64_t widthStepUps = 0; //!< post-retrain width recoveries
    std::uint64_t blockedMsgs = 0;  //!< messages nak'd into replay
    Tick linkDownAt = 0;            //!< last outage begin
    Tick linkDetectAt = 0;          //!< first blocked message
    Tick linkUpAt = 0;              //!< retrain done (degraded width)
    Tick linkFullWidthAt = 0;       //!< back at full width

    /* ------------------------ device FSM ------------------------- */
    std::uint64_t removals = 0;
    std::uint64_t readds = 0;
    std::uint64_t abortedReads = 0;
    std::uint64_t abortedWrites = 0;
    std::uint64_t abortedBytes = 0; //!< request bytes caught in removal
    Tick removeAt = 0;
    Tick removeDetectAt = 0; //!< first aborted request
    Tick readdAt = 0;

    /* ------------------------ page ledger ------------------------ */
    std::uint64_t poisonEvents = 0; //!< consumed-poison ledger feeds
    std::uint64_t pagesOfflined = 0;
    std::uint64_t offlinedBytes = 0;
    std::uint64_t migratedBytes = 0; //!< live data moved off (DSA)

    /** Bytes of live data resident on a failed resource when it
     *  failed (the headline data-at-risk figure). */
    std::uint64_t dataAtRiskBytes = 0;

    void merge(const ChaosStats &o);

    /** One-line summary for Machine::statsString / drill output. */
    std::string summary() const;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_CHAOS_HH
