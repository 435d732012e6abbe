#include "sim/fault.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace cxlmemo
{

const specparse::Grammar<FaultSpec> &
FaultSpec::grammar()
{
    using specparse::Type;
    using specparse::positive;
    static const specparse::Field<FaultSpec> fields[] = {
        {"crc", Type::Real, &FaultSpec::crcPerFlit, {0, 1},
         "per-flit CRC error probability"},
        {"poison", Type::Real, &FaultSpec::readPoisonRate, {0, 1},
         "per-DRAM-read poisoned-line probability"},
        {"timeout", Type::Real, &FaultSpec::timeoutRate, {0, 1},
         "per-request timeout probability"},
        {"drain", Type::Real, &FaultSpec::drainStallRate, {0, 1},
         "per-write stuck-drain episode probability"},
        {"dram", Type::Real, &FaultSpec::dramStallRate, {0, 1},
         "per-access DRAM channel-stall probability"},
        {"stall-ns", Type::Ns, &FaultSpec::drainStallTicks, {},
         "drain and DRAM stall episode length", {},
         &FaultSpec::dramStallTicks},
        {"timeout-ns", Type::Ns, &FaultSpec::requestTimeout, positive,
         "host completion-timer value"},
        {"backoff-ns", Type::Ns, &FaultSpec::backoffBase, positive,
         "first retry backoff (doubles, max 16x)"},
        {"retries", Type::U32, &FaultSpec::maxHostRetries, {1, 16},
         "max host retries per request"},
        {"degrade", Type::U32, &FaultSpec::degradeBurst, {},
         "CRC errors per link downgrade (0 = never)"},
        {"degrade-window-ns", Type::Ns, &FaultSpec::degradeWindow,
         positive, "at most one downgrade per window"},
        {"seed", Type::U64, &FaultSpec::seed, {}, "fault RNG stream seed"},
    };
    static const specparse::Grammar<FaultSpec> g{"fault-spec", fields};
    return g;
}

void
FaultSpec::validate() const
{
    specparse::check(grammar(), *this);
    // Legal but almost certainly not what the user wants: past ~10%
    // per-event rates, recovery (replays, retries, stalls) dominates
    // run time and the run measures the recovery machinery, not the
    // memory system. Warn once, not per validation call.
    if (crcPerFlit > 0.1 || readPoisonRate > 0.1 || timeoutRate > 0.1
        || drainStallRate > 0.1 || dramStallRate > 0.1) {
        CXLMEMO_WARN_ONCE(
            "fault-spec rate above 0.1: recovery traffic will dominate "
            "the run (%s)", toString().c_str());
    }
}

void
RasStats::merge(const RasStats &o)
{
    crcErrors += o.crcErrors;
    linkRetries += o.linkRetries;
    flitsReplayed += o.flitsReplayed;
    replayBytes += o.replayBytes;
    retryTicks += o.retryTicks;
    timeouts += o.timeouts;
    hostRetries += o.hostRetries;
    backoffTicks += o.backoffTicks;
    drainStalls += o.drainStalls;
    dramStalls += o.dramStalls;
    poisonInjected += o.poisonInjected;
    poisonConsumed += o.poisonConsumed;
    poisonDelivered += o.poisonDelivered;
    poisonContained += o.poisonContained;
    linkDegradations += o.linkDegradations;
}

std::string
RasStats::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "crc-errors=%llu link-retries=%llu replay-bytes=%llu "
        "timeouts=%llu host-retries=%llu drain-stalls=%llu "
        "dram-stalls=%llu poison-injected=%llu poison-consumed=%llu "
        "poison-delivered=%llu poison-contained=%llu degradations=%llu",
        static_cast<unsigned long long>(crcErrors),
        static_cast<unsigned long long>(linkRetries),
        static_cast<unsigned long long>(replayBytes),
        static_cast<unsigned long long>(timeouts),
        static_cast<unsigned long long>(hostRetries),
        static_cast<unsigned long long>(drainStalls),
        static_cast<unsigned long long>(dramStalls),
        static_cast<unsigned long long>(poisonInjected),
        static_cast<unsigned long long>(poisonConsumed),
        static_cast<unsigned long long>(poisonDelivered),
        static_cast<unsigned long long>(poisonContained),
        static_cast<unsigned long long>(linkDegradations));
    return buf;
}

} // namespace cxlmemo
