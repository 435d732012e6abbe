#include "sim/fault.hh"

#include <cstdio>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/specparse.hh"

namespace cxlmemo
{

namespace
{

using specparse::parseF;
using specparse::parseU32;
using specparse::parseU64;

void
requireRate(double v, const char *what)
{
    if (!(v >= 0.0 && v <= 1.0)) {
        throw std::invalid_argument(
            std::string("FaultSpec: ") + what
            + " must be a probability in [0,1]");
    }
}

} // namespace

void
FaultSpec::validate() const
{
    requireRate(crcPerFlit, "crc rate");
    requireRate(readPoisonRate, "poison rate");
    requireRate(timeoutRate, "timeout rate");
    requireRate(drainStallRate, "drain-stall rate");
    requireRate(dramStallRate, "dram-stall rate");
    if (maxHostRetries == 0 || maxHostRetries > 16)
        throw std::invalid_argument(
            "FaultSpec: retries must be in [1,16]");
    if (requestTimeout == 0)
        throw std::invalid_argument(
            "FaultSpec: timeout-ns must be positive");
    if (backoffBase == 0)
        throw std::invalid_argument(
            "FaultSpec: backoff-ns must be positive");
    if (degradeWindow == 0)
        throw std::invalid_argument(
            "FaultSpec: degrade-window-ns must be positive");
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

std::string
FaultSpec::toString() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "crc=%g,poison=%g,timeout=%g,drain=%g,dram=%g,seed=%llu",
                  crcPerFlit, readPoisonRate, timeoutRate, drainStallRate,
                  dramStallRate, static_cast<unsigned long long>(seed));
    return buf;
}

std::optional<FaultSpec>
FaultSpec::parse(const std::string &text, std::string &error)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "fault-spec item needs key=value: " + item;
            return std::nullopt;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        double rate = 0.0;
        std::uint64_t num = 0;
        std::uint32_t num32 = 0;
        if (key == "crc" && parseF(value, rate)) {
            spec.crcPerFlit = rate;
        } else if (key == "poison" && parseF(value, rate)) {
            spec.readPoisonRate = rate;
        } else if (key == "timeout" && parseF(value, rate)) {
            spec.timeoutRate = rate;
        } else if (key == "drain" && parseF(value, rate)) {
            spec.drainStallRate = rate;
        } else if (key == "dram" && parseF(value, rate)) {
            spec.dramStallRate = rate;
        } else if (key == "stall-ns" && parseF(value, rate)
                   && rate >= 0.0) {
            spec.drainStallTicks = ticksFromNs(rate);
            spec.dramStallTicks = ticksFromNs(rate);
        } else if (key == "timeout-ns" && parseF(value, rate)
                   && rate > 0.0) {
            spec.requestTimeout = ticksFromNs(rate);
        } else if (key == "backoff-ns" && parseF(value, rate)
                   && rate > 0.0) {
            spec.backoffBase = ticksFromNs(rate);
        } else if (key == "retries" && parseU32(value, num32)) {
            spec.maxHostRetries = num32;
        } else if (key == "degrade" && parseU32(value, num32)) {
            spec.degradeBurst = num32;
        } else if (key == "degrade-window-ns" && parseF(value, rate)
                   && rate > 0.0) {
            spec.degradeWindow = ticksFromNs(rate);
        } else if (key == "seed" && parseU64(value, num)) {
            spec.seed = num;
        } else {
            error = "bad fault-spec item: " + item;
            return std::nullopt;
        }
    }
    try {
        spec.validate();
    } catch (const std::invalid_argument &e) {
        error = e.what();
        return std::nullopt;
    }
    return spec;
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
