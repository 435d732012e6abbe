#include "sim/qos.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cxlmemo
{

namespace
{

const specparse::Name qosPolicyNames[] = {
    {"none", static_cast<int>(QosPolicy::None)},
    {"linear", static_cast<int>(QosPolicy::Linear)},
    {"aimd", static_cast<int>(QosPolicy::Aimd)},
};

} // namespace

const char *
qosPolicyName(QosPolicy p)
{
    return qosPolicyNames[static_cast<int>(p)].name;
}

const char *
devLoadName(DevLoad l)
{
    switch (l) {
      case DevLoad::Light:
        return "light";
      case DevLoad::Optimal:
        return "optimal";
      case DevLoad::Moderate:
        return "moderate";
      case DevLoad::Severe:
        return "severe";
    }
    return "?";
}

const specparse::Grammar<QosSpec> &
QosSpec::grammar()
{
    using specparse::Type;
    using specparse::positive;
    static const specparse::Field<QosSpec> fields[] = {
        {"credits", Type::U32, &QosSpec::rdCredits, {},
         "sets rd-credits and wr-credits", {}, &QosSpec::wrCredits, true},
        {"rd-credits", Type::U32, &QosSpec::rdCredits, {0, 4096},
         "read-request M2S credits (0 = uncapped)"},
        {"wr-credits", Type::U32, &QosSpec::wrCredits, {0, 4096},
         "write-data M2S credits (0 = uncapped)"},
        {"policy", Type::Enum, specparse::enumRef<&QosSpec::policy>(), {},
         "host throttle policy", qosPolicyNames},
        {"target", Type::Real, &QosSpec::target, {0, 2, true},
         "DevLoad target occupancy fraction"},
        {"ewma-ns", Type::Ns, &QosSpec::ewmaTau, positive,
         "load-signal EWMA time constant"},
        {"period-ns", Type::Ns, &QosSpec::adjustPeriod, positive,
         "min time between rate adjustments"},
        {"ai", Type::Real, &QosSpec::ai, {0, 1, true}, "AIMD additive step"},
        {"md", Type::Real, &QosSpec::md, {0, 1, true, true},
         "AIMD multiplicative decrease factor"},
        {"floor", Type::Real, &QosSpec::floor, {0, 1, true},
         "minimum host rate fraction"},
        {"slope", Type::Real, &QosSpec::slope, positive,
         "linear-policy slope"},
        {"burst", Type::U32, &QosSpec::burstLines, {1, 64},
         "token-bucket burst, in lines"},
        {"line-ns", Type::Ns, &QosSpec::lineCost, positive,
         "unthrottled per-line issue cost"},
    };
    static const specparse::Grammar<QosSpec> g{"qos-spec", fields};
    return g;
}

void
QosSpec::validate() const
{
    specparse::check(grammar(), *this);
}

void
DevLoadMeter::sample(double inst, Tick now)
{
    if (now > last_) {
        // The previous instantaneous occupancy held over the elapsed
        // interval; decay the smoothed signal toward it.
        const double a =
            std::exp(-static_cast<double>(now - last_) / tau_);
        load_ = prev_ + (load_ - prev_) * a;
        last_ = now;
    }
    prev_ = inst;
}

DevLoad
DevLoadMeter::level() const
{
    // Bands of +/-0.1 around the target occupancy, mirroring the
    // spec's four-level quantization.
    constexpr double band = 0.1;
    if (load_ >= target_ + band)
        return DevLoad::Severe;
    if (load_ >= target_)
        return DevLoad::Moderate;
    if (load_ >= target_ - band)
        return DevLoad::Optimal;
    return DevLoad::Light;
}

std::string
QosStats::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "credit-stalls=%llu credit-stall-ns=%llu rd-ledger=%llu/%llu/%llu "
        "wr-ledger=%llu/%llu/%llu ledger=%s devload=%.3f rate=%.3f "
        "min-rate=%.3f incr=%llu decr=%llu throttle-ns=%llu",
        static_cast<unsigned long long>(rdCreditStalls + wrCreditStalls),
        static_cast<unsigned long long>(creditStallTicks / tickPerNs),
        static_cast<unsigned long long>(rdIssued),
        static_cast<unsigned long long>(rdReturned),
        static_cast<unsigned long long>(rdInFlight),
        static_cast<unsigned long long>(wrIssued),
        static_cast<unsigned long long>(wrReturned),
        static_cast<unsigned long long>(wrInFlight),
        ledgerOk ? "ok" : "LEAK",
        devLoad, rate, minRate,
        static_cast<unsigned long long>(rateIncreases),
        static_cast<unsigned long long>(rateDecreases),
        static_cast<unsigned long long>(throttleDelayTicks / tickPerNs));
    return buf;
}

HostThrottle::HostThrottle(const QosSpec &spec, std::uint32_t numCores)
    : spec_(spec), buckets_(numCores)
{
    spec_.validate();
    for (Bucket &b : buckets_)
        b.tokens = static_cast<double>(spec_.burstLines);
}

void
HostThrottle::observe(double load, DevLoad level, Tick now)
{
    if (spec_.policy == QosPolicy::None)
        return;
    if (now < nextAdjust_)
        return;
    nextAdjust_ = now + spec_.adjustPeriod;

    const double before = rate_;
    if (spec_.policy == QosPolicy::Aimd) {
        switch (level) {
          case DevLoad::Light:
            rate_ += spec_.ai;
            break;
          case DevLoad::Optimal:
            break;
          case DevLoad::Moderate:
            rate_ -= spec_.ai;
            break;
          case DevLoad::Severe:
            rate_ *= spec_.md;
            break;
        }
    } else {
        rate_ = 1.0 - spec_.slope * (load - spec_.target);
    }
    rate_ = std::clamp(rate_, spec_.floor, 1.0);
    if (rate_ > before)
        ++increases_;
    else if (rate_ < before)
        ++decreases_;
    minRate_ = std::min(minRate_, rate_);
}

Tick
HostThrottle::issueDelay(std::uint16_t core, Tick at)
{
    Bucket &b = buckets_[core];
    if (rate_ >= 1.0) {
        // Unthrottled: keep the bucket full so the first paced issue
        // after a rate cut still gets its burst.
        b.tokens = static_cast<double>(spec_.burstLines);
        b.lastRefill = at;
        return 0;
    }
    const double perTick = rate_ / static_cast<double>(spec_.lineCost);
    if (at > b.lastRefill) {
        b.tokens = std::min(
            static_cast<double>(spec_.burstLines),
            b.tokens + static_cast<double>(at - b.lastRefill) * perTick);
        b.lastRefill = at;
    }
    if (b.tokens >= 1.0) {
        b.tokens -= 1.0;
        return 0;
    }
    // Dry bucket: sleep until a FULL burst accrues, not just one
    // token. Waiting per-token would space throttled stores evenly,
    // interleaving single lines from every core at the device and
    // destroying DRAM row locality -- the exact failure mode the
    // throttle exists to avoid. Sleeping for the whole burst keeps
    // issues in back-to-back same-row runs at the same long-run rate.
    const double burst = static_cast<double>(spec_.burstLines);
    const double need = burst - b.tokens;
    const Tick delay = static_cast<Tick>(std::ceil(need / perTick));
    b.tokens = burst - 1.0;
    b.lastRefill = at + delay;
    ++delays_;
    delayTicks_ += delay;
    return delay;
}

void
HostThrottle::fillStats(QosStats &qs) const
{
    qs.rate = rate_;
    qs.minRate = minRate_;
    qs.rateIncreases = increases_;
    qs.rateDecreases = decreases_;
    qs.throttleDelays = delays_;
    qs.throttleDelayTicks = delayTicks_;
}

} // namespace cxlmemo
