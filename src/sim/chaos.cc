/**
 * @file
 * ChaosSpec key table and validation, ChaosStats merge/summary.
 */

#include "sim/chaos.hh"

#include <cstdio>
#include <stdexcept>

#include "sim/statmerge.hh"

namespace cxlmemo
{

const char *
containPolicyName(ContainPolicy p)
{
    return containPolicyNames[static_cast<int>(p)].name;
}

const specparse::Grammar<ChaosSpec> &
ChaosSpec::grammar()
{
    using specparse::anyTime;
    using specparse::Type;
    using specparse::positive;
    static const specparse::Field<ChaosSpec> fields[] = {
        {"link-down-at-ns", Type::U64, &ChaosSpec::linkDownAtNs, anyTime,
         "scheduled link-down time (0 = never)"},
        {"retrain-ns", Type::NsReal, &ChaosSpec::retrainNs, positive,
         "link blocked this long after down"},
        {"step-up-ns", Type::NsReal, &ChaosSpec::stepUpNs, positive,
         "per width level back up after retrain"},
        {"crc-burst", Type::U32, &ChaosSpec::crcBurstTrigger, {},
         "ceiling CRC errors that drop the link"},
        {"remove-at-ns", Type::U64, &ChaosSpec::removeAtNs, anyTime,
         "device hot-remove time (0 = never)"},
        {"readd-at-ns", Type::U64, &ChaosSpec::readdAtNs, anyTime,
         "device re-add time (0 = never)"},
        {"contain", Type::Enum, specparse::enumRef<&ChaosSpec::contain>(),
         {}, "fate of requests caught by a removal", containPolicyNames},
        {"abort-ns", Type::NsReal, &ChaosSpec::abortNs, positive,
         "latency of an aborted completion"},
        {"offline-threshold", Type::U32, &ChaosSpec::offlineThreshold, {},
         "poisons that offline a page (0 = off)"},
        {"max-offline-pages", Type::U32, &ChaosSpec::maxOfflinePages,
         {1, 4096}, "cap on offlined pages"},
        {"seed", Type::U64, &ChaosSpec::seed, {},
         "reserved for randomized drills"},
    };
    static const specparse::Grammar<ChaosSpec> g{"chaos-spec", fields};
    return g;
}

void
ChaosSpec::validate() const
{
    specparse::check(grammar(), *this);
    if (readdAtNs > 0 && removeAtNs == 0)
        throw std::invalid_argument(
            "chaos-spec: readd-at-ns needs remove-at-ns");
    if (readdAtNs > 0 && readdAtNs <= removeAtNs)
        throw std::invalid_argument(
            "chaos-spec: readd-at-ns must be after remove-at-ns");
}

void
ChaosStats::merge(const ChaosStats &o)
{
    mergeCounters(*this, o, &ChaosStats::linkDowns, &ChaosStats::retrains,
                  &ChaosStats::widthStepUps, &ChaosStats::blockedMsgs,
                  &ChaosStats::removals, &ChaosStats::readds,
                  &ChaosStats::abortedReads, &ChaosStats::abortedWrites,
                  &ChaosStats::abortedBytes, &ChaosStats::poisonEvents,
                  &ChaosStats::pagesOfflined, &ChaosStats::offlinedBytes,
                  &ChaosStats::migratedBytes,
                  &ChaosStats::dataAtRiskBytes);
    // Timestamps: each side owns its own (device: link/removal, host:
    // ledger), so a nonzero value wins; concurrent nonzeros take max.
    mergeTimestamps(*this, o, &ChaosStats::linkDownAt,
                    &ChaosStats::linkDetectAt, &ChaosStats::linkUpAt,
                    &ChaosStats::linkFullWidthAt, &ChaosStats::removeAt,
                    &ChaosStats::removeDetectAt, &ChaosStats::readdAt);
}

std::string
ChaosStats::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "link-downs=%llu retrains=%llu step-ups=%llu blocked=%llu "
        "removals=%llu readds=%llu aborted=%llu/%llu "
        "aborted-bytes=%llu pages-offlined=%llu offlined-bytes=%llu "
        "migrated-bytes=%llu data-at-risk=%llu",
        static_cast<unsigned long long>(linkDowns),
        static_cast<unsigned long long>(retrains),
        static_cast<unsigned long long>(widthStepUps),
        static_cast<unsigned long long>(blockedMsgs),
        static_cast<unsigned long long>(removals),
        static_cast<unsigned long long>(readds),
        static_cast<unsigned long long>(abortedReads),
        static_cast<unsigned long long>(abortedWrites),
        static_cast<unsigned long long>(abortedBytes),
        static_cast<unsigned long long>(pagesOfflined),
        static_cast<unsigned long long>(offlinedBytes),
        static_cast<unsigned long long>(migratedBytes),
        static_cast<unsigned long long>(dataAtRiskBytes));
    return buf;
}

} // namespace cxlmemo
