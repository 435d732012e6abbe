/**
 * @file
 * ChaosSpec parsing/validation and ChaosStats merge/summary.
 */

#include "sim/chaos.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "sim/specparse.hh"
#include "sim/statmerge.hh"

namespace cxlmemo
{

namespace
{

using specparse::parseF;
using specparse::parseU32;
using specparse::parseU64;

} // namespace

const char *
containPolicyName(ContainPolicy p)
{
    switch (p) {
    case ContainPolicy::Poison:
        return "poison";
    case ContainPolicy::Abort:
        return "abort";
    }
    return "?";
}

void
ChaosSpec::validate() const
{
    if (!(retrainNs > 0.0))
        throw std::invalid_argument(
            "ChaosSpec: retrain-ns must be positive");
    if (!(stepUpNs > 0.0))
        throw std::invalid_argument(
            "ChaosSpec: step-up-ns must be positive");
    if (!(abortNs > 0.0))
        throw std::invalid_argument(
            "ChaosSpec: abort-ns must be positive");
    if (readdAtNs > 0 && removeAtNs == 0)
        throw std::invalid_argument(
            "ChaosSpec: readd-at-ns needs remove-at-ns");
    if (readdAtNs > 0 && readdAtNs <= removeAtNs)
        throw std::invalid_argument(
            "ChaosSpec: readd-at-ns must be after remove-at-ns");
    if (maxOfflinePages == 0 || maxOfflinePages > 4096)
        throw std::invalid_argument(
            "ChaosSpec: max-offline-pages must be in [1,4096]");
}

std::string
ChaosSpec::toString() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "link-down-at-ns=%llu,retrain-ns=%g,step-up-ns=%g,"
                  "crc-burst=%u,remove-at-ns=%llu,readd-at-ns=%llu,"
                  "contain=%s,offline-threshold=%u",
                  static_cast<unsigned long long>(linkDownAtNs),
                  retrainNs, stepUpNs, crcBurstTrigger,
                  static_cast<unsigned long long>(removeAtNs),
                  static_cast<unsigned long long>(readdAtNs),
                  containPolicyName(contain), offlineThreshold);
    return buf;
}

std::optional<ChaosSpec>
ChaosSpec::parse(const std::string &text, std::string &error)
{
    ChaosSpec spec;
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
            error = "chaos-spec item needs key=value: " + item;
            return std::nullopt;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        double f = 0.0;
        std::uint64_t n = 0;
        std::uint32_t n32 = 0;
        if (key == "link-down-at-ns" && parseU64(value, n)) {
            spec.linkDownAtNs = n;
        } else if (key == "retrain-ns" && parseF(value, f)) {
            spec.retrainNs = f;
        } else if (key == "step-up-ns" && parseF(value, f)) {
            spec.stepUpNs = f;
        } else if (key == "crc-burst" && parseU32(value, n32)) {
            spec.crcBurstTrigger = n32;
        } else if (key == "remove-at-ns" && parseU64(value, n)) {
            spec.removeAtNs = n;
        } else if (key == "readd-at-ns" && parseU64(value, n)) {
            spec.readdAtNs = n;
        } else if (key == "contain") {
            if (value == "poison") {
                spec.contain = ContainPolicy::Poison;
            } else if (value == "abort") {
                spec.contain = ContainPolicy::Abort;
            } else {
                error = "bad contain policy (poison|abort): " + value;
                return std::nullopt;
            }
        } else if (key == "abort-ns" && parseF(value, f)) {
            spec.abortNs = f;
        } else if (key == "offline-threshold" && parseU32(value, n32)) {
            spec.offlineThreshold = n32;
        } else if (key == "max-offline-pages" && parseU32(value, n32)) {
            spec.maxOfflinePages = n32;
        } else if (key == "seed" && parseU64(value, n)) {
            spec.seed = n;
        } else {
            error = "bad chaos-spec item: " + item;
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
