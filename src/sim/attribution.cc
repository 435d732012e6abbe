#include "sim/attribution.hh"

#include "sim/logging.hh"

namespace cxlmemo
{

namespace
{

using logging_detail::format;

const char *const stationNames[numStations] = {
    "core.lfb",    "cache",       "dram",       "upi",
    "cxl.m2s",     "cxl.credit",  "cxl.ingress", "cxl.backend",
    "cxl.egress",  "cxl.s2m",     "dsa",
};

} // namespace

const char *
stationName(StationId id)
{
    return stationNames[static_cast<std::size_t>(id)];
}

void
AccountedStation::reset(Tick now)
{
    enters = 0;
    exits = 0;
    queueTicks = 0;
    serviceTicks = 0;
    busyTicks = 0;
    occIntegral = 0;
    stackQueueTicks = 0;
    stackServiceTicks = 0;
    lastOcc = now;
    intervalEnd = now;
}

StationSnap
AccountedStation::snap(Tick now) const
{
    StationSnap o;
    o.servers = servers;
    o.buffer = buffer;
    o.enters = enters;
    o.exits = exits;
    o.queueTicks = queueTicks;
    o.serviceTicks = serviceTicks;
    o.busyTicks = busyTicks;
    o.occIntegral = occIntegral;
    if (now > lastOcc)
        o.occIntegral += std::uint64_t(occupancy) * (now - lastOcc);
    o.stackQueueTicks = stackQueueTicks;
    o.stackServiceTicks = stackServiceTicks;
    return o;
}

void
StationSnap::merge(const StationSnap &o)
{
    mergeCounters(*this, o, &StationSnap::enters, &StationSnap::exits,
                  &StationSnap::queueTicks, &StationSnap::serviceTicks,
                  &StationSnap::busyTicks, &StationSnap::occIntegral,
                  &StationSnap::stackQueueTicks,
                  &StationSnap::stackServiceTicks);
    servers = std::max(servers, o.servers);
    buffer = buffer || o.buffer;
}

void
AttribSnapshot::merge(const AttribSnapshot &o)
{
    StationRollup::merge(o);
    mergeCounters(*this, o, &AttribSnapshot::elapsed,
                  &AttribSnapshot::devReads, &AttribSnapshot::devWrites);
}

bool
AttribSnapshot::littleOk(double tol) const
{
    return StationRollup::littleOk(elapsed, tol, StationId::CoreLfb);
}

double
AttribSnapshot::queueShare(StationId id) const
{
    const StationSnap &s = at(id);
    const std::uint64_t resid = s.queueTicks + s.serviceTicks;
    if (resid == 0)
        return 0.0;
    return static_cast<double>(s.queueTicks)
           / static_cast<double>(resid);
}

StationId
AttribSnapshot::bottleneck() const
{
    // Posted-write floods are acknowledged at the controller ingress;
    // the drain to the back-end is off the host-visible path.
    const bool writeHeavy = devWrites > 3 * devReads && devWrites > 0;

    auto active = [this](StationId id) {
        return at(id).exits != 0 || at(id).enters != 0;
    };
    // Highest utilization among active stations passing @p keep;
    // near-ties (within 0.02) go to the more downstream station (enum
    // order): the root cause, not the backed-up symptom.
    auto argmaxUtil = [&](auto keep) {
        StationId best = StationId::CoreLfb;
        double bestUtil = -1.0;
        for (std::size_t i = 0; i < numStations; ++i) {
            const StationId id = idAt(i);
            if (!active(id) || !keep(id))
                continue;
            const double u = util(id, elapsed);
            if (u >= bestUtil - 0.02) {
                best = id;
                bestUtil = std::max(bestUtil, u);
            }
        }
        return best;
    };

    if (writeHeavy) {
        return argmaxUtil([](StationId id) {
            return id != StationId::CxlBackend
                   && id != StationId::CxlEgress
                   && id != StationId::CxlS2m;
        });
    }

    // Read path: a saturated *server* outranks any full buffer (the
    // buffer fills *because* the server behind it is slow).
    const StationId server =
        argmaxUtil([this](StationId id) { return !at(id).buffer; });
    if (util(server, elapsed) >= 0.5)
        return server;

    // Nothing saturated: latency-bound. Name the largest stack
    // contributor (fall back to utilization with no bracketed reads).
    if (stackTicks() > 0) {
        StationId best = StationId::CoreLfb;
        std::uint64_t bestTicks = 0;
        for (std::size_t i = 0; i < numStations; ++i) {
            const StationId id = idAt(i);
            const std::uint64_t t =
                at(id).stackQueueTicks + at(id).stackServiceTicks;
            if (t >= bestTicks && t > 0) {
                best = id;
                bestTicks = t;
            }
        }
        return best;
    }
    return argmaxUtil([](StationId) { return true; });
}

std::string
AttribSnapshot::verdict() const
{
    const StationId b = bottleneck();
    return format("bottleneck=%s util=%.2f queue_share=%.2f",
                  stationName(b), util(b, elapsed), queueShare(b));
}

std::string
AttribSnapshot::statLines() const
{
    std::string out;
    out += format("attrib: window %.1f us, %llu demand reads, "
                  "avg total %.1f ns (stack %s, little %s)\n",
                  usFromTicks(elapsed),
                  static_cast<unsigned long long>(reqCount), avgTotalNs(),
                  decompositionExact() ? "exact" : "VIOLATED",
                  littleOk() ? "ok" : "VIOLATED");
    for (std::size_t i = 0; i < numStations; ++i) {
        const StationId id = idAt(i);
        const StationSnap &s = at(id);
        if (s.enters == 0 && s.exits == 0)
            continue;
        out += format("attrib: %-11s util %.3f  occ %8.2f  "
                      "q %8.1f ns  s %8.1f ns  n %llu\n",
                      stationName(id), util(id, elapsed),
                      avgOccupancy(id, elapsed), componentQueueNs(id),
                      componentServiceNs(id),
                      static_cast<unsigned long long>(s.exits));
    }
    out += format("attrib: %-11s q %8.1f ns (residual)\n", "other",
                  otherNs());
    out += "attrib: " + verdict() + "\n";
    return out;
}

std::string
AttribSnapshot::table() const
{
    std::string out;
    out += format("  %-12s %6s %9s %10s %10s %7s %10s\n", "station",
                  "util", "avg_occ", "queue_ns", "svc_ns", "share",
                  "little_dev");
    const double total = avgTotalNs();
    for (std::size_t i = 0; i < numStations; ++i) {
        const StationId id = idAt(i);
        const StationSnap &s = at(id);
        if (s.enters == 0 && s.exits == 0)
            continue;
        const double q = componentQueueNs(id);
        const double sv = componentServiceNs(id);
        const double share = total > 0.0 ? (q + sv) / total : 0.0;
        out += format("  %-12s %6.3f %9.2f %10.1f %10.1f %6.1f%% %10.4f\n",
                      stationName(id), util(id, elapsed),
                      avgOccupancy(id, elapsed), q, sv, share * 100.0,
                      littleDeviation(id, elapsed));
    }
    const double oshare = total > 0.0 ? otherNs() / total : 0.0;
    out += format("  %-12s %6s %9s %10s %10.1f %6.1f%%\n", "other", "-",
                  "-", "-", otherNs(), oshare * 100.0);
    out += format("  %-12s avg %.1f ns over %llu reads  (stack %s, "
                  "little's law %s)\n",
                  "total", total,
                  static_cast<unsigned long long>(reqCount),
                  decompositionExact() ? "exact" : "VIOLATED",
                  littleOk() ? "ok" : "VIOLATED");
    out += "  " + verdict() + "\n";
    return out;
}

std::string
AttribSnapshot::postMortem() const
{
    std::string out = "attribution at trip time:\n";
    for (std::size_t i = 0; i < numStations; ++i) {
        const StationId id = idAt(i);
        const StationSnap &s = at(id);
        if (s.enters == 0 && s.exits == 0)
            continue;
        out += format("  %-11s util %.3f  occ %.2f  in-station %lld  "
                      "q %.1f ns\n",
                      stationName(id), util(id, elapsed),
                      avgOccupancy(id, elapsed),
                      static_cast<long long>(s.enters)
                          - static_cast<long long>(s.exits),
                      avgResidencyNs(id) * queueShare(id));
    }
    out += "  " + verdict() + "\n";
    return out;
}

void
AttributionBoard::setServers(StationId id, std::uint32_t servers,
                             bool buffer)
{
    AccountedStation &s = station(id);
    s.servers = std::max<std::uint32_t>(servers, 1);
    s.buffer = buffer;
}

void
AttributionBoard::beginWindow(Tick now)
{
    windowStart_ = now;
    devReads_ = 0;
    devWrites_ = 0;
    StationBoard::beginWindow(now);
}

AttribSnapshot
AttributionBoard::snapshot(Tick now) const
{
    return {StationBoard::snapshot(now),
            now >= windowStart_ ? now - windowStart_ : 0, devReads_,
            devWrites_};
}

} // namespace cxlmemo
