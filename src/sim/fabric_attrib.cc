#include "sim/fabric_attrib.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cxlmemo
{

namespace
{

using logging_detail::format;

const char *const fabricNames[numFabricStations] = {
    "sw.credit_wait", "sw.voq_wait", "sw.arb", "sw.wire",
    "sw.dev_service",
};

} // namespace

const char *
stationName(FabricStation id)
{
    return fabricNames[static_cast<std::size_t>(id)];
}

void
FabricSnapshot::merge(const FabricSnapshot &o)
{
    elapsed += o.elapsed;
    if (ports.size() < o.ports.size())
        ports.resize(o.ports.size());
    for (std::size_t i = 0; i < o.ports.size(); ++i)
        ports[i].merge(o.ports[i]);
}

FabricPortSnap
FabricSnapshot::cluster() const
{
    FabricPortSnap all;
    for (const auto &p : ports)
        all.merge(p);
    return all;
}

bool
FabricSnapshot::decompositionExact() const
{
    for (const auto &p : ports)
        if (!p.decompositionExact())
            return false;
    return true;
}

bool
FabricSnapshot::littleOk(double tol) const
{
    for (const auto &p : ports)
        if (!p.littleOk(elapsed, tol))
            return false;
    return cluster().littleOk(elapsed, tol);
}

std::uint32_t
FabricSnapshot::hotPort() const
{
    // The same measure the regime test saturates on: per-port wire /
    // arb serialization demand (busy ticks). Waiting time is excluded
    // deliberately -- dev_service occupancy is the shared backend's,
    // and queueing charges the *victim's* port (its requests wait
    // longest) rather than the flooding aggressor's.
    std::uint32_t hot = 0;
    std::uint64_t best = 0;
    for (std::size_t p = 0; p < ports.size(); ++p) {
        const std::uint64_t work =
            std::max(ports[p].at(FabricStation::Arb).busyTicks,
                     ports[p].at(FabricStation::Wire).busyTicks);
        if (work > best) {
            best = work;
            hot = static_cast<std::uint32_t>(p);
        }
    }
    return hot;
}

std::string
FabricSnapshot::verdict() const
{
    const FabricPortSnap cw = cluster();
    const double devUtil = cw.util(FabricStation::DevService, elapsed);
    double portUtil = 0.0;
    for (const auto &p : ports)
        portUtil = std::max(
            portUtil, std::max(p.util(FabricStation::Wire, elapsed),
                               p.util(FabricStation::Arb, elapsed)));
    const std::uint32_t hot = hotPort();
    // A saturated port wire outranks the device pool in a near-tie:
    // the wire backs the pool up, not the other way around.
    const char *regime = "host-local";
    double u = std::max(devUtil, portUtil);
    if (portUtil >= 0.5 && portUtil >= devUtil - 0.02) {
        regime = "congested-port";
        u = portUtil;
    } else if (devUtil >= 0.5) {
        regime = "pooled-device-backend";
        u = devUtil;
    }
    return format("fabric=%s hot=port%u fabric_util=%.2f", regime, hot, u);
}

std::string
FabricSnapshot::table() const
{
    std::string out;
    out += format("  %-5s %-15s %6s %9s %10s %10s %10s\n", "port",
                  "station", "util", "avg_occ", "queue_ns", "svc_ns",
                  "little_dev");
    for (std::size_t p = 0; p < ports.size(); ++p) {
        const FabricPortSnap &ps = ports[p];
        if (ps.reqCount == 0)
            continue;
        for (std::size_t i = 0; i < numFabricStations; ++i) {
            const FabricStation id = FabricPortSnap::idAt(i);
            out += format("  %-5zu %-15s %6.3f %9.2f %10.1f %10.1f %10.4f\n",
                          p, stationName(id), ps.util(id, elapsed),
                          ps.avgOccupancy(id, elapsed),
                          ps.componentQueueNs(id), ps.componentServiceNs(id),
                          ps.littleDeviation(id, elapsed));
        }
        out += format("  %-5zu %-15s avg %.1f ns over %llu reqs  "
                      "other %.1f ns  (stack %s)\n",
                      p, "total", ps.avgTotalNs(),
                      static_cast<unsigned long long>(ps.reqCount),
                      ps.otherNs(),
                      ps.decompositionExact() ? "exact" : "VIOLATED");
    }
    out += "  " + verdict()
           + format("  (little's law %s)\n", littleOk() ? "ok" : "VIOLATED");
    return out;
}

std::string
FabricSnapshot::postMortem() const
{
    std::string out = "fabric attribution at trip time:\n";
    for (std::size_t p = 0; p < ports.size(); ++p) {
        const FabricPortSnap &ps = ports[p];
        if (ps.reqCount == 0)
            continue;
        std::string stuck;
        for (std::size_t i = 0; i < numFabricStations; ++i) {
            const StationSnap &s = ps.st[i];
            const long long in = static_cast<long long>(s.enters)
                                 - static_cast<long long>(s.exits);
            if (in > 0)
                stuck += format(" %s=%lld",
                                stationName(FabricPortSnap::idAt(i)), in);
        }
        out += format("  port%zu: %llu reqs  wire_util %.3f  "
                      "dev_util %.3f  in-station:%s\n",
                      p, static_cast<unsigned long long>(ps.reqCount),
                      ps.util(FabricStation::Wire, elapsed),
                      ps.util(FabricStation::DevService, elapsed),
                      stuck.empty() ? " none" : stuck.c_str());
    }
    out += "  " + verdict() + "\n";
    return out;
}

FabricBoard::FabricBoard(std::uint32_t ports, std::uint32_t devices,
                         Tick now)
    : ports_(ports, StationBoard<FabricStation>(now)), windowStart_(now)
{
    for (auto &p : ports_) {
        p.station(FabricStation::CreditWait).buffer = true;
        p.station(FabricStation::VoqWait).buffer = true;
        // The device pool is shared: its utilization denominator is
        // the device count, so the cluster roll-up reads as pool
        // occupancy rather than per-port line rate.
        p.station(FabricStation::DevService).servers =
            std::max<std::uint32_t>(devices, 1);
    }
}

void
FabricBoard::beginWindow(Tick now)
{
    windowStart_ = now;
    for (auto &p : ports_)
        p.beginWindow(now);
}

FabricSnapshot
FabricBoard::snapshot(Tick now) const
{
    FabricSnapshot snap;
    snap.elapsed = now >= windowStart_ ? now - windowStart_ : 0;
    snap.ports.reserve(ports_.size());
    for (const auto &p : ports_)
        snap.ports.push_back(p.snapshot(now));
    return snap;
}

} // namespace cxlmemo
