/**
 * @file
 * Cluster implementation: PoolSpec grammar, host generators, fencing
 * FSM, and the fabric glue between hosts, switch and pool manager.
 */

#include "system/cluster.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "cxl/device.hh"
#include "sim/logging.hh"
#include "system/machine.hh"

namespace cxlmemo
{

namespace
{

constexpr std::uint64_t fnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t fnvPrime = 1099511628211ULL;

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
    return h;
}

} // namespace

/* ------------------------------ PoolSpec ------------------------- */

bool
PoolSpec::disturbed() const
{
    return aggressor >= 0 || crashHost >= 0 || poisonHost >= 0
           || portDownHost >= 0;
}

std::int32_t
PoolSpec::victimHost() const
{
    for (std::uint32_t h = 0; h < hosts; ++h) {
        if (static_cast<std::int32_t>(h) != aggressor
            && static_cast<std::int32_t>(h) != crashHost
            && static_cast<std::int32_t>(h) != poisonHost
            && static_cast<std::int32_t>(h) != portDownHost) {
            return static_cast<std::int32_t>(h);
        }
    }
    return -1;
}

PoolSpec
PoolSpec::isolationBaseline() const
{
    PoolSpec b = *this;
    b.aggressor = -1;
    b.crashHost = -1;
    b.crashAtNs = 0.0;
    b.poisonHost = -1;
    b.poisonEvery = 0;
    b.portDownHost = -1;
    b.portDownAtNs = 0.0;
    return b;
}

const specparse::Grammar<PoolSpec> &
PoolSpec::grammar()
{
    using specparse::anyTime;
    using specparse::Type;
    using specparse::positive;
    static const specparse::Name arbNames[] = {
        {"rr", static_cast<int>(CxlSwitchParams::Arb::RoundRobin)},
        {"fixed", static_cast<int>(CxlSwitchParams::Arb::Fixed)},
    };
    constexpr double maxDevices = 8;
    constexpr double maxCapacityMb = 64 * 1024;
    constexpr double maxPoolMb = maxDevices * maxCapacityMb;
    static const specparse::Field<PoolSpec> fields[] = {
        {"hosts", Type::U32, &PoolSpec::hosts, {1, 16},
         "upstream hosts (switch ports)"},
        {"devices", Type::U32, &PoolSpec::devices, {1, maxDevices},
         "pooled devices behind the switch"},
        {"capacity-mb", Type::U64, &PoolSpec::capacityMb, {1, maxCapacityMb},
         "per-device capacity in MiB"},
        {"window-mb", Type::U64, &PoolSpec::windowMb, {0, maxPoolMb},
         "per-host grant in MiB (0 = even split)"},
        {"credits", Type::U32, &PoolSpec::credits, {},
         "per-port rd+wr credits (0 = uncapped)"},
        {"arb", Type::Enum, specparse::enumRef<&PoolSpec::arb>(), {},
         "switch arbitration", arbNames},
        {"ops", Type::U64, &PoolSpec::ops, {0, 1e8},
         "operations per host"},
        {"read-frac", Type::Real, &PoolSpec::readFrac, {0, 1},
         "read fraction (the aggressor ignores it)"},
        {"mlp", Type::U32, &PoolSpec::mlp, {1, 64},
         "closed-loop slots per host"},
        {"aggressor", Type::Host, &PoolSpec::aggressor, {},
         "host that floods nt-stores"},
        {"crash-host", Type::Host, &PoolSpec::crashHost, {},
         "host that stops at crash-at-ns"},
        {"crash-at-ns", Type::NsReal, &PoolSpec::crashAtNs, anyTime,
         "crash time"},
        {"fence-check-ns", Type::NsReal, &PoolSpec::fenceCheckNs, positive,
         "heartbeat and fence-check period"},
        {"miss-threshold", Type::U32, &PoolSpec::missThreshold, {1},
         "silent periods before fencing"},
        // Bounded so that scrubbing the largest pool still fits the
        // clock.
        {"scrub-ns-per-mb", Type::NsReal, &PoolSpec::scrubNsPerMb,
         {0, specparse::maxNs / maxPoolMb}, "quarantine scrub cost"},
        {"contain", Type::Enum, specparse::enumRef<&PoolSpec::contain>(),
         {}, "fate of a fenced host's requests", containPolicyNames},
        {"poison-host", Type::Host, &PoolSpec::poisonHost, {},
         "host whose reads come back poisoned"},
        {"poison-every", Type::U64, &PoolSpec::poisonEvery, {},
         "every Nth read of poison-host is poisoned"},
        {"port-down-host", Type::Host, &PoolSpec::portDownHost, {},
         "host whose switch port goes down"},
        {"port-down-at-ns", Type::NsReal, &PoolSpec::portDownAtNs,
         anyTime, "port outage time"},
        {"retrain-ns", Type::NsReal, &PoolSpec::retrainNs, positive,
         "port retrain latency"},
        {"seed", Type::U64, &PoolSpec::seed, {}, "workload RNG seed"},
    };
    static const specparse::Grammar<PoolSpec> g{"pool-spec", fields};
    return g;
}

void
PoolSpec::validate() const
{
    specparse::check(grammar(), *this);
    const auto fail = [](const char *why) {
        throw std::invalid_argument(std::string("pool-spec: ") + why);
    };
    const std::uint64_t total = capacityMb * devices;
    if (windowMb * hosts > total)
        fail("window-mb * hosts exceeds the pool");
    if (windowMb == 0 && hosts > total)
        fail("more hosts than grantable segments");
    // Slot-partitioned addressing needs at least one line per slot.
    const std::uint64_t winBytes =
        (windowMb > 0 ? windowMb : total / hosts) * miB;
    if (winBytes / cachelineBytes < mlp)
        fail("per-host window smaller than mlp lines");
    const auto inRange = [this](std::int32_t h) {
        return h < 0 || static_cast<std::uint32_t>(h) < hosts;
    };
    if (!inRange(aggressor) || !inRange(crashHost)
        || !inRange(poisonHost) || !inRange(portDownHost))
        fail("host index out of range");
    if (crashHost >= 0 && !(crashAtNs > 0.0))
        fail("crash-host needs crash-at-ns");
    if (portDownHost >= 0 && !(portDownAtNs > 0.0))
        fail("port-down-host needs port-down-at-ns");
    if ((poisonHost >= 0) != (poisonEvery > 0))
        fail("poison-host and poison-every go together");
}

/* ----------------------------- HostDigest ------------------------ */

bool
HostDigest::operator==(const HostDigest &o) const
{
    return ops == o.ops && reads == o.reads && writes == o.writes
           && bytes == o.bytes && poisoned == o.poisoned
           && aborted == o.aborted && valueHash == o.valueHash
           && ledgerHash == o.ledgerHash;
}

/* ------------------------------ Cluster -------------------------- */

Cluster::Cluster(const PoolSpec &spec) : Cluster(spec, Options()) {}

Cluster::Cluster(const PoolSpec &spec, Options opts)
    : spec_(spec), opts_(opts)
{
    spec_.validate();

    CxlSwitchParams sp;
    sp.name = "xsw0";
    sp.ports = spec_.hosts;
    sp.rdCredits = spec_.credits;
    sp.wrCredits = spec_.credits;
    sp.arb = spec_.arb;

    std::vector<MemoryDevice *> downstream;
    for (std::uint32_t d = 0; d < spec_.devices; ++d) {
        CxlDeviceParams dp = testbed_params::agilexCxlDevice();
        dp.name = "pd" + std::to_string(d);
        devices_.push_back(std::make_unique<CxlMemDevice>(eq_, dp));
        if (opts_.watchdogUs > 0.0)
            devices_.back()->enableProgressTracking();
        downstream.push_back(devices_.back().get());
    }
    sw_ = std::make_unique<CxlSwitch>(eq_, sp, std::move(downstream));
    store_.resize(spec_.devices);
    sw_->setDataHook([this](std::uint32_t dev, MemCmd cmd, Addr addr,
                            std::uint64_t wval) {
        if (isWrite(cmd)) {
            store_[dev][addr] = wval;
            return wval;
        }
        const auto it = store_[dev].find(addr);
        return it != store_[dev].end() ? it->second
                                       : missValue(dev, addr);
    });

    pool_ = std::make_unique<PoolManager>(spec_.devices,
                                          spec_.capacityMb * miB);
    const std::uint64_t total = pool_->totalBytes();
    const std::uint64_t winBytes =
        spec_.windowMb > 0
            ? spec_.windowMb * miB
            : (total / spec_.hosts) / pool_->segmentBytes()
                  * pool_->segmentBytes();

    hosts_.resize(spec_.hosts);
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        const std::uint64_t got = pool_->grant(h, winBytes);
        CXLMEMO_ASSERT(got == winBytes,
                       "setup grant failed for host %u", (unsigned)h);
        Host &H = hosts_[h];
        H.id = h;
        if (static_cast<std::int32_t>(h) == spec_.crashHost)
            H.role = "crashed";
        else if (static_cast<std::int32_t>(h) == spec_.aggressor)
            H.role = "aggressor";
        else if (spec_.disturbed()
                 && static_cast<std::int32_t>(h) == spec_.victimHost())
            H.role = "victim";
        H.target = (opts_.soloHost >= 0
                    && static_cast<std::int32_t>(h) != opts_.soloHost)
                       ? 0
                       : spec_.ops;
        H.windowLines = winBytes / cachelineBytes;
        H.slots.resize(spec_.mlp);
        for (std::uint32_t s = 0; s < spec_.mlp; ++s) {
            Slot &S = H.slots[s];
            // Per-slot stream: a pure function of (seed, host, slot),
            // independent of every other host's existence.
            S.rng.reseed(splitMix64(spec_.seed
                                    ^ (std::uint64_t(h) << 32) ^ s));
            S.target = H.target / spec_.mlp
                       + (s < H.target % spec_.mlp ? 1 : 0);
        }
    }

    lastBeat_.assign(spec_.hosts, 0);
    beatDone_.assign(spec_.hosts, false);
    fenced_.assign(spec_.hosts, false);
    poisonCtr_.assign(spec_.hosts, 0);
    if (spec_.crashHost >= 0)
        crashTick_ = ticksFromNs(spec_.crashAtNs);

    if (opts_.watchdogUs > 0.0) {
        WatchdogParams wp;
        wp.interval = ticksFromUs(opts_.watchdogUs);
        watchdog_ = std::make_unique<Watchdog>(eq_, wp);
        watchdog_->watch(sw_.get());
        for (auto &d : devices_)
            watchdog_->watch(d.get());
        watchdog_->setOnTrip([this](const std::string &report) {
            watchdogTripped_ = true;
            watchdogReport_ = report;
        });
    }

    setupObservability();
}

void
Cluster::setupObservability()
{
    const ObservabilityOptions &obs = opts_.obs;
    if (obs.attribution) {
        board_ = std::make_unique<FabricBoard>(spec_.hosts,
                                               spec_.devices, 0);
        sw_->setFabricBoard(board_.get());
    }
    // Tail capture rides the tracer plumbing (sampling 0-in-N when
    // only tail capture is armed).
    if (obs.traceSampleEvery > 0 || obs.tailK > 0) {
        for (auto &H : hosts_) {
            H.tracer = std::make_unique<RequestTracer>(
                obs.traceSampleEvery, obs.traceRing);
            if (obs.tailK > 0) {
                H.tailcap = std::make_unique<TailCapture>(obs.tailK);
                H.tracer->setTailCapture(H.tailcap.get());
            }
        }
    }
    if (obs.metricsInterval > 0) {
        metrics_ = std::make_unique<MetricsRegistry>();
        registerMetrics();
        sampler_ = std::make_unique<MetricsSampler>(eq_, *metrics_,
                                                    obs.metricsInterval);
    }
    if (watchdog_) {
        for (auto &H : hosts_) {
            if (!H.tracer || H.tracer->sampleEvery() == 0)
                continue;
            RequestTracer *tr = H.tracer.get();
            const std::uint32_t h = H.id;
            watchdog_->addPostMortem([this, tr, h] {
                return "  host" + std::to_string(h) + " (port"
                       + std::to_string(h) + "):\n"
                       + tr->postMortem(eq_.curTick());
            });
        }
        for (auto &H : hosts_) {
            if (!H.tailcap)
                continue;
            TailCapture *tc = H.tailcap.get();
            const std::uint32_t h = H.id;
            watchdog_->addPostMortem([tc, h] {
                return "  host" + std::to_string(h) + " tail:\n"
                       + tc->table();
            });
        }
        if (board_) {
            watchdog_->addPostMortem([this] {
                return board_->snapshot(eq_.curTick()).postMortem();
            });
        }
    }
}

void
Cluster::registerMetrics()
{
    MetricsRegistry &m = *metrics_;
    CxlSwitch *sw = sw_.get();
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        const std::string p = "sw.p" + std::to_string(h) + ".";
        const SwitchPortStats *st = &sw->portStats(h);
        m.addCounter(p + "reqs", [st] { return st->reqs; });
        m.addCounter(p + "responses", [st] { return st->responses; });
        m.addCounter(p + "req_bytes", [st] { return st->reqBytes; });
        m.addCounter(p + "credit_stall_ticks",
                     [st] { return st->creditStallTicks; });
        m.addCounter(p + "aborted", [st] {
            return st->aborted + st->abortedInFlight;
        });
        m.addCounter(p + "poisoned", [st] { return st->poisoned; });
        m.addGauge(p + "voq_depth", [sw, h] {
            return static_cast<double>(sw->voqDepth(h));
        });
        m.addGauge(p + "credit_wait_depth", [sw, h] {
            return static_cast<double>(sw->creditWaitDepth(h));
        });
        m.addGauge(p + "in_flight", [sw, h] {
            return static_cast<double>(sw->portInFlight(h));
        });
        m.addGauge(p + "credit_occupancy", [sw, h] {
            const LinkCredits *c = sw->portCredits(h);
            return c ? static_cast<double>(c->rd.inFlight()
                                           + c->wr.inFlight())
                     : 0.0;
        });
        m.addGauge("pool.h" + std::to_string(h) + ".granted_bytes",
                   [this, h] {
                       return static_cast<double>(
                           pool_->grantedBytes(h));
                   });
        if (opts_.obs.latencyHistograms) {
            // Per-host windowed read-latency percentiles. The host
            // histogram is always recorded (ns units), so this adds
            // no hot-path cost, only snapshot rows.
            const LatencyHistogram *rh = &hosts_[h].readHist;
            m.addHistogram("host" + std::to_string(h) + ".read_lat",
                           [rh] { return rh; }, 1.0);
        }
    }
    PoolManager *pm = pool_.get();
    m.addCounter("pool.granted_bytes_total",
                 [pm] { return pm->stats().grantedBytes; });
    m.addCounter("pool.quarantined_bytes_total",
                 [pm] { return pm->stats().quarantinedBytes; });
    m.addCounter("pool.scrubbed_bytes_total",
                 [pm] { return pm->stats().scrubbedBytes; });
    m.addGauge("pool.free_bytes",
               [pm] { return static_cast<double>(pm->freeBytes()); });
    m.addGauge("pool.quarantined_bytes", [pm] {
        return static_cast<double>(pm->quarantinedBytes());
    });
    m.addGauge("pool.scrubbing_bytes", [pm] {
        return static_cast<double>(pm->scrubbingBytes());
    });
    m.addGauge("pool.time_to_fence_ns", [this] {
        if (fencedAt_ == 0)
            return 0.0;
        return crashTick_ > 0 ? nsFromTicks(fencedAt_ - crashTick_)
                              : nsFromTicks(fencedAt_);
    });
}

Cluster::~Cluster() = default;

std::uint64_t
Cluster::missValue(std::uint32_t dev, Addr addr) const
{
    // Unwritten lines read as a pure function of their location, so
    // read values are deterministic without pre-touching the pool.
    return splitMix64((std::uint64_t(dev) << 56) ^ addr
                      ^ 0x9e3779b97f4a7c15ULL);
}

CxlSwitch::Status
Cluster::shapeStatus(std::uint32_t host, MemCmd cmd,
                     CxlSwitch::Status st)
{
    if (static_cast<std::int32_t>(host) == spec_.poisonHost
        && spec_.poisonEvery > 0 && cmd == MemCmd::Read
        && st == CxlSwitch::Status::Ok) {
        if (++poisonCtr_[host] % spec_.poisonEvery == 0)
            return CxlSwitch::Status::Poisoned;
    }
    return st;
}

void
Cluster::submitFromHost(std::uint32_t host, MemCmd cmd, Addr hostAddr,
                        std::uint64_t value, Tick issued,
                        TraceSpan *span, CxlSwitch::Done done)
{
    // A fenced host's window is already quarantined; skip translation
    // and let the switch abort at the (fenced) port.
    PoolManager::Loc loc{};
    if (!fenced_[host])
        loc = pool_->translate(host, hostAddr);
    CxlSwitch::Op op;
    op.addr = loc.addr;
    op.cmd = cmd;
    op.value = value;
    op.issued = issued;
    op.span = span;
    op.done = [this, host, cmd, done = std::move(done)](
                  Tick d, CxlSwitch::Status st,
                  std::uint64_t v) mutable {
        done(d, shapeStatus(host, cmd, st), v);
    };
    sw_->submit(host, loc.dev, std::move(op));
}

void
Cluster::issueSlot(std::uint32_t host, std::uint32_t slot)
{
    Host &H = hosts_[host];
    Slot &S = H.slots[slot];
    const std::uint64_t opIdx = S.issued++;
    const bool agg =
        static_cast<std::int32_t>(host) == spec_.aggressor;
    MemCmd cmd;
    if (agg) {
        cmd = MemCmd::NtWrite;
        S.rng.uniform(); // keep the stream aligned with mixed mode
    } else {
        cmd = S.rng.uniform() < spec_.readFrac ? MemCmd::Read
                                               : MemCmd::Write;
    }
    const std::uint64_t linesPerSlot = H.windowLines / spec_.mlp;
    const std::uint64_t line =
        S.rng.below(linesPerSlot) * spec_.mlp + slot;
    const Addr hostAddr = line * cachelineBytes;
    const std::uint64_t value =
        splitMix64(spec_.seed ^ (std::uint64_t(host) << 40)
                   ^ (std::uint64_t(slot) << 32) ^ opIdx);
    const Tick issued = eq_.curTick();
    S.issueTick = issued;
    TraceSpan *span = nullptr;
    if (H.tracer) {
        span = H.tracer->maybeStart(static_cast<std::uint16_t>(host),
                                    cmd, hostAddr, issued);
        // The span starts in the host->switch ingress flit; closed-
        // loop slots carry one op at a time, so the slot anchors it.
        RequestTracer::mark(span, TraceStage::SwM2s, issued);
        S.span = span;
    }

    CxlSwitch::Done done =
        [this, host, slot, opIdx, hostAddr, cmd, issued](
            Tick d, CxlSwitch::Status st, std::uint64_t v) {
            eq_.schedule(d, [this, host, slot, opIdx, hostAddr, cmd,
                             issued, st, v] {
                slotDone(host, slot, opIdx, hostAddr, cmd, issued,
                         eq_.curTick(), st, v);
            });
        };
    eq_.schedule(issued + sw_->params().portLatency,
                 [this, host, cmd, hostAddr, value, issued, span,
                  done = std::move(done)]() mutable {
                     submitFromHost(host, cmd, hostAddr, value, issued,
                                    span, std::move(done));
                 });
}

void
Cluster::slotDone(std::uint32_t host, std::uint32_t slot,
                  std::uint64_t opIdx, Addr hostAddr, MemCmd cmd,
                  Tick issued, Tick at, CxlSwitch::Status status,
                  std::uint64_t value)
{
    Host &H = hosts_[host];
    Slot &S = H.slots[slot];
    if (S.span) {
        // Close the span even for a crashed host: the fenced-abort
        // completion is exactly what the blast-radius post-mortem
        // needs to see on the dead host's track.
        H.tracer->finish(S.span, at);
        S.span = nullptr;
    }
    if (H.crashed)
        return; // a dead host processes nothing

    ++H.digest.ops;
    if (isWrite(cmd))
        ++H.digest.writes;
    else
        ++H.digest.reads;
    H.digest.bytes += cachelineBytes;
    if (status == CxlSwitch::Status::Poisoned) {
        ++H.digest.poisoned;
        ++H.poisonLedger[hostAddr];
    } else if (status == CxlSwitch::Status::Aborted) {
        ++H.digest.aborted;
    }
    S.valueHash = fnv(S.valueHash, opIdx);
    S.valueHash = fnv(S.valueHash,
                      static_cast<std::uint64_t>(status));
    S.valueHash = fnv(S.valueHash, value);
    if (cmd == MemCmd::Read) {
        const double ns = nsFromTicks(at - issued);
        H.readHist.record(static_cast<std::uint64_t>(ns + 0.5));
        H.readLatSumNs += ns;
    }
    ++S.done;
    H.lastDoneTick = std::max(H.lastDoneTick, at);

    if (S.issued < S.target) {
        issueSlot(host, slot);
    } else if (S.done == S.target) {
        ++H.slotsDone;
        if (H.slotsDone == H.slots.size())
            hostComplete(host, at);
    }
}

void
Cluster::hostComplete(std::uint32_t host, Tick at)
{
    Host &H = hosts_[host];
    if (H.complete)
        return;
    H.complete = true;
    eq_.schedule(at + sw_->params().portLatency,
                 [this, host] { beatDone_[host] = true; });
}

void
Cluster::beat(std::uint32_t host)
{
    Host &H = hosts_[host];
    if (H.complete || H.crashed)
        return;
    const Tick now = eq_.curTick();
    eq_.schedule(now + sw_->params().portLatency, [this, host] {
        lastBeat_[host] = eq_.curTick();
    });
    eq_.schedule(now + ticksFromNs(spec_.fenceCheckNs),
                 [this, host] { beat(host); });
}

void
Cluster::fenceHost(std::uint32_t host, Tick now)
{
    fenced_[host] = true;
    fencedAt_ = now;
    sw_->fencePort(host, spec_.contain);
    const std::uint64_t qb = pool_->quarantine(host);
    quarantinedBytes_ += qb;
    pool_->beginScrub();
    const Tick scrub = std::max<Tick>(
        1, ticksFromNs(spec_.scrubNsPerMb
                       * static_cast<double>(qb / miB)));
    eq_.schedule(now + scrub, [this] {
        const std::uint64_t released = pool_->releaseQuarantined();
        std::uint32_t live = 0;
        for (std::uint32_t h = 0; h < spec_.hosts; ++h)
            if (!fenced_[h])
                ++live;
        if (live > 0) {
            const std::uint64_t share =
                released / live / pool_->segmentBytes()
                * pool_->segmentBytes();
            for (std::uint32_t h = 0; h < spec_.hosts && share > 0;
                 ++h) {
                if (!fenced_[h])
                    recoveredBytes_ += pool_->grant(h, share);
            }
        }
        // releaseQuarantined() ended the scrub pass in the ledger.
        ledgerAllOk_ = ledgerAllOk_ && pool_->ledgerOk()
                       && sw_->creditLedgerOk();
    });
}

void
Cluster::fenceCheck()
{
    const Tick now = eq_.curTick();
    ledgerAllOk_ = ledgerAllOk_ && pool_->ledgerOk()
                   && sw_->creditLedgerOk();
    const Tick deadline = static_cast<Tick>(spec_.missThreshold)
                          * ticksFromNs(spec_.fenceCheckNs);
    bool anyWork = false;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        if (beatDone_[h] || fenced_[h])
            continue;
        if (now - lastBeat_[h] > deadline) {
            fenceHost(h, now);
            continue;
        }
        anyWork = true;
    }
    if (anyWork || pool_->scrubbing()) {
        eq_.schedule(now + ticksFromNs(spec_.fenceCheckNs),
                     [this] { fenceCheck(); });
    } else {
        checkerArmed_ = false;
    }
}

ClusterResult
Cluster::run()
{
    // Host kickoff: crash schedule, heartbeats, initial window of
    // closed-loop slots.
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        eq_.schedule(0, [this, h] {
            Host &H = hosts_[h];
            if (static_cast<std::int32_t>(h) == spec_.crashHost) {
                eq_.schedule(
                    ticksFromNs(spec_.crashAtNs),
                    [this, h] { hosts_[h].crashed = true; });
            }
            beat(h);
            if (H.target == 0) {
                hostComplete(h, 0);
                return;
            }
            for (std::uint32_t s = 0; s < H.slots.size(); ++s) {
                if (H.slots[s].target > 0)
                    issueSlot(h, s);
                else if (++H.slotsDone == H.slots.size())
                    hostComplete(h, 0);
            }
        });
    }
    // Fabric kickoff: fence checker and the port-outage drill.
    checkerArmed_ = true;
    eq_.schedule(ticksFromNs(spec_.fenceCheckNs),
                 [this] { fenceCheck(); });
    if (spec_.portDownHost >= 0) {
        eq_.schedule(ticksFromNs(spec_.portDownAtNs), [this] {
            sw_->portDown(
                static_cast<std::uint32_t>(spec_.portDownHost),
                ticksFromNs(spec_.retrainNs));
        });
    }
    if (watchdog_)
        watchdog_->arm();
    if (sampler_)
        sampler_->arm();

    const Tick limit =
        opts_.limitUs > 0.0 ? ticksFromUs(opts_.limitUs) : maxTick;
    eq_.runUntil(limit);

    ClusterResult res;
    res.endTick = eq_.curTick();
    ledgerAllOk_ = ledgerAllOk_ && pool_->ledgerOk()
                   && sw_->creditLedgerOk();
    res.ledgerOk = ledgerAllOk_;
    res.quarantinedBytes = quarantinedBytes_;
    res.recoveredBytes = recoveredBytes_;
    if (fencedAt_ > 0 && crashTick_ > 0)
        res.timeToFenceNs = nsFromTicks(fencedAt_ - crashTick_);
    else if (fencedAt_ > 0)
        res.timeToFenceNs = nsFromTicks(fencedAt_);
    res.watchdogTripped = watchdogTripped_;
    res.watchdogReport = watchdogReport_;

    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        Host &H = hosts_[h];
        HostReport r;
        r.host = h;
        r.role = H.role;
        // Fold the per-slot hashes in slot order: the digest is a
        // pure function of each slot's program order, never of the
        // cross-slot completion interleaving.
        H.digest.valueHash = fnvBasis;
        for (const Slot &s : H.slots)
            H.digest.valueHash = fnv(H.digest.valueHash, s.valueHash);
        H.digest.ledgerHash = fnvBasis;
        for (const auto &kv : H.poisonLedger) {
            H.digest.ledgerHash = fnv(H.digest.ledgerHash, kv.first);
            H.digest.ledgerHash = fnv(H.digest.ledgerHash, kv.second);
        }
        r.digest = H.digest;
        r.grantedBytes = H.windowLines * cachelineBytes;
        r.fenced = fenced_[h];
        r.durationNs = nsFromTicks(H.lastDoneTick);
        r.gbps = gbPerSec(H.digest.bytes, H.lastDoneTick);
        r.readAvgNs = H.readHist.empty()
                          ? 0.0
                          : H.readLatSumNs
                                / static_cast<double>(
                                    H.readHist.count());
        r.readP99Ns = H.readHist.percentile(99.0);
        r.readHist = H.readHist;
        if (H.tailcap)
            r.tail = H.tailcap->summary();
        res.hosts.push_back(std::move(r));
    }
    res.verdict = attributionVerdict();
    if (board_)
        res.fabric = board_->snapshot(res.endTick);
    if (metrics_) {
        metrics_->flush(res.endTick);
        res.metricsRows = metrics_->rows();
    }
    // res.traceJson stays empty here: serializing a large trace is a
    // consumer cost, paid via traceJson() by whoever actually writes
    // the file (runPool), not by every armed run.
    return res;
}

std::string
Cluster::exportTraceJson() const
{
    bool any = false;
    for (const Host &H : hosts_)
        any = any || H.tracer != nullptr;
    if (!any)
        return "";

    std::string out;
    std::size_t spans = 0;
    for (const Host &H : hosts_)
        if (H.tracer)
            spans += H.tracer->completed().size();
    out.reserve(spans * 9 * 140); // span + ~8 marks, ~140 B/event
    bool first = true;
    const auto meta = [&out, &first](int pid, const std::string &name) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
               + std::to_string(pid) + ",\"args\":{\"name\":\"" + name
               + "\"}}";
    };
    const auto event = [&out, &first](const char *name, int pid,
                                      unsigned tid, Tick ts, Tick dur,
                                      std::uint64_t id, Addr addr,
                                      const char *stage) {
        if (!first)
            out += ",\n";
        first = false;
        char buf[256];
        // ts/dur are microseconds with 6 decimals, i.e. the raw tick
        // count split at 10^6 -- formatted in integer arithmetic
        // because %.6f is the dominant cost of exporting a large
        // trace (one export can carry tens of thousands of events).
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu.%06llu,"
            "\"dur\":%llu.%06llu,\"pid\":%d,\"tid\":%u,"
            "\"args\":{\"id\":%llu,\"addr\":%llu,\"stage\":\"%s\"}}",
            name, static_cast<unsigned long long>(ts / 1000000),
            static_cast<unsigned long long>(ts % 1000000),
            static_cast<unsigned long long>(dur / 1000000),
            static_cast<unsigned long long>(dur % 1000000), pid, tid,
            static_cast<unsigned long long>(id),
            static_cast<unsigned long long>(addr), stage);
        out += buf;
    };

    // One track (pid) per host plus the shared fabric track: host-side
    // stages land on the issuing host's track, switch-path stages on
    // the fabric track with the port as the thread row.
    meta(0, "fabric");
    for (const Host &H : hosts_)
        meta(1 + static_cast<int>(H.id),
             "host" + std::to_string(H.id));

    for (const Host &H : hosts_) {
        if (!H.tracer)
            continue;
        const int hostPid = 1 + static_cast<int>(H.id);
        for (const TraceSpan &span : H.tracer->completed()) {
            // Host-scoped span ids stay unique in the merged file.
            const std::uint64_t id =
                (static_cast<std::uint64_t>(H.id + 1) << 32) | span.id;
            event(memCmdName(span.cmd), hostPid, H.id, span.start,
                  span.end - span.start, id, span.addr, "span");
            for (std::size_t i = 0; i < span.marks.size(); ++i) {
                const StageMark &m = span.marks[i];
                const Tick until = i + 1 < span.marks.size()
                                       ? span.marks[i + 1].at
                                       : span.end;
                const bool fab = isFabricStage(m.stage);
                event(traceStageName(m.stage), fab ? 0 : hostPid,
                      H.id, m.at, until > m.at ? until - m.at : 0, id,
                      span.addr, traceStageName(m.stage));
            }
        }
    }

    // The worst-K outliers land on a dedicated tail track per host
    // (tid = kTailTid), parent slice tail:<regime> plus one child per
    // stage -- the p99 request as a clickable stack, next to the
    // sampled spans.
    for (const Host &H : hosts_) {
        if (!H.tailcap)
            continue;
        const int hostPid = 1 + static_cast<int>(H.id);
        for (const TailSpan *s : H.tailcap->worstFirst()) {
            const std::uint64_t id =
                (static_cast<std::uint64_t>(H.id + 1) << 32) | s->id;
            const std::string parent =
                std::string("tail:") + tailRegimeName(s->regime);
            event(parent.c_str(), hostPid, TailCapture::kTailTid,
                  s->start, s->latency(), id, s->addr, "tail");
            for (std::size_t i = 0; i < s->marks.size(); ++i) {
                const StageMark &m = s->marks[i];
                const Tick until = i + 1 < s->marks.size()
                                       ? s->marks[i + 1].at
                                       : s->end;
                event(traceStageName(m.stage), hostPid,
                      TailCapture::kTailTid, m.at,
                      until > m.at ? until - m.at : 0, id, s->addr,
                      traceStageName(m.stage));
            }
        }
    }
    return out;
}

std::string
Cluster::attributionVerdict() const
{
    // The fabric regime rides behind the host-level verdict, so the
    // leading "aggressor=..."/"no-aggressor..." forms are unchanged
    // whether or not attribution is enabled.
    std::string fabricSuffix;
    if (board_) {
        fabricSuffix = " " + board_->snapshot(eq_.curTick()).verdict();
    }
    std::uint64_t total = 0;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h)
        total += sw_->portStats(h).reqBytes;
    if (total == 0)
        return "no-traffic" + fabricSuffix;
    std::uint32_t top = 0;
    for (std::uint32_t h = 1; h < spec_.hosts; ++h)
        if (sw_->portStats(h).reqBytes
            > sw_->portStats(top).reqBytes)
            top = h;
    const double share =
        static_cast<double>(sw_->portStats(top).reqBytes)
        / static_cast<double>(total);
    char buf[128];
    // Name an aggressor only when the top port clearly exceeds its
    // fair share of fabric bytes *among hosts still active* -- a
    // symmetric workload hovers at 1/hosts and must stay
    // "no-aggressor", and the lone survivor of a fenced peer is not
    // an aggressor against anyone.
    std::uint32_t active = 0;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h)
        if (!fenced_[h])
            ++active;
    const bool dominant = share * active > 1.4;
    // Victim: the surviving host (other than the top talker) with
    // the worst read tail.
    std::int32_t victim = -1;
    double worst = -1.0;
    for (std::uint32_t h = 0; h < spec_.hosts; ++h) {
        if (h == top || fenced_[h])
            continue;
        const double p99 = hosts_[h].readHist.percentile(99.0);
        if (p99 > worst) {
            worst = p99;
            victim = static_cast<std::int32_t>(h);
        }
    }
    if (dominant && active > 1 && victim >= 0) {
        std::snprintf(buf, sizeof(buf),
                      "aggressor=host%u share=%.2f victim=host%d "
                      "port=%d",
                      top, share, victim, victim);
    } else {
        std::snprintf(buf, sizeof(buf), "no-aggressor max_share=%.2f",
                      share);
    }
    return buf + fabricSuffix;
}

void
Cluster::inject(std::uint32_t host, MemCmd cmd, Addr hostAddr,
                std::uint64_t value, InjectDone done)
{
    const PoolManager::Loc loc = fenced_[host]
                                     ? PoolManager::Loc{}
                                     : pool_->translate(host, hostAddr);
    CxlSwitch::Op op;
    op.addr = loc.addr;
    op.cmd = cmd;
    op.value = value;
    // Injected ops enter the switch directly; date the issue one port
    // hop back so the fabric attribution bracket (which charges both
    // port crossings to sw.wire) stays exact for them too.
    const Tick pl = sw_->params().portLatency;
    const Tick now = eq_.curTick();
    op.issued = now >= pl ? now - pl : 0;
    // Injected ops are traceable like workload traffic: litmus tests
    // rely on the span timeline to audit fence containment.
    TraceSpan *span = nullptr;
    if (hosts_[host].tracer) {
        span = hosts_[host].tracer->maybeStart(
            static_cast<std::uint16_t>(host), cmd, hostAddr,
            op.issued);
        RequestTracer::mark(span, TraceStage::SwM2s, op.issued);
    }
    op.span = span;
    op.done = [this, host, cmd, span, done = std::move(done)](
                  Tick d, CxlSwitch::Status st, std::uint64_t v) {
        if (span)
            hosts_[host].tracer->finish(span, d);
        const CxlSwitch::Status shaped = shapeStatus(host, cmd, st);
        if (done)
            done(d, shaped, v);
    };
    sw_->submit(host, loc.dev, std::move(op));
}

const std::map<Addr, std::uint64_t> &
Cluster::poisonLedger(std::uint32_t host) const
{
    return hosts_[host].poisonLedger;
}

} // namespace cxlmemo
