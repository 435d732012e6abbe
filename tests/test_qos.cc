/**
 * @file
 * Tests for the overload-control machinery: QosSpec parsing, credit
 * pools and their ledger invariants, the DevLoad meter and AIMD host
 * throttle, the forward-progress watchdog, and the end-to-end
 * behaviour of a credit-capped CXL device (including determinism of
 * throttled sweeps across --jobs).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cxl/device.hh"
#include "memo/memo.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/qos.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "sim/watchdog.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

/* ------------------------------ spec ------------------------------ */

TEST(QosSpec, DefaultIsDisabled)
{
    QosSpec s;
    EXPECT_FALSE(s.enabled());
    EXPECT_FALSE(s.creditsEnabled());
    s.validate(); // must not throw
}

TEST(QosSpec, ParseRoundTrip)
{
    std::string err;
    const auto s = QosSpec::parse(
        "credits=24,policy=aimd,floor=0.01,burst=12", err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_EQ(s->rdCredits, 24u);
    EXPECT_EQ(s->wrCredits, 24u);
    EXPECT_EQ(s->policy, QosPolicy::Aimd);
    EXPECT_DOUBLE_EQ(s->floor, 0.01);
    EXPECT_EQ(s->burstLines, 12u);
    EXPECT_TRUE(s->enabled());
    EXPECT_TRUE(s->creditsEnabled());
}

TEST(QosSpec, ParsePerDirectionCredits)
{
    std::string err;
    const auto s = QosSpec::parse("rd-credits=8,wr-credits=40", err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_EQ(s->rdCredits, 8u);
    EXPECT_EQ(s->wrCredits, 40u);
    EXPECT_EQ(s->policy, QosPolicy::None);
}

TEST(QosSpec, ParseRejectsGarbage)
{
    std::string err;
    EXPECT_FALSE(QosSpec::parse("credits=abc", err).has_value());
    EXPECT_FALSE(QosSpec::parse("policy=banana", err).has_value());
    EXPECT_FALSE(QosSpec::parse("nonsense=1", err).has_value());
    EXPECT_FALSE(QosSpec::parse("credits=5000", err).has_value());
    EXPECT_FALSE(QosSpec::parse("policy=aimd,md=1.5", err).has_value());
    EXPECT_FALSE(err.empty());
    // 2^32 + 8 does not fit (narrowed, it is a legal credits=8).
    EXPECT_FALSE(QosSpec::parse("credits=4294967304", err).has_value());
    EXPECT_FALSE(QosSpec::parse("burst=4294967297", err).has_value());
    EXPECT_FALSE(QosSpec::parse("wr-credits=-1", err).has_value());
}

/* -------------------------- credit pool --------------------------- */

TEST(CreditPool, ExhaustionAndReturn)
{
    CreditPool pool(2);
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_EQ(pool.inFlight(), 2u);
    // Dry: the failed acquire counts a stall and issues nothing.
    EXPECT_FALSE(pool.tryAcquire());
    EXPECT_EQ(pool.stalls(), 1u);
    EXPECT_EQ(pool.issued(), 2u);
    EXPECT_TRUE(pool.ledgerOk());

    pool.release();
    EXPECT_EQ(pool.returned(), 1u);
    EXPECT_EQ(pool.inFlight(), 1u);
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_TRUE(pool.ledgerOk());
}

TEST(CreditPool, LedgerSurvivesStatsResetMidFlight)
{
    CreditPool pool(4);
    ASSERT_TRUE(pool.tryAcquire());
    ASSERT_TRUE(pool.tryAcquire());
    pool.resetStats();
    // Stats zeroed, but the two outstanding credits are still owed:
    // issued restarts at in-flight so the ledger still balances.
    EXPECT_EQ(pool.inFlight(), 2u);
    EXPECT_EQ(pool.returned(), 0u);
    EXPECT_TRUE(pool.ledgerOk());
    pool.release();
    pool.release();
    EXPECT_EQ(pool.inFlight(), 0u);
    EXPECT_TRUE(pool.ledgerOk());
}

/* ------------------------- DevLoad meter -------------------------- */

TEST(DevLoadMeter, LevelBandsAroundTarget)
{
    QosSpec s;
    s.policy = QosPolicy::Aimd; // target 0.75
    DevLoadMeter m(s);
    m.sample(0.0, 0);
    EXPECT_EQ(m.level(), DevLoad::Light);
    // Saturate the EWMA well past the Severe band.
    for (int i = 1; i <= 100; ++i)
        m.sample(2.0, ticksFromNs(100.0 * i));
    EXPECT_GT(m.load(), 0.85);
    EXPECT_EQ(m.level(), DevLoad::Severe);
}

TEST(DevLoadMeter, EwmaIsTimeWeighted)
{
    QosSpec s;
    s.policy = QosPolicy::Aimd;
    s.ewmaTau = ticksFromNs(1000.0);
    DevLoadMeter m(s);
    m.sample(1.0, 0);
    // Zero-order hold: occupancy sat at 1.0 for exactly one tau, so
    // the EWMA has charged to 1 - 1/e of the way there.
    m.sample(0.0, ticksFromNs(1000.0));
    EXPECT_NEAR(m.load(), 1.0 - std::exp(-1.0), 1e-9);
}

/* ------------------------- host throttle -------------------------- */

TEST(HostThrottle, AimdConvergesToFloorUnderSevere)
{
    QosSpec s;
    s.policy = QosPolicy::Aimd;
    s.floor = 0.05;
    HostThrottle t(s, 2);
    Tick now = 0;
    for (int i = 0; i < 64; ++i) {
        now += s.adjustPeriod;
        t.observe(2.0, DevLoad::Severe, now);
    }
    EXPECT_DOUBLE_EQ(t.rate(), s.floor);
    // ...and recovers additively under Light.
    for (int i = 0; i < 8; ++i) {
        now += s.adjustPeriod;
        t.observe(0.1, DevLoad::Light, now);
    }
    EXPECT_NEAR(t.rate(), s.floor + 8 * s.ai, 1e-9);
}

TEST(HostThrottle, AdjustmentIsPeriodGated)
{
    QosSpec s;
    s.policy = QosPolicy::Aimd;
    HostThrottle t(s, 1);
    t.observe(2.0, DevLoad::Severe, 0);
    const double after_first = t.rate();
    // Within the same adjust period further observations are ignored.
    t.observe(2.0, DevLoad::Severe, s.adjustPeriod / 2);
    EXPECT_DOUBLE_EQ(t.rate(), after_first);
}

TEST(HostThrottle, UnthrottledIssuesAreFree)
{
    QosSpec s;
    s.policy = QosPolicy::Aimd;
    HostThrottle t(s, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(t.issueDelay(0, ticksFromNs(5.5 * i)), 0u);
    QosStats qs;
    t.fillStats(qs);
    EXPECT_EQ(qs.throttleDelays, 0u);
}

TEST(HostThrottle, ThrottledBucketPacesInBursts)
{
    QosSpec s;
    s.policy = QosPolicy::Aimd;
    s.floor = 0.1;
    s.burstLines = 8;
    HostThrottle t(s, 1);
    Tick now = 0;
    for (int i = 0; i < 64; ++i) {
        now += s.adjustPeriod;
        t.observe(2.0, DevLoad::Severe, now);
    }
    ASSERT_DOUBLE_EQ(t.rate(), 0.1);

    // The initial burst passes free, then the bucket runs dry and the
    // next issue waits for a whole burst to accrue (not one token):
    // throttled cores still emit row-local runs.
    Tick at = now;
    for (std::uint32_t i = 0; i < s.burstLines; ++i)
        EXPECT_EQ(t.issueDelay(0, at), 0u);
    const Tick delay = t.issueDelay(0, at);
    const double perTick = 0.1 / static_cast<double>(s.lineCost);
    EXPECT_GE(delay, static_cast<Tick>(7.0 / perTick));
    // The burst released after the wait flows without further delay.
    at += delay;
    for (std::uint32_t i = 0; i + 1 < s.burstLines; ++i)
        EXPECT_EQ(t.issueDelay(0, at), 0u);
    QosStats qs;
    t.fillStats(qs);
    EXPECT_EQ(qs.throttleDelays, 1u);
    EXPECT_EQ(qs.throttleDelayTicks, delay);
}

/* --------------------- fair ingress arbiter ----------------------- */

TEST(FairWaitQueue, FloodingSourceCannotStarveOthers)
{
    FairWaitQueue q;
    auto mk = [](std::uint16_t source) {
        MemRequest r;
        r.source = source;
        return r;
    };
    // Source 0 floods; source 1 parks a single request behind 100 of
    // source 0's. Round-robin must serve source 1 within two pops, not
    // after the flood drains.
    for (int i = 0; i < 100; ++i)
        q.push(mk(0), Tick(i));
    q.push(mk(1), 100);
    std::size_t pops_until_src1 = 0;
    while (true) {
        ++pops_until_src1;
        if (q.pop().first.source == 1)
            break;
    }
    EXPECT_LE(pops_until_src1, 2u);

    // With k active sources each is served once per k pops.
    FairWaitQueue rr;
    for (int round = 0; round < 4; ++round)
        for (std::uint16_t s = 0; s < 3; ++s)
            rr.push(mk(s), 0);
    std::vector<std::uint64_t> served(3, 0);
    for (int i = 0; i < 6; ++i)
        served[rr.pop().first.source]++;
    EXPECT_EQ(served[0], 2u);
    EXPECT_EQ(served[1], 2u);
    EXPECT_EQ(served[2], 2u);
}

/* ------------------- device credit integration -------------------- */

TEST(CxlDeviceQos, CreditCappedRunKeepsLedger)
{
    EventQueue eq;
    QosSpec qos;
    qos.rdCredits = 2;
    qos.wrCredits = 2;
    CxlMemDevice dev(eq, testbed_params::agilexCxlDevice(), nullptr,
                     qos);
    int done = 0;
    for (int i = 0; i < 32; ++i) {
        MemRequest r;
        r.addr = Addr(i) * cachelineBytes;
        r.size = cachelineBytes;
        r.cmd = (i % 2) ? MemCmd::Write : MemCmd::Read;
        r.source = static_cast<std::uint16_t>(i % 4);
        r.onComplete = [&done](Tick) { ++done; };
        dev.access(std::move(r));
    }
    eq.run();
    EXPECT_EQ(done, 32);
    EXPECT_TRUE(dev.creditLedgerOk());
    QosStats qs;
    dev.fillQosStats(qs);
    // 16 requests per class through 2 credits: both classes must have
    // stalled, every credit must have come home.
    EXPECT_GT(qs.rdCreditStalls, 0u);
    EXPECT_GT(qs.wrCreditStalls, 0u);
    EXPECT_GT(qs.creditStallTicks, 0u);
    EXPECT_EQ(qs.rdInFlight, 0u);
    EXPECT_EQ(qs.wrInFlight, 0u);
    EXPECT_TRUE(qs.ledgerOk);
}

TEST(CxlDeviceQos, FireAndForgetWritesStillReturnCredits)
{
    // No onComplete callback: credits must still be released by the
    // forced NDR delivery, or the pool leaks dry and the device
    // wedges.
    EventQueue eq;
    QosSpec qos;
    qos.wrCredits = 2;
    CxlMemDevice dev(eq, testbed_params::agilexCxlDevice(), nullptr,
                     qos);
    for (int i = 0; i < 16; ++i) {
        MemRequest r;
        r.addr = Addr(i) * cachelineBytes;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Write;
        dev.access(std::move(r));
    }
    eq.run();
    EXPECT_TRUE(dev.creditLedgerOk());
    QosStats qs;
    dev.fillQosStats(qs);
    EXPECT_EQ(qs.wrIssued, 16u);
    EXPECT_EQ(qs.wrReturned, 16u);
}

/* --------------------------- watchdog ----------------------------- */

/** A ProgressSource that can be frozen mid-flight. */
class FakeSource : public ProgressSource
{
  public:
    std::string progressName() const override { return "fake-dev"; }
    std::uint64_t progressRetired() const override { return retired; }
    std::uint64_t progressOutstanding() const override
    {
        return outstanding;
    }
    std::string progressDiagnosis() const override
    {
        return "    write-wait: depth 7 (oldest request waiting 999 "
               "ns)\n    stuck queue: write-wait\n";
    }
    std::string progressInvariant() const override { return invariant; }

    std::uint64_t retired = 0;
    std::uint64_t outstanding = 0;
    std::string invariant;
};

TEST(Watchdog, TripsOnLivelockWithinOneInterval)
{
    EventQueue eq;
    WatchdogParams wp;
    wp.interval = ticksFromUs(1.0);
    Watchdog dog(eq, wp);
    FakeSource src;
    src.outstanding = 7; // wedged: work pending, nothing retires
    dog.watch(&src);
    std::string report;
    Tick tripTick = 0;
    dog.setOnTrip([&](const std::string &r) {
        report = r;
        tripTick = eq.curTick();
    });

    // Keep the event queue alive well past one snapshot interval, as
    // a wedged-but-ticking simulation would.
    for (int i = 1; i <= 40; ++i)
        eq.scheduleIn(ticksFromNs(100.0 * i), [] {});
    dog.arm();
    eq.run();

    ASSERT_TRUE(dog.tripped());
    // Detected within one snapshot interval of becoming possible.
    EXPECT_LE(tripTick, wp.interval + ticksFromNs(1.0));
    // The dump names the wedged source and its stuck queue.
    EXPECT_NE(report.find("livelock"), std::string::npos);
    EXPECT_NE(report.find("fake-dev"), std::string::npos);
    EXPECT_NE(report.find("stuck queue: write-wait"), std::string::npos);
}

TEST(Watchdog, TripsOnDeadlockWhenQueueDrains)
{
    EventQueue eq;
    WatchdogParams wp;
    wp.interval = ticksFromUs(1.0);
    // Tolerate one progress-free snapshot so the drained-queue branch
    // (deadlock), not the livelock counter, is what must catch this.
    wp.strikes = 2;
    Watchdog dog(eq, wp);
    FakeSource src;
    src.outstanding = 3;
    dog.watch(&src);
    std::string report;
    dog.setOnTrip([&report](const std::string &r) { report = r; });
    dog.arm();
    eq.run(); // drains immediately: outstanding work can never finish
    ASSERT_TRUE(dog.tripped());
    EXPECT_NE(report.find("deadlock"), std::string::npos);
}

TEST(Watchdog, TripsOnInvariantViolationImmediately)
{
    EventQueue eq;
    WatchdogParams wp;
    wp.interval = ticksFromUs(1.0);
    Watchdog dog(eq, wp);
    FakeSource src;
    src.invariant = "wr credit ledger broken: issued 9 != returned 4 "
                    "+ in-flight 4";
    dog.watch(&src);
    std::string report;
    dog.setOnTrip([&report](const std::string &r) { report = r; });
    dog.arm();
    eq.run();
    ASSERT_TRUE(dog.tripped());
    EXPECT_NE(report.find("invariant violated"), std::string::npos);
    EXPECT_NE(report.find("credit ledger broken"), std::string::npos);
}

TEST(Watchdog, NoFalseTripOnHealthyProgress)
{
    EventQueue eq;
    WatchdogParams wp;
    wp.interval = ticksFromUs(1.0);
    Watchdog dog(eq, wp);
    FakeSource src;
    src.outstanding = 1;
    dog.watch(&src);
    dog.setOnTrip([](const std::string &) { FAIL() << "false trip"; });
    // Steady retirement, one item per 500 ns.
    for (int i = 1; i <= 20; ++i)
        eq.scheduleIn(ticksFromNs(500.0 * i), [&src] { src.retired++; });
    eq.scheduleIn(ticksFromNs(500.0 * 20) + 1, [&src] {
        src.outstanding = 0;
    });
    dog.arm();
    eq.run();
    EXPECT_FALSE(dog.tripped());
    EXPECT_GT(dog.snapshots(), 0u);
}

TEST(Watchdog, ArmedWatchdogDoesNotKeepQueueAlive)
{
    // The snapshot event must stand down at quiesce, not spin forever.
    EventQueue eq;
    Watchdog dog(eq, {});
    FakeSource src;
    dog.watch(&src);
    dog.arm();
    eq.run();
    EXPECT_FALSE(dog.tripped());
    EXPECT_FALSE(dog.armed());
}

TEST(Watchdog, WedgedDeviceQueueIsNamedInTheDump)
{
    // Wedge a *real* device: every buffered write hits a stuck-drain
    // episode far longer than the snapshot interval, so the write
    // buffer fills and the overflow parks in the write-wait queue with
    // nothing retiring. The dump must name that queue.
    EventQueue eq;
    FaultSpec fs;
    fs.drainStallRate = 1.0;
    fs.drainStallTicks = ticksFromUs(500.0);
    FaultInjector inj(fs);
    CxlDeviceParams p = testbed_params::agilexCxlDevice();
    p.writeBufferEntries = 4;
    CxlMemDevice dev(eq, p, &inj);
    dev.enableProgressTracking();

    WatchdogParams wp;
    wp.interval = ticksFromUs(50.0);
    Watchdog dog(eq, wp);
    dog.watch(&dev);
    std::string report;
    dog.setOnTrip([&report](const std::string &r) { report = r; });

    for (int i = 0; i < 16; ++i) {
        MemRequest r;
        r.addr = Addr(i) * cachelineBytes;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Write;
        dev.access(std::move(r));
    }
    dog.arm();
    eq.run();

    ASSERT_TRUE(dog.tripped());
    EXPECT_NE(report.find("no forward progress"), std::string::npos);
    EXPECT_NE(report.find("stuck queue: write-wait"),
              std::string::npos);
    EXPECT_NE(report.find("writes-buffered 4/4"), std::string::npos);
}

TEST(MachineWatchdog, HealthyMachineRunNeverTrips)
{
    MachineOptions o;
    o.watchdogInterval = ticksFromUs(5.0);
    Machine m(Testbed::SingleSocketCxl, o);
    ASSERT_NE(m.watchdog(), nullptr);
    NumaBuffer buf =
        m.numa().alloc(4 * miB, MemPolicy::membind(m.cxlNode()));
    for (int i = 0; i < 64; ++i) {
        m.caches().load(0, buf.translate(std::uint64_t(i) * 4096),
                        m.eq().curTick(), nullptr);
        m.rearmWatchdog();
        m.eq().run();
    }
    EXPECT_FALSE(m.watchdog()->tripped());
    const std::string s = m.statsString();
    EXPECT_NE(s.find("watchdog"), std::string::npos);
}

/* ----------------- zero-request stats are finite ------------------ */

TEST(QosStats, ZeroRequestRunEmitsZerosNotNaN)
{
    SampleSeries empty;
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.percentile(50.0), 0.0);
    EXPECT_EQ(empty.p99(), 0.0);
    EXPECT_EQ(empty.max(), 0.0);

    // A machine that retires nothing must still print a finite stats
    // block (no nan/inf from zero-request divisions).
    MachineOptions o;
    std::string err;
    const auto qos = QosSpec::parse("credits=8,policy=aimd", err);
    ASSERT_TRUE(qos.has_value()) << err;
    o.qos = *qos;
    o.watchdogInterval = ticksFromUs(10.0);
    Machine m(Testbed::SingleSocketCxl, o);
    const std::string s = m.statsString();
    EXPECT_EQ(s.find("nan"), std::string::npos);
    EXPECT_EQ(s.find("inf"), std::string::npos);
    EXPECT_NE(s.find("qos:"), std::string::npos);
    auto qs = m.qosStats();
    ASSERT_TRUE(qs.has_value());
    EXPECT_TRUE(qs->ledgerOk);
    EXPECT_EQ(qs->rdIssued, 0u);
}

/* ------------------ determinism across --jobs --------------------- */

TEST(QosDeterminism, ThrottledSweepIdenticalAcrossJobs)
{
    memo::Options opts;
    opts.warmupUs = 10.0;
    opts.measureUs = 30.0;
    std::string err;
    const auto qos =
        QosSpec::parse("credits=24,policy=aimd,burst=12", err);
    ASSERT_TRUE(qos.has_value()) << err;
    opts.qos = *qos;
    opts.watchdogUs = 50.0;

    const std::vector<std::uint32_t> threads = {2, 4, 8};
    auto sweep = [&](unsigned jobs) {
        SweepRunner pool(jobs);
        return pool.map(threads.size(), [&](std::size_t i) {
            QosStats qs;
            const double bw = memo::runSeqBandwidth(
                memo::Target::Cxl, MemOp::Kind::NtStore, threads[i],
                opts, nullptr, &qs);
            EXPECT_TRUE(qs.ledgerOk);
            return std::make_pair(bw, qs.creditStallTicks);
        });
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].first, parallel[i].first);
        EXPECT_EQ(serial[i].second, parallel[i].second);
    }
}

} // namespace
} // namespace cxlmemo
