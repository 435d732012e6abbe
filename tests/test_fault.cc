/**
 * @file
 * Tests for the RAS layer: FaultSpec parsing, injector determinism,
 * link-level CRC retry and degradation, controller timeout/backoff,
 * stall episodes, and end-to-end poison propagation through a
 * Machine (injected poison is never silently dropped).
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "cpu/streams.hh"
#include "cxl/link.hh"
#include "memo/memo.hh"
#include "sim/fault.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

/* ------------------------- FaultSpec ----------------------------- */

TEST(FaultSpec, ParsesFullGrammar)
{
    std::string err;
    const auto spec = FaultSpec::parse(
        "crc=1e-4,poison=0.5,timeout=0.1,drain=0.2,dram=0.3,"
        "stall-ns=100,timeout-ns=500,backoff-ns=50,retries=4,"
        "degrade=10,seed=7",
        err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_DOUBLE_EQ(spec->crcPerFlit, 1e-4);
    EXPECT_DOUBLE_EQ(spec->readPoisonRate, 0.5);
    EXPECT_DOUBLE_EQ(spec->timeoutRate, 0.1);
    EXPECT_DOUBLE_EQ(spec->drainStallRate, 0.2);
    EXPECT_DOUBLE_EQ(spec->dramStallRate, 0.3);
    EXPECT_EQ(spec->drainStallTicks, ticksFromNs(100.0));
    EXPECT_EQ(spec->dramStallTicks, ticksFromNs(100.0));
    EXPECT_EQ(spec->requestTimeout, ticksFromNs(500.0));
    EXPECT_EQ(spec->backoffBase, ticksFromNs(50.0));
    EXPECT_EQ(spec->maxHostRetries, 4u);
    EXPECT_EQ(spec->degradeBurst, 10u);
    EXPECT_EQ(spec->seed, 7u);
    EXPECT_TRUE(spec->enabled());
}

TEST(FaultSpec, EmptySpecIsDisabled)
{
    std::string err;
    const auto spec = FaultSpec::parse("", err);
    ASSERT_TRUE(spec.has_value());
    EXPECT_FALSE(spec->enabled());
}

TEST(FaultSpec, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(FaultSpec::parse("crc", err).has_value());
    EXPECT_NE(err.find("key=value"), std::string::npos);
    EXPECT_FALSE(FaultSpec::parse("bogus=1", err).has_value());
    EXPECT_FALSE(FaultSpec::parse("crc=notanumber", err).has_value());
    EXPECT_FALSE(FaultSpec::parse("crc=0.1x", err).has_value());
    EXPECT_FALSE(FaultSpec::parse("timeout-ns=0", err).has_value());
}

TEST(FaultSpec, RejectsOutOfRangeValues)
{
    std::string err;
    EXPECT_FALSE(FaultSpec::parse("crc=1.5", err).has_value());
    EXPECT_NE(err.find("[0,1]"), std::string::npos);
    EXPECT_FALSE(FaultSpec::parse("poison=-0.1", err).has_value());
    EXPECT_FALSE(FaultSpec::parse("retries=0", err).has_value());
    EXPECT_FALSE(FaultSpec::parse("retries=17", err).has_value());
    EXPECT_NE(err.find("[1,16]"), std::string::npos);
    // An integer that does not fit its field fails: narrowed, 2^32 + 1
    // would run as a legal retries=1.
    EXPECT_FALSE(FaultSpec::parse("retries=4294967297", err).has_value());
    EXPECT_NE(err.find("retries=4294967297"), std::string::npos) << err;
    EXPECT_FALSE(FaultSpec::parse("degrade=4294967296", err).has_value());
    EXPECT_FALSE(
        FaultSpec::parse("seed=18446744073709551616", err).has_value());
    EXPECT_FALSE(FaultSpec::parse("seed=-1", err).has_value());
    const auto edge = FaultSpec::parse(
        "degrade=4294967295,seed=18446744073709551615", err);
    ASSERT_TRUE(edge.has_value()) << err;
    EXPECT_EQ(edge->degradeBurst, 4294967295u);
    EXPECT_EQ(edge->seed, 18446744073709551615ull);
    // Times must be finite, fit the clock and, where positive, be at
    // least one tick.
    for (const char *text :
         {"timeout-ns=1e300", "timeout-ns=inf", "backoff-ns=nan",
          "stall-ns=-1", "timeout-ns=0.0001", "degrade-window-ns=1e-9",
          "crc=inf", "poison=nan"}) {
        err.clear();
        EXPECT_FALSE(FaultSpec::parse(text, err).has_value()) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    FaultSpec::parse("timeout-ns=1e300", err);
    EXPECT_EQ(err.find("positive"), std::string::npos) << err;
}

TEST(FaultSpec, ToStringRoundTrips)
{
    // Every key, each off its default, in table order: toString must
    // print all of them back, digit for digit.
    const std::string text =
        "crc=0.0001,poison=0.05,timeout=0.012345678,drain=0.02,"
        "dram=0.03,stall-ns=100,timeout-ns=500,backoff-ns=50.125,"
        "retries=4,degrade=10,degrade-window-ns=750,seed=7";
    std::string err;
    const auto spec = FaultSpec::parse(text, err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->toString(), text);
    EXPECT_EQ(FaultSpec::parse(spec->toString(), err)->toString(), text);
}

TEST(FaultSpec, ValidateThrowsOnBadRates)
{
    FaultSpec s;
    s.crcPerFlit = 2.0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = FaultSpec{};
    s.maxHostRetries = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    EXPECT_THROW(FaultInjector{s}, std::invalid_argument);
    s = FaultSpec{};
    s.requestTimeout = maxTick; // beyond any time a spec may hold
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

/* ------------------------ FaultInjector -------------------------- */

TEST(FaultInjector, SameSeedSameDecisionSequence)
{
    FaultSpec s;
    s.crcPerFlit = 0.3;
    s.seed = 1234;
    FaultInjector a(s), b(s);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.flitCrcError(), b.flitCrcError()) << "draw " << i;
}

TEST(FaultInjector, ZeroRateNeverFiresAndBurnsNoRandomness)
{
    FaultSpec s;
    s.crcPerFlit = 0.5;
    s.seed = 99;
    FaultInjector a(s), b(s);
    // b interleaves zero-probability draws; they must not consume
    // from the RNG stream, or disabled fault classes would perturb
    // enabled ones.
    for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(b.poisonRead());
        EXPECT_FALSE(b.requestTimedOut());
        ASSERT_EQ(a.flitCrcError(), b.flitCrcError());
    }
}

TEST(FaultInjector, PoisonArmConsumeHandshake)
{
    FaultSpec s;
    s.readPoisonRate = 1.0;
    FaultInjector fi(s);
    EXPECT_FALSE(fi.consumePoison());
    fi.armPoison();
    EXPECT_TRUE(fi.consumePoison());
    EXPECT_FALSE(fi.consumePoison()) << "consume must disarm";
}

/* -------------------------- link retry --------------------------- */

CxlLinkParams
testLink()
{
    CxlLinkParams p;
    p.rawGBps = 64.0;
    p.flitEfficiency = 0.5;
    p.propagation = ticksFromNs(10.0);
    return p;
}

TEST(CxlLinkRetry, CrcFailureDelaysDeliveryAndBurnsCapacity)
{
    EventQueue eq;
    FaultSpec s;
    s.crcPerFlit = 1.0; // every CRC check fails: worst case, capped
    FaultInjector fi(s);
    CxlLinkDirection healthy(eq, testLink());
    CxlLinkDirection faulty(eq, testLink(), &fi);

    const Tick clean = healthy.transmit(64);
    const Tick dirty = faulty.transmit(64);
    EXPECT_GT(dirty, clean);

    const RasStats &rs = fi.stats();
    EXPECT_GT(rs.crcErrors, 0u);
    EXPECT_EQ(rs.linkRetries, rs.crcErrors);
    EXPECT_EQ(rs.replayBytes,
              rs.flitsReplayed * CxlLinkDirection::flitBytes);
    EXPECT_GT(rs.retryTicks, 0u);
    // Replayed flits burn link capacity on top of the payload.
    EXPECT_EQ(faulty.bytesMoved(), 64u + rs.replayBytes);
}

TEST(CxlLinkRetry, CleanLinkMatchesFaultFreeWhenRateIsZero)
{
    EventQueue eq;
    FaultSpec s;
    s.readPoisonRate = 1.0; // enabled, but CRC rate stays zero
    FaultInjector fi(s);
    CxlLinkDirection healthy(eq, testLink());
    CxlLinkDirection faulty(eq, testLink(), &fi);
    EXPECT_EQ(faulty.transmit(1024), healthy.transmit(1024));
    EXPECT_EQ(fi.stats().crcErrors, 0u);
}

TEST(CxlLinkRetry, ErrorBurstDegradesLinkAtMostTwice)
{
    EventQueue eq;
    FaultSpec s;
    s.crcPerFlit = 1.0;
    s.degradeBurst = 4;
    FaultInjector fi(s);
    CxlLinkDirection dir(eq, testLink(), &fi);
    EXPECT_DOUBLE_EQ(dir.effectiveRawGBps(), 64.0);
    for (int i = 0; i < 8; ++i)
        dir.transmit(64);
    EXPECT_EQ(dir.degradeLevel(), 2u);
    EXPECT_EQ(fi.stats().linkDegradations, 2u);
    EXPECT_DOUBLE_EQ(dir.effectiveRawGBps(), 16.0);
}

/* ------------------- machine-level recovery ---------------------- */

/** Load @p count distinct lines from the CXL node of @p m. */
ThreadStats
loadCxlLines(Machine &m, int count)
{
    NumaBuffer buf =
        m.numa().alloc(4 * miB, MemPolicy::membind(m.cxlNode()));
    std::vector<MemOp> ops;
    for (int i = 0; i < count; ++i)
        ops.push_back({MemOp::Kind::Load,
                       buf.translate(std::uint64_t(i) * 4096), 0});
    HwThread t(m.caches(), 0, m.coreParams());
    t.start(std::make_unique<ListStream>(std::move(ops)),
            m.eq().curTick(), {});
    m.eq().run();
    EXPECT_TRUE(t.finished());
    return t.stats();
}

TEST(MachineFaults, DisabledByDefault)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_EQ(m.faults(), nullptr);
    EXPECT_EQ(m.rasStats(), nullptr);
}

TEST(MachineFaults, TimeoutsRetryWithBackoffAndStillComplete)
{
    MachineOptions o;
    o.faults.timeoutRate = 1.0; // every attempt times out...
    o.faults.maxHostRetries = 3; // ...until the bounded budget is spent
    Machine m(Testbed::SingleSocketCxl, o);
    const ThreadStats ts = loadCxlLines(m, 8);
    EXPECT_EQ(ts.loads, 8u);
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(rs->timeouts, 8u * 3u);
    EXPECT_EQ(rs->hostRetries, rs->timeouts);
    EXPECT_GT(rs->backoffTicks, 0u);
}

TEST(MachineFaults, PoisonIsNeverSilent)
{
    MachineOptions o;
    o.faults.readPoisonRate = 1.0;
    Machine m(Testbed::SingleSocketCxl, o);
    const ThreadStats ts = loadCxlLines(m, 16);
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    EXPECT_GT(rs->poisonInjected, 0u);
    // Accounting invariant: every injected poison is either absorbed
    // by a cache fill or handed to a non-caching consumer.
    EXPECT_EQ(rs->poisonInjected,
              rs->poisonConsumed + rs->poisonDelivered);
    // The consumer sees it: demand loads report the poison indication.
    EXPECT_EQ(ts.poisonedLoads, 16u);
    EXPECT_GT(m.caches().rasStats().poisonedFills, 0u);
}

TEST(MachineFaults, PoisonedLineHitsKeepReporting)
{
    MachineOptions o;
    o.faults.readPoisonRate = 1.0;
    Machine m(Testbed::SingleSocketCxl, o);
    NumaBuffer buf =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.cxlNode()));
    const Addr a = buf.translate(0);
    // Miss (poisoned fill), then -- fenced so the two don't coalesce
    // in one fill buffer -- a cache hit on the same line.
    std::vector<MemOp> ops = {{MemOp::Kind::Load, a, 0},
                              {MemOp::Kind::Mfence, 0, 0},
                              {MemOp::Kind::Load, a, 0}};
    HwThread t(m.caches(), 0, m.coreParams());
    t.start(std::make_unique<ListStream>(std::move(ops)),
            m.eq().curTick(), {});
    m.eq().run();
    EXPECT_EQ(t.stats().poisonedLoads, 2u);
    EXPECT_GE(m.caches().rasStats().poisonedHits, 1u);
    EXPECT_GT(m.caches().poisonedLinesCached(), 0u);
}

TEST(MachineFaults, StallEpisodesAreCounted)
{
    MachineOptions o;
    o.faults.dramStallRate = 1.0;
    o.faults.drainStallRate = 1.0;
    Machine m(Testbed::SingleSocketCxl, o);
    NumaBuffer buf =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.cxlNode()));
    std::vector<MemOp> ops;
    for (int i = 0; i < 8; ++i) {
        const Addr a = buf.translate(std::uint64_t(i) * 4096);
        ops.push_back({MemOp::Kind::NtStore, a, 0});
    }
    ops.push_back({MemOp::Kind::Sfence, 0, 0});
    HwThread t(m.caches(), 0, m.coreParams());
    t.start(std::make_unique<ListStream>(std::move(ops)),
            m.eq().curTick(), {});
    m.eq().run();
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    EXPECT_GT(rs->drainStalls, 0u);
    EXPECT_GT(rs->dramStalls, 0u);
}

TEST(MachineFaults, LocalDdr5StaysHealthy)
{
    MachineOptions o;
    o.faults.readPoisonRate = 1.0;
    o.faults.dramStallRate = 1.0;
    Machine m(Testbed::SingleSocketCxl, o);
    NumaBuffer buf =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.localNode()));
    std::vector<MemOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back({MemOp::Kind::Load,
                       buf.translate(std::uint64_t(i) * 4096), 0});
    HwThread t(m.caches(), 0, m.coreParams());
    t.start(std::make_unique<ListStream>(std::move(ops)),
            m.eq().curTick(), {});
    m.eq().run();
    // Faults model the CXL path only: local DDR5 never poisons or
    // stalls, so nothing fired.
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(rs->poisonInjected, 0u);
    EXPECT_EQ(rs->dramStalls, 0u);
    EXPECT_EQ(t.stats().poisonedLoads, 0u);
}

TEST(MachineFaults, SameSeedSameStatsAcrossMachines)
{
    MachineOptions o;
    o.faults.crcPerFlit = 0.01;
    o.faults.readPoisonRate = 0.01;
    o.faults.timeoutRate = 0.01;
    auto run = [&o] {
        Machine m(Testbed::SingleSocketCxl, o);
        loadCxlLines(m, 64);
        return m.statsString();
    };
    EXPECT_EQ(run(), run());
}

TEST(MachineFaults, StatsStringSurfacesRasCounters)
{
    MachineOptions o;
    o.faults.crcPerFlit = 0.05;
    Machine m(Testbed::SingleSocketCxl, o);
    loadCxlLines(m, 64);
    const std::string s = m.statsString();
    EXPECT_NE(s.find("ras:"), std::string::npos);
    EXPECT_NE(s.find("crc-errors="), std::string::npos);
    EXPECT_NE(s.find("link degrade level"), std::string::npos);
}

TEST(MachineFaults, ResetStatsClearsRasCounters)
{
    MachineOptions o;
    o.faults.crcPerFlit = 1.0;
    Machine m(Testbed::SingleSocketCxl, o);
    loadCxlLines(m, 4);
    ASSERT_GT(m.rasStats()->crcErrors, 0u);
    m.resetStats();
    EXPECT_EQ(m.rasStats()->crcErrors, 0u);
}

} // namespace
} // namespace cxlmemo
