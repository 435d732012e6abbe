/**
 * @file
 * Property-based and parameterized tests: invariants that must hold
 * across the whole parameter space (targets x instruction kinds x
 * seeds), checked with TEST_P sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mem/dram.hh"
#include "memo/memo.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace cxlmemo
{
namespace
{

/* ------------------------- event queue -------------------------- */

class EventQueueProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueProperty, ExecutionIsAlwaysTimeSorted)
{
    Rng rng(GetParam());
    EventQueue eq;
    std::vector<Tick> fired;
    for (int i = 0; i < 500; ++i) {
        const Tick when = rng.below(100000);
        eq.schedule(when, [&fired, &eq] { fired.push_back(eq.curTick()); });
    }
    eq.run();
    ASSERT_EQ(fired.size(), 500u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/* ----------------------------- rng ------------------------------ */

class ZipfianProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ZipfianProperty, MassDecreasesWithRank)
{
    Rng rng(99);
    ZipfianGenerator z(GetParam(), 0.99);
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    for (int i = 0; i < 30000; ++i) {
        const std::uint64_t v = z.next(rng);
        ASSERT_LT(v, GetParam());
        if (v < GetParam() / 10)
            ++head;
        else
            ++tail;
    }
    EXPECT_GT(head, tail); // top decile outweighs the other nine
}

INSTANTIATE_TEST_SUITE_P(Domains, ZipfianProperty,
                         ::testing::Values(100, 1000, 50000, 2000000));

/* ------------------------- dram channel -------------------------- */

struct ChannelCase
{
    std::uint32_t outstanding;
    bool random;
    // gtest names each case by the bytes of its value; spelling out the
    // padding keeps those names the same from one build to the next.
    std::uint8_t pad[3] = {};
};

class ChannelConservation
    : public ::testing::TestWithParam<ChannelCase>
{
};

TEST_P(ChannelConservation, EveryRequestCompletesExactlyOnce)
{
    const ChannelCase c = GetParam();
    EventQueue eq;
    DramChannelParams p;
    p.ntPostedEntries = 4;
    DramChannel ch(eq, p);
    Rng rng(7);

    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::function<void()> issue = [&] {
        if (issued >= 5000)
            return;
        ++issued;
        MemRequest r;
        r.addr = c.random ? rng.below(1u << 26)
                          : (issued * cachelineBytes);
        r.addr &= ~Addr(63);
        r.size = cachelineBytes;
        // Mix commands deterministically.
        const auto k = issued % 4;
        r.cmd = k == 0   ? MemCmd::Read
                : k == 1 ? MemCmd::Write
                : k == 2 ? MemCmd::NtWrite
                         : MemCmd::Prefetch;
        r.onComplete = [&](Tick) {
            ++completed;
            issue();
        };
        ch.access(std::move(r));
    };
    for (std::uint32_t i = 0; i < c.outstanding; ++i)
        issue();
    eq.run();
    EXPECT_EQ(issued, 5000u);
    EXPECT_EQ(completed, 5000u);
    EXPECT_EQ(ch.outstanding(), 0u);
    const DeviceStats s = ch.stats();
    EXPECT_EQ(s.reads + s.writes, 5000u);
    EXPECT_EQ(s.rowHits + s.rowMisses, 5000u);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, ChannelConservation,
    ::testing::Values(ChannelCase{1, false}, ChannelCase{1, true},
                      ChannelCase{8, false}, ChannelCase{8, true},
                      ChannelCase{64, false}, ChannelCase{64, true}));

class ChannelBandwidthBound
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ChannelBandwidthBound, NeverExceedsBusPeak)
{
    EventQueue eq;
    DramChannelParams p;
    p.peakGBps = 30.0;
    p.busEfficiency = 1.0;
    DramChannel ch(eq, p);
    std::uint64_t bytes = 0;
    std::uint64_t next = 0;
    std::function<void()> issue = [&] {
        MemRequest r;
        r.addr = (next++) * cachelineBytes;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        r.onComplete = [&](Tick) {
            bytes += cachelineBytes;
            issue();
        };
        ch.access(std::move(r));
    };
    for (std::uint32_t i = 0; i < GetParam(); ++i)
        issue();
    eq.runUntil(ticksFromUs(50.0));
    EXPECT_LE(gbPerSec(bytes, ticksFromUs(50.0)), 30.0 + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Outstanding, ChannelBandwidthBound,
                         ::testing::Values(1, 4, 16, 64, 256));

/* ------------------------- memo invariants ----------------------- */

class TargetProperty : public ::testing::TestWithParam<memo::Target>
{
  protected:
    static memo::Options
    fast()
    {
        memo::Options o;
        o.warmupUs = 15.0;
        o.measureUs = 50.0;
        return o;
    }
};

TEST_P(TargetProperty, BandwidthScalesAtLowThreadCounts)
{
    const double one = memo::runSeqBandwidth(GetParam(),
                                             MemOp::Kind::Load, 1,
                                             fast());
    const double two = memo::runSeqBandwidth(GetParam(),
                                             MemOp::Kind::Load, 2,
                                             fast());
    EXPECT_GT(two, 1.5 * one);
}

TEST_P(TargetProperty, BandwidthIsDeterministic)
{
    const double a = memo::runSeqBandwidth(GetParam(),
                                           MemOp::Kind::Load, 4, fast());
    const double b = memo::runSeqBandwidth(GetParam(),
                                           MemOp::Kind::Load, 4, fast());
    EXPECT_DOUBLE_EQ(a, b);
}

TEST_P(TargetProperty, LatencyProbesAreDeterministic)
{
    const auto a = memo::runLatency(GetParam());
    const auto b = memo::runLatency(GetParam());
    EXPECT_DOUBLE_EQ(a.loadNs, b.loadNs);
    EXPECT_DOUBLE_EQ(a.storeWbNs, b.storeWbNs);
    EXPECT_DOUBLE_EQ(a.ntStoreNs, b.ntStoreNs);
    EXPECT_DOUBLE_EQ(a.ptrChaseNs, b.ptrChaseNs);
}

TEST_P(TargetProperty, LoadedLatencyNotBelowIdle)
{
    const double idle = memo::runLoadedLatency(GetParam(), 1, fast());
    const double loaded = memo::runLoadedLatency(GetParam(), 8, fast());
    EXPECT_GE(loaded, idle * 0.98);
}

TEST_P(TargetProperty, RandomNeverBeatsSequential)
{
    const double seq = memo::runSeqBandwidth(GetParam(),
                                             MemOp::Kind::Load, 4,
                                             fast());
    const double rnd = memo::runRandBandwidth(
        GetParam(), MemOp::Kind::Load, 4, 1 * kiB, fast());
    EXPECT_LE(rnd, seq * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, TargetProperty,
    ::testing::Values(memo::Target::Ddr5Local, memo::Target::Ddr5Remote,
                      memo::Target::Cxl),
    [](const auto &info) -> std::string {
        switch (info.param) {
          case memo::Target::Ddr5Local:
            return "Ddr5Local";
          case memo::Target::Ddr5Remote:
            return "Ddr5Remote";
          case memo::Target::Cxl:
            return "Cxl";
        }
        return "unknown";
    });

/* -------------------- weighted interleave ------------------------ */

class SplitProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(SplitProperty, ResidencyTracksRequestedFraction)
{
    Machine m(Testbed::SingleSocketCxl);
    const double frac = GetParam();
    NumaBuffer buf = m.numa().alloc(
        64 * miB,
        MemPolicy::splitDramCxl(m.localNode(), m.cxlNode(), frac));
    EXPECT_NEAR(buf.residencyOn(m.cxlNode()), frac, 0.012);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitProperty,
                         ::testing::Values(0.0, 0.0323, 0.05, 0.1, 0.2,
                                           0.25, 0.5, 0.75, 0.9, 1.0));

} // namespace
} // namespace cxlmemo
