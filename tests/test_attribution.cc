/**
 * @file
 * Tests for exhaustive latency accounting and bottleneck attribution:
 * station arithmetic, exact/associative snapshot merging, the two
 * built-in invariants (exact decomposition, Little's law) on real
 * runs, the bottleneck verdict's three regimes, and the off-by-default
 * contract (no board, bit-identical results).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "memo/memo.hh"
#include "sim/attribution.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

memo::Options
fastOpts()
{
    memo::Options o;
    o.warmupUs = 20.0;
    o.measureUs = 60.0;
    return o;
}

/* ------------------------ AccountedStation ----------------------- */

TEST(AccountedStation, PassThroughAccumulatesAndCreditsOccupancy)
{
    AccountedStation s;
    s.passThrough(/*queued=*/10, /*service=*/30, /*busy=*/30,
                  /*stack=*/true, /*end=*/40);
    s.passThrough(5, 15, 0, false, 60);
    EXPECT_EQ(s.enters, 2u);
    EXPECT_EQ(s.exits, 2u);
    EXPECT_EQ(s.queueTicks, 15u);
    EXPECT_EQ(s.serviceTicks, 45u);
    EXPECT_EQ(s.busyTicks, 30u);
    EXPECT_EQ(s.occIntegral, 60u); // residency-credited
    EXPECT_EQ(s.stackQueueTicks, 10u);
    EXPECT_EQ(s.stackServiceTicks, 30u);
    EXPECT_EQ(s.intervalEnd, 60u);
}

TEST(AccountedStation, EnterExitIntegratesOccupancy)
{
    AccountedStation s;
    s.enter(100);
    s.enter(100);
    s.exitNow(150); // 2 occupants for 50 ticks
    s.exitNow(200); // 1 occupant for 50 ticks
    EXPECT_EQ(s.occIntegral, 150u);
    // Out-of-order (stale) transition is a no-op, never a rollback.
    s.enter(150);
    EXPECT_EQ(s.occIntegral, 150u);
    EXPECT_EQ(s.lastOcc, 200u);
}

TEST(AccountedStation, ResetKeepsLiveOccupancy)
{
    AccountedStation s;
    s.enter(10);
    s.account(5, 7, 7, true, 20);
    s.reset(100);
    EXPECT_EQ(s.queueTicks, 0u);
    EXPECT_EQ(s.stackServiceTicks, 0u);
    EXPECT_EQ(s.occupancy, 1u); // still in-station
    EXPECT_EQ(s.lastOcc, 100u);
    EXPECT_EQ(s.intervalEnd, 100u);
    s.exitNow(150);
    EXPECT_EQ(s.occIntegral, 50u); // integrates from the reset point
}

/* ------------------------- snapshot merge ------------------------ */

AttribSnapshot
syntheticSnap(std::uint64_t seed)
{
    AttribSnapshot s;
    s.elapsed = 1000 * seed;
    s.reqCount = 10 * seed;
    s.totalTicks = 5000 * seed;
    s.devReads = 7 * seed;
    s.devWrites = 3 * seed;
    for (std::size_t i = 0; i < numStations; ++i) {
        StationSnap &st = s.st[i];
        st.enters = seed + i;
        st.exits = seed + i;
        st.queueTicks = 11 * seed + i;
        st.serviceTicks = 13 * seed + 2 * i;
        st.busyTicks = 7 * seed + i;
        st.occIntegral = 17 * seed + 3 * i;
        st.stackQueueTicks = 2 * seed;
        st.stackServiceTicks = 3 * seed;
    }
    return s;
}

bool
snapEqual(const AttribSnapshot &a, const AttribSnapshot &b)
{
    if (a.elapsed != b.elapsed || a.reqCount != b.reqCount
        || a.totalTicks != b.totalTicks || a.devReads != b.devReads
        || a.devWrites != b.devWrites) {
        return false;
    }
    for (std::size_t i = 0; i < numStations; ++i) {
        const StationSnap &x = a.st[i];
        const StationSnap &y = b.st[i];
        if (x.enters != y.enters || x.exits != y.exits
            || x.queueTicks != y.queueTicks
            || x.serviceTicks != y.serviceTicks
            || x.busyTicks != y.busyTicks
            || x.occIntegral != y.occIntegral
            || x.stackQueueTicks != y.stackQueueTicks
            || x.stackServiceTicks != y.stackServiceTicks) {
            return false;
        }
    }
    return true;
}

TEST(AttribSnapshot, MergeIsExactAndAssociative)
{
    // (a + b) + c == a + (b + c), field for field: integer sums only,
    // so `--jobs` parallel sweeps merge deterministically.
    AttribSnapshot left = syntheticSnap(1);
    AttribSnapshot bc = syntheticSnap(2);
    left.merge(syntheticSnap(2));
    left.merge(syntheticSnap(3));
    bc.merge(syntheticSnap(3));
    AttribSnapshot right = syntheticSnap(1);
    right.merge(bc);
    EXPECT_TRUE(snapEqual(left, right));
    // ...and commutative.
    AttribSnapshot ba = syntheticSnap(2);
    ba.merge(syntheticSnap(1));
    AttribSnapshot ab = syntheticSnap(1);
    ab.merge(syntheticSnap(2));
    EXPECT_TRUE(snapEqual(ab, ba));
}

TEST(AttribSnapshot, DerivedFiguresComputedFromMergedSums)
{
    AttribSnapshot a = syntheticSnap(2);
    const double beforeTotal = a.avgTotalNs();
    a.merge(syntheticSnap(2));
    // Identical halves: averages are unchanged, sums double.
    EXPECT_DOUBLE_EQ(a.avgTotalNs(), beforeTotal);
    EXPECT_EQ(a.reqCount, 40u);
    EXPECT_EQ(a.totalTicks, 20000u);
}

/* ------------------------- board bracket ------------------------- */

TEST(AttributionBoard, StackBoundedWhileRequestsAreInFlight)
{
    AttributionBoard b(0);
    // A retired request and a still-live one that already accumulated
    // stack contributions past the snapshot tick.
    b.beginRequest(100);
    b.completeRequest(100, 400);
    b.beginRequest(500);
    b.station(StationId::CxlBackend)
        .account(/*queued=*/50, /*service=*/150, /*busy=*/150,
                 /*stack=*/true, /*end=*/900);
    const AttribSnapshot s = b.snapshot(600);
    EXPECT_EQ(s.reqCount, 2u);
    // live bracket charged up to the horizon (900), not `now` (600)
    EXPECT_EQ(s.totalTicks, 300u + (900u - 500u));
    EXPECT_TRUE(s.decompositionExact());
    EXPECT_EQ(s.stackTicks() + s.otherTicks(), s.totalTicks);
}

TEST(AttributionBoard, WindowResetKeepsLiveBrackets)
{
    AttributionBoard b(0);
    b.beginRequest(100);
    b.beginWindow(1000);
    b.completeRequest(100, 1200); // straddles the reset
    const AttribSnapshot s = b.snapshot(2000);
    EXPECT_EQ(s.reqCount, 1u);
    EXPECT_EQ(s.totalTicks, 1100u); // true start, not clamped
    EXPECT_EQ(s.elapsed, 1000u);
}

/* ----------------------- bottleneck verdict ---------------------- */

AttribSnapshot
regimeBase()
{
    AttribSnapshot s;
    s.elapsed = 1000;
    for (std::size_t i = 0; i < numStations; ++i) {
        s.st[i].servers = 1;
        s.st[i].enters = 1;
        s.st[i].exits = 1;
    }
    return s;
}

TEST(Bottleneck, WriteFloodBlamesIngressNotBackend)
{
    AttribSnapshot s = regimeBase();
    s.devWrites = 100;
    s.devReads = 2;
    // The drain path is busiest, but posted writes are acknowledged at
    // the ingress buffer: the verdict must stay on the host-visible
    // path (the paper's nt-store overload narrative).
    s.st[static_cast<std::size_t>(StationId::CxlBackend)].busyTicks = 990;
    auto &ing = s.st[static_cast<std::size_t>(StationId::CxlIngress)];
    ing.buffer = true;
    ing.occIntegral = 950;
    EXPECT_EQ(s.bottleneck(), StationId::CxlIngress);
}

TEST(Bottleneck, SaturatedServerOutranksFullBuffer)
{
    AttribSnapshot s = regimeBase();
    s.devReads = 100;
    // The ingress tracker is pegged (full buffer), but only because
    // the backend behind it is saturated: blame the root cause.
    auto &ing = s.st[static_cast<std::size_t>(StationId::CxlIngress)];
    ing.buffer = true;
    ing.occIntegral = 1000;
    s.st[static_cast<std::size_t>(StationId::CxlBackend)].busyTicks = 900;
    EXPECT_EQ(s.bottleneck(), StationId::CxlBackend);
}

TEST(Bottleneck, LatencyBoundNamesLargestStackContributor)
{
    AttribSnapshot s = regimeBase();
    s.devReads = 100;
    s.reqCount = 10;
    s.totalTicks = 1000;
    // Nothing is utilized; the verdict falls back to the latency
    // stack's biggest component.
    s.st[static_cast<std::size_t>(StationId::CxlEgress)]
        .stackServiceTicks = 500;
    s.st[static_cast<std::size_t>(StationId::Cache)].stackServiceTicks =
        200;
    EXPECT_EQ(s.bottleneck(), StationId::CxlEgress);
}

/* ----------------------- machine-level runs ---------------------- */

TEST(MachineAttribution, DefaultBuildsNoBoard)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_EQ(m.attribution(), nullptr);
}

TEST(MachineAttribution, DisabledModeIsBitIdentical)
{
    // Enabling attribution must never change simulated timing: the
    // measured bandwidth agrees to the last bit.
    memo::Options off = fastOpts();
    memo::Options on = fastOpts();
    on.obs.attribution = true;
    const double gbpsOff = memo::runSeqBandwidth(
        memo::Target::Cxl, MemOp::Kind::Load, 8, off);
    const double gbpsOn = memo::runSeqBandwidth(
        memo::Target::Cxl, MemOp::Kind::Load, 8, on);
    EXPECT_EQ(gbpsOff, gbpsOn);
}

AttribSnapshot
snapFromRun(memo::Target target, MemOp::Kind op, std::uint32_t threads)
{
    memo::Options opts = fastOpts();
    opts.obs.attribution = true;
    AttribSnapshot snap;
    opts.onMachineDone = [&snap](Machine &m) {
        ASSERT_NE(m.attribution(), nullptr);
        snap.merge(m.attribution()->snapshot(m.eq().curTick()));
    };
    memo::runSeqBandwidth(target, op, threads, opts);
    return snap;
}

TEST(MachineAttribution, ExactDecompositionOnRealRun)
{
    for (std::uint32_t threads : {1u, 8u, 24u}) {
        const AttribSnapshot s =
            snapFromRun(memo::Target::Cxl, MemOp::Kind::Load, threads);
        EXPECT_GT(s.reqCount, 100u) << threads << " threads";
        EXPECT_TRUE(s.decompositionExact()) << threads << " threads";
        // total == sum(components) + residual, exactly, in ticks.
        EXPECT_EQ(s.stackTicks() + s.otherTicks(), s.totalTicks)
            << threads << " threads";
    }
}

TEST(MachineAttribution, LittlesLawOpenAndClosedLoop)
{
    // Closed loop: one thread, LFB-limited. Open-ish loop: enough
    // threads that device queues really build up.
    const AttribSnapshot closed =
        snapFromRun(memo::Target::Cxl, MemOp::Kind::Load, 1);
    EXPECT_TRUE(closed.littleOk());
    const AttribSnapshot open =
        snapFromRun(memo::Target::Cxl, MemOp::Kind::Load, 16);
    EXPECT_TRUE(open.littleOk());
    // ...and on the host-local path too.
    const AttribSnapshot local =
        snapFromRun(memo::Target::Ddr5Local, MemOp::Kind::Load, 8);
    EXPECT_TRUE(local.littleOk());
}

TEST(MachineAttribution, BackendIsTheReadBandwidthBottleneck)
{
    // Paper Fig. 3: the CXL read-bandwidth knee comes from the
    // device's DDR back-end, not the link.
    const AttribSnapshot s =
        snapFromRun(memo::Target::Cxl, MemOp::Kind::Load, 16);
    EXPECT_EQ(s.bottleneck(), StationId::CxlBackend);
    EXPECT_GT(s.util(StationId::CxlBackend), 0.5);
}

TEST(MachineAttribution, NtStoreFloodBlamesControllerIngress)
{
    // Paper SS5.2: nt-store floods overload the CXL controller; writes
    // are acknowledged at ingress, so that is where the verdict lands.
    const AttribSnapshot s =
        snapFromRun(memo::Target::Cxl, MemOp::Kind::NtStore, 16);
    EXPECT_GT(s.devWrites, 3 * s.devReads);
    EXPECT_EQ(s.bottleneck(), StationId::CxlIngress);
}

TEST(MachineAttribution, MergeAcrossMachinesMatchesJobSplit)
{
    // Two half-length windows merged must yield the same derived
    // figures as accumulating both runs into one snapshot in either
    // order (what `--jobs` does with out-of-order completions).
    AttribSnapshot a =
        snapFromRun(memo::Target::Cxl, MemOp::Kind::Load, 4);
    AttribSnapshot b =
        snapFromRun(memo::Target::Cxl, MemOp::Kind::Load, 8);
    AttribSnapshot ab = a;
    ab.merge(b);
    AttribSnapshot ba = b;
    ba.merge(a);
    EXPECT_TRUE(snapEqual(ab, ba));
    EXPECT_EQ(ab.stackTicks(), a.stackTicks() + b.stackTicks());
    EXPECT_EQ(ab.totalTicks, a.totalTicks + b.totalTicks);
    EXPECT_TRUE(ab.decompositionExact());
}

TEST(MachineAttribution, ChaseSweepBracketsEveryDemandRead)
{
    // memo's chase and latency modes run their streams through
    // memo::runStream, whose thread must feed the board's request
    // bracket: otherwise the stations add up stack ticks against zero
    // bracketed reads and the decomposition breaks.
    memo::Options opts = fastOpts();
    opts.obs.attribution = true;
    AttribSnapshot snap;
    opts.onMachineDone = [&snap](Machine &m) {
        ASSERT_NE(m.attribution(), nullptr);
        snap = m.attribSnapshot();
    };
    memo::runPtrChaseWssSweep(memo::Target::Cxl, {4 * kiB, 1 * miB},
                              opts);
    EXPECT_GT(snap.reqCount, 0u);
    EXPECT_TRUE(snap.decompositionExact());
    EXPECT_EQ(snap.stackTicks() + snap.otherTicks(), snap.totalTicks);
}

TEST(MachineAttribution, StatsStringCarriesAttribLines)
{
    memo::Options opts = fastOpts();
    opts.obs.attribution = true;
    std::string stats;
    opts.onMachineDone = [&stats](Machine &m) {
        stats = m.statsString();
    };
    memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load, 4,
                          opts);
    EXPECT_NE(stats.find("attrib: "), std::string::npos);
    EXPECT_NE(stats.find("bottleneck="), std::string::npos);
}

} // namespace
} // namespace cxlmemo
