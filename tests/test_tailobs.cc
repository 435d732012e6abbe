/**
 * @file
 * Tests for the tail-forensics layer: worst-K outlier capture
 * (ordering, bounding, exact associative merges, stage-stack
 * exactness, regime classification), the exact-bucket windowed
 * quantile extractor and its metrics wiring, machine-level
 * determinism of `--tail-trace` across job counts, and
 * the `memo diff` differential regression verdicts on pinned fixture
 * CSVs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "memo/diff.hh"
#include "memo/memo.hh"
#include "sim/histogram.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"
#include "sim/tailcap.hh"
#include "sim/trace.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

/* --------------------------- TailCapture ------------------------- */

TraceSpan
mkSpan(std::uint64_t id, Tick start, Tick end,
       std::vector<StageMark> marks = {}, std::uint16_t source = 0)
{
    TraceSpan s;
    s.id = id;
    s.source = source;
    s.cmd = MemCmd::Read;
    s.addr = 0x1000 + id * 64;
    s.start = start;
    s.end = end;
    s.marks = std::move(marks);
    return s;
}

TEST(TailWorse, StrictTotalOrder)
{
    TailSpan a, b;
    a.start = b.start = 100;
    a.end = 300;
    b.end = 200; // a has higher latency -> worse
    EXPECT_TRUE(tailWorse(a, b));
    EXPECT_FALSE(tailWorse(b, a));

    // Equal latency: earlier start is worse (stable, deterministic).
    b.start = 200;
    b.end = 400;
    EXPECT_TRUE(tailWorse(a, b));

    // Equal latency and start: lower id wins, then lower source.
    b.start = 100;
    b.end = 300;
    a.id = 1;
    b.id = 2;
    EXPECT_TRUE(tailWorse(a, b));
    b.id = 1;
    a.source = 0;
    b.source = 1;
    EXPECT_TRUE(tailWorse(a, b));
    b.source = 0;
    // Fully equal keys: irreflexive.
    EXPECT_FALSE(tailWorse(a, b));
    EXPECT_FALSE(tailWorse(b, a));
}

TEST(TailCapture, DisabledConsidersNothing)
{
    TailCapture tc; // k == 0
    tc.consider(mkSpan(1, 0, 100));
    EXPECT_EQ(tc.considered(), 0u);
    EXPECT_EQ(tc.held(), 0u);
    EXPECT_EQ(tc.summary().regime, "none");
}

TEST(TailCapture, KeepsWorstKPerClassAnyInsertionOrder)
{
    // 100 local reads with latencies 1..100, inserted in two very
    // different orders: the retained set must be identical (the set's
    // top-K, not the stream's).
    std::vector<TraceSpan> spans;
    for (std::uint64_t i = 0; i < 100; ++i)
        spans.push_back(mkSpan(i, 1000 + i, 1000 + i + (i + 1)));

    TailCapture fwd(8), rev(8);
    for (const TraceSpan &s : spans)
        fwd.consider(s);
    for (auto it = spans.rbegin(); it != spans.rend(); ++it)
        rev.consider(*it);

    ASSERT_EQ(fwd.held(), 8u);
    ASSERT_EQ(rev.held(), 8u);
    const auto &f = fwd.regimeSpans(TailRegime::Local);
    const auto &r = rev.regimeSpans(TailRegime::Local);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(f[i].id, r[i].id);
        EXPECT_EQ(f[i].latency(), r[i].latency());
        // Worse-first: latencies 100, 99, ...
        EXPECT_EQ(f[i].latency(), Tick(100 - i));
    }
    EXPECT_EQ(fwd.considered(), 100u);
}

TEST(TailCapture, MergeIsExactAssociativeTopKUnion)
{
    std::vector<TraceSpan> spans;
    std::uint64_t x = 12345;
    for (std::uint64_t i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        spans.push_back(mkSpan(i, 10 * i, 10 * i + 50 + (x >> 56)));
    }

    // One capture sees everything...
    TailCapture all(6);
    for (const TraceSpan &s : spans)
        all.consider(s);

    // ...three shards split it, merged in both groupings.
    TailCapture a(6), b(6), c(6);
    for (std::size_t i = 0; i < spans.size(); ++i)
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).consider(spans[i]);

    TailCapture left(6);
    left.merge(a);
    left.merge(b);
    left.merge(c);
    TailCapture bc(6);
    bc.merge(b);
    bc.merge(c);
    TailCapture right; // k == 0: adopts depth from the first merge
    right.merge(a);
    right.merge(bc);

    EXPECT_EQ(right.k(), 6u);
    ASSERT_EQ(left.held(), all.held());
    ASSERT_EQ(right.held(), all.held());
    EXPECT_EQ(left.considered(), all.considered());
    EXPECT_EQ(right.considered(), all.considered());
    const auto &la = left.regimeSpans(TailRegime::Local);
    const auto &ra = right.regimeSpans(TailRegime::Local);
    const auto &aa = all.regimeSpans(TailRegime::Local);
    for (std::size_t i = 0; i < aa.size(); ++i) {
        EXPECT_EQ(la[i].id, aa[i].id);
        EXPECT_EQ(ra[i].id, aa[i].id);
    }
}

TEST(TailCapture, ClassifiesRegimesFromStages)
{
    auto regime = [](std::vector<StageMark> marks) {
        return TailCapture::classify(mkSpan(1, 0, 100,
                                            std::move(marks)));
    };
    EXPECT_EQ(regime({}), TailRegime::Local);
    EXPECT_EQ(regime({{TraceStage::Cache, 10}, {TraceStage::Dram, 20}}),
              TailRegime::Local);
    EXPECT_EQ(regime({{TraceStage::Cache, 10}, {TraceStage::Upi, 20}}),
              TailRegime::Remote);
    // Device back-end DRAM marks as Dram, but the CXL link stages
    // pin the regime.
    EXPECT_EQ(regime({{TraceStage::CxlM2s, 10},
                      {TraceStage::Dram, 40}}),
              TailRegime::Cxl);
    // Any switch stage wins over CXL stages.
    EXPECT_EQ(regime({{TraceStage::CxlM2s, 10},
                      {TraceStage::SwVoq, 30}}),
              TailRegime::Fabric);
}

TEST(TailCapture, StageBreakdownTelescopesExactly)
{
    // Stage marks at arbitrary (even out-of-order) ticks: the signed
    // telescoped contributions must sum exactly to end - start.
    TailSpan s;
    s.start = 1000;
    s.end = 1777;
    s.marks = {{TraceStage::Cache, 1100},
               {TraceStage::CxlM2s, 1090}, // out of order on purpose
               {TraceStage::CxlIngress, 1500}};
    const auto stages = TailCapture::stageBreakdown(s);
    std::int64_t sum = 0;
    for (const TailStage &st : stages)
        sum += st.ticks;
    EXPECT_EQ(sum, std::int64_t(s.end - s.start));
    EXPECT_TRUE(TailCapture::stackExact(s));
    // Leading Issue gap: start -> first mark.
    ASSERT_FALSE(stages.empty());
    EXPECT_EQ(stages.front().stage, TraceStage::Issue);
    EXPECT_EQ(stages.front().ticks, 100);

    // Mark-less span: one Issue entry covering the whole latency.
    TailSpan bare;
    bare.start = 10;
    bare.end = 60;
    const auto only = TailCapture::stageBreakdown(bare);
    ASSERT_EQ(only.size(), 1u);
    EXPECT_EQ(only[0].stage, TraceStage::Issue);
    EXPECT_EQ(only[0].ticks, 50);
    EXPECT_TRUE(TailCapture::stackExact(bare));
}

TEST(TailCapture, SummaryAndTableNameTheWorstRead)
{
    TailCapture tc(4);
    tc.consider(mkSpan(7, 0, ticksFromNs(900.0),
                       {{TraceStage::CxlM2s, ticksFromNs(100.0)},
                        {TraceStage::CxlIngress,
                         ticksFromNs(200.0)}}));
    tc.consider(mkSpan(8, 0, ticksFromNs(100.0)));
    const TailSummary sum = tc.summary();
    EXPECT_EQ(sum.k, 4u);
    EXPECT_EQ(sum.held, 2u);
    EXPECT_EQ(sum.considered, 2u);
    EXPECT_NEAR(sum.worstNs, 900.0, 1e-6);
    EXPECT_EQ(sum.regime, "cxl");
    // Dominant stage: cxl_ingress covers 200ns..900ns of the bracket.
    EXPECT_EQ(sum.stage, "cxl_ingress");
    EXPECT_NEAR(sum.stageNs, 700.0, 1e-6);
    EXPECT_TRUE(sum.stackExact);
    // kth: with K=4 and only 2 held, the kth is the last held one.
    EXPECT_NEAR(sum.kthNs, 100.0, 1e-6);

    const std::string table = tc.table();
    EXPECT_NE(table.find("worst-K"), std::string::npos);
    EXPECT_NE(table.find("cxl_ingress"), std::string::npos);
}

TEST(TailCapture, TraceEventsExportOnTailTrack)
{
    TailCapture tc(2);
    tc.consider(mkSpan(3, ticksFromNs(10.0), ticksFromNs(400.0),
                       {{TraceStage::Dram, ticksFromNs(50.0)}}));
    std::string out;
    bool first = true;
    tc.appendTraceEvents(out, /*pid=*/1, first);
    EXPECT_FALSE(first);
    EXPECT_NE(out.find("tail:local"), std::string::npos);
    EXPECT_NE(out.find("\"tid\":999"), std::string::npos);
    EXPECT_NE(out.find("dram"), std::string::npos);
}

/* ------------------- windowed quantile extraction ---------------- */

TEST(QuantilesFromBuckets, MatchesPercentileOracle)
{
    // The batch extractor must agree with LatencyHistogram's own
    // nearest-rank percentile() for every quantile, on an awkward
    // multi-modal distribution.
    LatencyHistogram h;
    std::uint64_t x = 99;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t v =
            (i % 10 == 0) ? 5000 + (x >> 52) : 100 + (x >> 58);
        h.record(v);
    }
    const double qs[] = {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9};
    double out[7];
    LatencyHistogram::quantilesFromBuckets(h.bucketCounts(), h.count(),
                                           qs, out, 7);
    // percentile() additionally clamps to the exact min/max; apply
    // the same clamp so only the rank/bucket walk is under test.
    for (std::size_t i = 0; i < 7; ++i) {
        const double clamped =
            std::clamp(out[i], static_cast<double>(h.min()),
                       static_cast<double>(h.max()));
        EXPECT_DOUBLE_EQ(clamped, h.percentile(qs[i]))
            << "q " << qs[i];
    }
}

TEST(QuantilesFromBuckets, EmptyWindowYieldsZeros)
{
    std::array<std::uint64_t, LatencyHistogram::kBuckets> counts{};
    const double qs[] = {50.0, 99.0};
    double out[2] = {-1.0, -1.0};
    LatencyHistogram::quantilesFromBuckets(counts, 0, qs, out, 2);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(MetricsRegistry, WindowedPercentilesAreDeltasNotCumulative)
{
    LatencyHistogram h;
    MetricsRegistry m;
    m.addHistogram("lat.dev", [&h] { return &h; }, 1.0);

    // Interval 1: slow samples only.
    for (int i = 0; i < 100; ++i)
        h.record(1000);
    m.snapshot(ticksFromNs(100.0));
    // Interval 2: fast samples only -- a cumulative extractor would
    // still report ~1000 at p50; the windowed one must say 10.
    for (int i = 0; i < 100; ++i)
        h.record(10);
    m.snapshot(ticksFromNs(200.0));

    std::map<std::string, std::vector<double>> rows;
    std::istringstream is(m.rows());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string t, name, kind, value;
        std::getline(ls, t, ',');
        std::getline(ls, name, ',');
        std::getline(ls, kind, ',');
        std::getline(ls, value, ',');
        if (kind == "pctl")
            rows[name].push_back(std::stod(value));
    }
    ASSERT_EQ(rows.at("lat.dev.p50").size(), 2u);
    EXPECT_NEAR(rows.at("lat.dev.p50")[0], 1000.0, 1000.0 * 0.04);
    EXPECT_NEAR(rows.at("lat.dev.p50")[1], 10.0, 10.0 * 0.04);
    ASSERT_EQ(rows.at("lat.dev.p999").size(), 2u);
    // The companion count makes the windows auditable.
    EXPECT_NE(m.rows().find("lat.dev.n,"), std::string::npos);
}

TEST(MetricsRegistry, QuietWindowEmitsNoPercentileRows)
{
    LatencyHistogram h;
    MetricsRegistry m;
    m.addHistogram("lat.dev", [&h] { return &h; }, 1.0);
    h.record(100);
    m.snapshot(ticksFromNs(100.0));
    m.snapshot(ticksFromNs(200.0)); // no new samples
    std::size_t pctlRows = 0;
    std::istringstream is(m.rows());
    std::string line;
    while (std::getline(is, line))
        if (line.find(",pctl,") != std::string::npos)
            ++pctlRows;
    // 4 quantiles for the active window, none for the quiet one.
    EXPECT_EQ(pctlRows, 4u);
}

/* ------------------------ machine wiring ------------------------- */

TEST(MachineTailObs, CapturesEveryDemandReadWithExactStacks)
{
    memo::Options opts;
    opts.obs.tailK = 8;
    TailSummary sum;
    std::vector<Tick> lats;
    opts.onMachineDone = [&](Machine &m) {
        TailCapture *tc = m.tailCapture();
        ASSERT_NE(tc, nullptr);
        sum = tc->summary();
        for (const TailSpan *s : tc->worstFirst())
            lats.push_back(s->latency());
    };
    memo::runLoadedLatency(memo::Target::Cxl, 2, opts);
    EXPECT_GT(sum.considered, 1000u);
    EXPECT_GT(sum.held, 0u);
    EXPECT_LE(sum.held, 8u * numTailRegimes);
    EXPECT_TRUE(sum.stackExact);
    EXPECT_GT(sum.worstNs, 0.0);
    EXPECT_NE(sum.regime, "none");
    // The worst read really is the worst retained one.
    ASSERT_FALSE(lats.empty());
    EXPECT_DOUBLE_EQ(sum.worstNs,
                     nsFromTicks(*std::max_element(lats.begin(),
                                                   lats.end())));
}

TEST(MachineTailObs, SamplingOffByDefaultWhenOnlyTailArmed)
{
    memo::Options opts;
    opts.obs.tailK = 4;
    std::uint64_t ringSpans = 0;
    opts.onMachineDone = [&](Machine &m) {
        ASSERT_NE(m.tracer(), nullptr);
        ringSpans = m.tracer()->completedCount();
    };
    memo::runLoadedLatency(memo::Target::Cxl, 1, opts);
    // Tail-only spans are recycled, never exported as samples.
    EXPECT_EQ(ringSpans, 0u);
}

TEST(MachineTailObs, ByteIdenticalAcrossJobs)
{
    auto run = [](unsigned jobs) {
        SweepRunner pool(jobs);
        auto tables = pool.map(3, [](std::size_t i) {
            memo::Options o;
            o.obs.tailK = 4;
            std::string t;
            o.onMachineDone = [&t](Machine &m) {
                t = m.tailCapture()->table();
            };
            memo::runLoadedLatency(memo::Target::Cxl,
                                   1 + static_cast<std::uint32_t>(i),
                                   o);
            return t;
        });
        std::string all;
        for (const std::string &t : tables)
            all += t;
        return all;
    };
    const std::string one = run(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, run(4));
}

/* --------------------------- memo diff --------------------------- */

/** Minimal attribution-tier CSV: identity + the three columns the
 *  diff needs per station it should name, plus the basis columns. */
std::string
fixtureCsv(double backendQ, double backendS, double ingressS,
           double totalNs, double p99)
{
    std::ostringstream os;
    os << "target,op,threads,attrib_cxl_ingress_q_ns,"
          "attrib_cxl_ingress_s_ns,attrib_cxl_backend_q_ns,"
          "attrib_cxl_backend_s_ns,attrib_total_ns,lat_p99_ns\n";
    os << "CXL,load,8,0.05," << ingressS << "," << backendQ << ","
       << backendS << "," << totalNs << "," << p99 << "\n";
    return os.str();
}

TEST(MemoDiff, BackendSlowdownNamesCxlBackendService)
{
    // B: the device's service time grew 40%, queueing unchanged ->
    // "got slower, not more contended".
    const std::string a = fixtureCsv(30.0, 100.0, 80.0, 360.0, 500.0);
    const std::string b = fixtureCsv(30.0, 140.0, 80.0, 400.0, 690.0);
    memo::DiffOptions opts;
    const memo::DiffReport r = memo::diffRuns(a, b, opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.rows, 1u);
    EXPECT_EQ(r.basis, "p99");
    EXPECT_EQ(r.regime, "regression");
    ASSERT_FALSE(r.stations.empty());
    EXPECT_EQ(r.stations.front().station, "cxl.backend");
    EXPECT_NE(r.verdict.find("cxl.backend"), std::string::npos);
    EXPECT_NE(r.verdict.find("service"), std::string::npos);
    EXPECT_NE(r.verdict.find("not more contended"),
              std::string::npos);
    // The backend explains 100% of the stack delta here.
    EXPECT_NE(r.verdict.find("100%"), std::string::npos);

    const std::string text = memo::diffReportText(r);
    EXPECT_NE(text.find("regression"), std::string::npos);
    const std::string json = memo::diffReportJson(r);
    EXPECT_NE(json.find("\"regime\":\"regression\""),
              std::string::npos);
    EXPECT_NE(json.find("\"top_station\":\"cxl.backend\""),
              std::string::npos);
}

TEST(MemoDiff, ContentionRegimeNamesQueueing)
{
    // B: the same station's queueing exploded while service held ->
    // "more contended, not slower".
    const std::string a = fixtureCsv(30.0, 100.0, 80.0, 360.0, 500.0);
    const std::string b = fixtureCsv(150.0, 102.0, 80.0, 480.0, 760.0);
    memo::DiffOptions opts;
    const memo::DiffReport r = memo::diffRuns(a, b, opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.regime, "regression");
    EXPECT_EQ(r.stations.front().station, "cxl.backend");
    EXPECT_NE(r.verdict.find("more contended"), std::string::npos);
}

TEST(MemoDiff, ImprovementAndNoChangeRegimes)
{
    const std::string a = fixtureCsv(30.0, 100.0, 80.0, 360.0, 500.0);
    const std::string faster =
        fixtureCsv(30.0, 60.0, 80.0, 320.0, 400.0);
    const std::string same =
        fixtureCsv(30.0, 101.0, 80.0, 361.0, 502.0);
    memo::DiffOptions opts;
    EXPECT_EQ(memo::diffRuns(a, faster, opts).regime, "improvement");
    EXPECT_EQ(memo::diffRuns(a, same, opts).regime, "no-change");
    // A tighter threshold turns the same pair into a verdict.
    opts.thresholdPct = 0.1;
    EXPECT_EQ(memo::diffRuns(a, same, opts).regime, "regression");
}

TEST(MemoDiff, ErrorsAreDiagnosed)
{
    memo::DiffOptions opts;
    const std::string a = fixtureCsv(30.0, 100.0, 80.0, 360.0, 500.0);

    EXPECT_FALSE(memo::diffRuns("", a, opts).ok);

    // No attribution tier.
    const std::string bare = "target,op,threads,gbps\nCXL,load,8,12\n";
    const memo::DiffReport r1 = memo::diffRuns(bare, bare, opts);
    EXPECT_FALSE(r1.ok);
    EXPECT_NE(r1.error.find("attribution"), std::string::npos);

    // Mismatched headers.
    EXPECT_FALSE(memo::diffRuns(a, bare, opts).ok);

    // Disjoint identity keys.
    std::string other = a;
    const std::size_t at = other.find("CXL,load,8");
    ASSERT_NE(at, std::string::npos);
    other.replace(at, 10, "CXL,load,4");
    const memo::DiffReport r2 = memo::diffRuns(a, other, opts);
    EXPECT_FALSE(r2.ok);
    EXPECT_NE(r2.error.find("matching"), std::string::npos);
}

TEST(MemoDiff, AveragesRepeatedKeysAndUsesFabricTier)
{
    // Pool-style fabric tier, two rows per host key in one file:
    // means, not sums, feed the deltas.
    const auto poolCsv = [](double devS) {
        std::ostringstream os;
        os << "host,port,role,sw_dev_service_q_ns,"
              "sw_dev_service_s_ns,fabric_total_ns,read_p99_ns\n";
        os << "0,0,normal,10," << devS << "," << (200.0 + devS)
           << "," << (300.0 + devS) << "\n";
        os << "1,1,normal,10," << devS << "," << (200.0 + devS)
           << "," << (300.0 + devS) << "\n";
        return os.str();
    };
    memo::DiffOptions opts;
    const memo::DiffReport r =
        memo::diffRuns(poolCsv(100.0), poolCsv(160.0), opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.rows, 2u);
    EXPECT_EQ(r.basis, "p99");
    EXPECT_EQ(r.regime, "regression");
    EXPECT_EQ(r.stations.front().station, "sw.dev_service");
    EXPECT_NEAR(r.stations.front().deltaS, 60.0, 1e-9);
}

} // namespace
} // namespace cxlmemo
