/**
 * @file
 * Tests for the MEMO command-line parser.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "memo/cli.hh"
#include "sim/attribution.hh"
#include "sim/fabric_attrib.hh"
#include "sim/rng.hh"

namespace cxlmemo
{
namespace memo
{
namespace
{

std::optional<CliConfig>
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    std::string err;
    return parseCli(v, err);
}

TEST(MemoCli, ParseSizeSuffixes)
{
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("16K"), 16 * kiB);
    EXPECT_EQ(parseSize("16k"), 16 * kiB);
    EXPECT_EQ(parseSize("4M"), 4 * miB);
    EXPECT_EQ(parseSize("1G"), 1 * giB);
    EXPECT_FALSE(parseSize("").has_value());
    EXPECT_FALSE(parseSize("K").has_value());
    EXPECT_FALSE(parseSize("12x").has_value());
    EXPECT_FALSE(parseSize("-5").has_value());
}

TEST(MemoCli, ParseListAndRangeSpecs)
{
    auto list = parseListSpec("1,2,4");
    ASSERT_TRUE(list.has_value());
    EXPECT_EQ(*list, (std::vector<std::uint64_t>{1, 2, 4}));

    auto range = parseListSpec("1-32");
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(*range,
              (std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32}));

    auto sizes = parseListSpec("16K-64K");
    ASSERT_TRUE(sizes.has_value());
    EXPECT_EQ(*sizes, (std::vector<std::uint64_t>{16 * kiB, 32 * kiB,
                                                  64 * kiB}));

    EXPECT_FALSE(parseListSpec("8-4").has_value());
    EXPECT_FALSE(parseListSpec("a,b").has_value());
    EXPECT_FALSE(parseListSpec("").has_value());
}

TEST(MemoCli, RangeIncludesOddEndpoint)
{
    auto range = parseListSpec("1-24");
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(range->back(), 24u);
    EXPECT_EQ(range->front(), 1u);
}

TEST(MemoCli, FullSeqInvocation)
{
    auto cfg = parse({"--mode", "seq", "--target", "cxl", "--op",
                      "nt-store", "--threads", "1,2,4", "--csv"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->mode, CliMode::Seq);
    EXPECT_EQ(cfg->target, Target::Cxl);
    EXPECT_EQ(cfg->op, MemOp::Kind::NtStore);
    EXPECT_EQ(cfg->threads,
              (std::vector<std::uint32_t>{1, 2, 4}));
    EXPECT_TRUE(cfg->csv);
}

TEST(MemoCli, JobsDefaultsToOne)
{
    auto cfg = parse({"--mode", "seq", "--target", "cxl"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->jobs, 1u);
}

TEST(MemoCli, JobsFlagParses)
{
    auto cfg = parse({"--mode", "seq", "--target", "cxl", "--jobs",
                      "8"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->jobs, 8u);

    cfg = parse({"--mode", "chase", "--target", "cxl", "--wss", "16K",
                 "-j", "0"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->jobs, 0u); // 0 = one per hardware thread
}

TEST(MemoCli, JobsFlagRejectsGarbage)
{
    std::string err;
    std::vector<std::string> v = {"--mode", "seq", "--jobs", "lots"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    EXPECT_NE(err.find("jobs"), std::string::npos);

    v = {"--mode", "seq", "--jobs", "9999"};
    EXPECT_FALSE(parseCli(v, err).has_value());
}

TEST(MemoCli, CopyInvocation)
{
    auto cfg = parse({"--mode", "copy", "--path", "c2d", "--method",
                      "dsa", "--batch", "16"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->mode, CliMode::Copy);
    EXPECT_EQ(cfg->path, CopyPath::C2D);
    EXPECT_EQ(cfg->method, CopyMethod::DsaAsync);
    EXPECT_EQ(cfg->batch, 16u);
}

TEST(MemoCli, TargetAliases)
{
    EXPECT_EQ(parse({"--target", "dram"})->target, Target::Ddr5Local);
    EXPECT_EQ(parse({"--target", "local"})->target, Target::Ddr5Local);
    EXPECT_EQ(parse({"--target", "remote"})->target,
              Target::Ddr5Remote);
    EXPECT_EQ(parse({"--target", "ddr5-r1"})->target,
              Target::Ddr5Remote);
}

TEST(MemoCli, ChaseRequiresWss)
{
    EXPECT_FALSE(parse({"--mode", "chase"}).has_value());
    auto cfg = parse({"--mode", "chase", "--wss", "16K-1M"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_FALSE(cfg->wssBytes.empty());
}

TEST(MemoCli, RejectsBadInput)
{
    EXPECT_FALSE(parse({"--mode", "warp"}).has_value());
    EXPECT_FALSE(parse({"--target", "optane"}).has_value());
    EXPECT_FALSE(parse({"--threads"}).has_value()); // missing value
    EXPECT_FALSE(parse({"--threads", "0"}).has_value());
    EXPECT_FALSE(parse({"--threads", "100"}).has_value());
    EXPECT_FALSE(parse({"--frobnicate"}).has_value());

    // End to end through the binary's entry point: an unknown flag
    // (here the removed --sim-threads) exits 2 with one stderr line
    // naming it.
    const char *argv[] = {"memo", "--mode", "seq", "--sim-threads", "2"};
    testing::internal::CaptureStderr();
    const int rc = memoCliMain(5, const_cast<char **>(argv));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_NE(err.find("unknown argument: --sim-threads"),
              std::string::npos)
        << err;

    // Spec values that do not fit their field (here: non-finite, off
    // the clock, or a positive time below one tick) fail the same way
    // instead of hanging or running with undefined values.
    for (std::pair<const char *, const char *> flagval :
         {std::pair{"--pool-spec", "hosts=2,ops=2000,fence-check-ns=0.0001"},
          {"--pool-spec", "fence-check-ns=inf"},
          {"--pool-spec", "scrub-ns-per-mb=inf"},
          {"--fault-spec", "timeout-ns=1e300"},
          {"--chaos-spec", "link-down-at-ns=18446744073709551615"},
          {"--chaos-spec", "step-up-ns=inf"},
          {"--qos-spec", "slope=inf"}}) {
        const bool pool = std::string(flagval.first) == "--pool-spec";
        const char *spec[] = {"memo", "--mode", pool ? "pool" : "seq",
                              flagval.first, flagval.second};
        testing::internal::CaptureStderr();
        const int code = memoCliMain(5, const_cast<char **>(spec));
        const std::string msg = testing::internal::GetCapturedStderr();
        EXPECT_EQ(code, 2) << flagval.second;
        EXPECT_EQ(std::count(msg.begin(), msg.end(), '\n'), 1) << msg;
    }
}

TEST(MemoCli, WatchdogFlagsSetTheInterval)
{
    const auto ns = parse({"--mode", "seq", "--watchdog-ns", "20000",
                           "--csv"});
    ASSERT_TRUE(ns.has_value());
    EXPECT_DOUBLE_EQ(ns->watchdogUs, 20.0);
    EXPECT_TRUE(ns->csv);
    const auto dflt = parse({"--mode", "seq", "--watchdog"});
    ASSERT_TRUE(dflt.has_value());
    EXPECT_DOUBLE_EQ(dflt->watchdogUs, 100.0);
    EXPECT_FALSE(parse({"--watchdog-ns", "0"}).has_value());
    EXPECT_FALSE(parse({"--watchdog-ns"}).has_value());
}

TEST(MemoCli, ParseSizeRejectsOverflow)
{
    // Would overflow uint64 while accumulating digits...
    EXPECT_FALSE(parseSize("99999999999999999999").has_value());
    // ...or when the suffix multiplier is applied.
    EXPECT_FALSE(parseSize("18446744073709551615G").has_value());
    EXPECT_FALSE(parseSize("99999999999999999M").has_value());
    // The largest representable values still parse.
    EXPECT_TRUE(parseSize("18446744073709551615").has_value());
    EXPECT_EQ(parseSize("16777215G"), 16777215ull * giB);
}

TEST(MemoCli, RejectsOutOfRangeBlockWssAndBatch)
{
    // Blocks must be cacheline multiples in [64, 64M].
    EXPECT_FALSE(parse({"--mode", "rand", "--block", "0"}).has_value());
    EXPECT_FALSE(parse({"--mode", "rand", "--block", "32"}).has_value());
    EXPECT_FALSE(parse({"--mode", "rand", "--block", "100"}).has_value());
    EXPECT_FALSE(
        parse({"--mode", "rand", "--block", "128M"}).has_value());
    EXPECT_TRUE(parse({"--mode", "rand", "--block", "64"}).has_value());

    // WSS must be cacheline multiples in [128, 8G].
    EXPECT_FALSE(parse({"--mode", "chase", "--wss", "64"}).has_value());
    EXPECT_FALSE(parse({"--mode", "chase", "--wss", "96"}).has_value());
    EXPECT_FALSE(parse({"--mode", "chase", "--wss", "16G"}).has_value());
    EXPECT_TRUE(parse({"--mode", "chase", "--wss", "128"}).has_value());

    // Copy batch depth is 1..1024.
    EXPECT_FALSE(parse({"--mode", "copy", "--batch", "0"}).has_value());
    EXPECT_FALSE(
        parse({"--mode", "copy", "--batch", "1025"}).has_value());
    EXPECT_TRUE(
        parse({"--mode", "copy", "--batch", "1024"}).has_value());
}

TEST(MemoCli, FaultSpecFlagParses)
{
    auto cfg = parse({"--mode", "loaded", "--target", "cxl",
                      "--fault-spec", "crc=1e-4,poison=1e-6,retries=4"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_TRUE(cfg->faults.enabled());
    EXPECT_DOUBLE_EQ(cfg->faults.crcPerFlit, 1e-4);
    EXPECT_DOUBLE_EQ(cfg->faults.readPoisonRate, 1e-6);
    EXPECT_EQ(cfg->faults.maxHostRetries, 4u);
}

TEST(MemoCli, FaultSpecDefaultsDisabled)
{
    auto cfg = parse({"--mode", "seq"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_FALSE(cfg->faults.enabled());
}

TEST(MemoCli, FaultSpecRejectsBadGrammar)
{
    EXPECT_FALSE(parse({"--fault-spec", "crc"}).has_value());
    EXPECT_FALSE(parse({"--fault-spec", "crc=2"}).has_value());
    EXPECT_FALSE(parse({"--fault-spec", "unknown=1"}).has_value());
    // 2^32 + 1 does not fit the field (narrowed, it is a legal 1).
    EXPECT_FALSE(parse({"--fault-spec", "retries=4294967297"}).has_value());
    EXPECT_FALSE(parse({"--fault-spec"}).has_value()); // missing value
    EXPECT_NE(cliUsage().find("--fault-spec"), std::string::npos);
}

TEST(MemoCli, ChaosSpecFlagParses)
{
    auto cfg = parse({"--mode", "drill", "--chaos-spec",
                      "link-down-at-ns=50000,remove-at-ns=80000,"
                      "readd-at-ns=90000,contain=abort,crc-burst=8"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->mode, CliMode::Drill);
    EXPECT_TRUE(cfg->chaos.enabled());
    EXPECT_EQ(cfg->chaos.linkDownAtNs, 50000u);
    EXPECT_EQ(cfg->chaos.removeAtNs, 80000u);
    EXPECT_EQ(cfg->chaos.readdAtNs, 90000u);
    EXPECT_EQ(cfg->chaos.contain, ContainPolicy::Abort);
    EXPECT_EQ(cfg->chaos.crcBurstTrigger, 8u);
    EXPECT_NE(cliUsage().find("--chaos-spec"), std::string::npos);
    EXPECT_NE(cliUsage().find("drill"), std::string::npos);
}

TEST(MemoCli, ChaosSpecDefaultsDisabled)
{
    auto cfg = parse({"--mode", "drill"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_FALSE(cfg->chaos.enabled());
}

TEST(MemoCli, ChaosSpecRejectsBadGrammar)
{
    EXPECT_FALSE(parse({"--chaos-spec", "link-down-at-ns"}).has_value());
    EXPECT_FALSE(parse({"--chaos-spec", "unknown=1"}).has_value());
    EXPECT_FALSE(parse({"--chaos-spec", "contain=maybe"}).has_value());
    EXPECT_FALSE(parse({"--chaos-spec", "readd-at-ns=5"}).has_value());
    EXPECT_FALSE(parse({"--chaos-spec"}).has_value()); // missing value
}

TEST(MemoCli, EmptySpecValuesAreRejected)
{
    // An empty (or whitespace-only) spec value means the shell ate
    // the real one; silently running fault-free would be worse than
    // an error. All three spec flags must reject it with a one-line
    // diagnostic naming the flag.
    for (const char *flag : {"--fault-spec", "--qos-spec",
                             "--chaos-spec"}) {
        for (const char *value : {"", " ", "  \t "}) {
            std::vector<std::string> v{"--mode", "seq", flag, value};
            std::string err;
            EXPECT_FALSE(parseCli(v, err).has_value())
                << flag << " value '" << value << "'";
            EXPECT_NE(err.find("empty"), std::string::npos) << flag;
            EXPECT_NE(err.find(std::string(flag).substr(2)),
                      std::string::npos)
                << flag;
        }
    }
}

TEST(MemoCli, DrillCsvHeaderCarriesLifecycleColumns)
{
    // Drill rows always carry the extra groups (the drill arms a
    // poison stream internally), so the header is the superset.
    const std::string h = csvHeader(CliMode::Drill, true, false, false);
    for (const char *col :
         {"healthy_gbps", "degraded_gbps", "recovered_gbps",
          "link_detect_ns", "link_mttr_ns", "remove_detect_ns",
          "remove_mttr_ns", "data_at_risk_bytes", "evacuated_bytes",
          "pages_offlined", "offlined_bytes", "migrated_bytes",
          "aborted_reads", "aborted_writes", "invariant_ok",
          "poison_contained"})
        EXPECT_NE(h.find(col), std::string::npos) << col;
}

TEST(MemoCli, UsageListsEveryTableKey)
{
    const std::string usage = cliUsage();
    const auto expectKeys = [&usage](const auto &grammar) {
        for (const auto &f : grammar.fields)
            EXPECT_NE(usage.find(std::string(f.key) + "="),
                      std::string::npos)
                << grammar.name << " " << f.key;
    };
    expectKeys(FaultSpec::grammar());
    expectKeys(QosSpec::grammar());
    expectKeys(ChaosSpec::grammar());
    expectKeys(PoolSpec::grammar());
    EXPECT_NE(usage.find("degrade-window-ns="), std::string::npos);
}

TEST(MemoCli, HelpShortCircuits)
{
    auto cfg = parse({"--help"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->mode, CliMode::Help);
    EXPECT_NE(cliUsage().find("--mode"), std::string::npos);
}

TEST(MemoCli, DefaultsAreSane)
{
    auto cfg = parse({"--mode", "seq"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->target, Target::Ddr5Local);
    EXPECT_EQ(cfg->op, MemOp::Kind::Load);
    EXPECT_EQ(cfg->threads, (std::vector<std::uint32_t>{1}));
    EXPECT_FALSE(cfg->prefetch);
    EXPECT_FALSE(cfg->csv);
    EXPECT_EQ(cfg->seed, 42u);
}

TEST(MemoCli, ObservabilityFlagsParse)
{
    auto cfg = parse({"--mode", "seq", "--trace-out", "t.json",
                      "--trace-sample", "1/32", "--metrics-out",
                      "m.csv", "--metrics-interval-ns", "250",
                      "--histograms"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->traceOut, "t.json");
    EXPECT_EQ(cfg->traceSampleEvery, 32u);
    EXPECT_EQ(cfg->metricsOut, "m.csv");
    EXPECT_EQ(cfg->metricsIntervalNs, 250u);
    EXPECT_TRUE(cfg->histograms);

    const ObservabilityOptions obs = cfg->observability();
    EXPECT_EQ(obs.traceSampleEvery, 32u);
    EXPECT_EQ(obs.metricsInterval, ticksFromNs(250.0));
    EXPECT_TRUE(obs.latencyHistograms);
    EXPECT_TRUE(obs.enabled());
}

TEST(MemoCli, EqualsFormAcceptedEverywhere)
{
    auto cfg = parse({"--mode=rand", "--target=cxl", "--op=nt-store",
                      "--threads=1,2", "--block=16K",
                      "--trace-out=x.json", "--jobs=4"});
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->mode, CliMode::Rand);
    EXPECT_EQ(cfg->target, Target::Cxl);
    EXPECT_EQ(cfg->op, MemOp::Kind::NtStore);
    EXPECT_EQ(cfg->threads, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(cfg->blockBytes, (std::vector<std::uint64_t>{16 * kiB}));
    EXPECT_EQ(cfg->traceOut, "x.json");
    EXPECT_EQ(cfg->jobs, 4u);

    // Values containing '=' (spec strings) still parse.
    auto fs = parse({"--mode", "seq", "--fault-spec=crc=1e-4"});
    ASSERT_TRUE(fs.has_value());
    EXPECT_TRUE(fs->faults.enabled());
}

TEST(MemoCli, ObservabilityDefaultsResolve)
{
    // All off by default: bit-identical machine.
    auto off = parse({"--mode", "seq"});
    ASSERT_TRUE(off.has_value());
    EXPECT_FALSE(off->observability().enabled());

    // --trace-out alone turns tracing on at the default 1/64 rate.
    auto tr = parse({"--mode", "seq", "--trace-out", "t.json"});
    ASSERT_TRUE(tr.has_value());
    EXPECT_EQ(tr->observability().traceSampleEvery, 64u);

    // --metrics-out alone samples at the default 1000 ns.
    auto me = parse({"--mode", "seq", "--metrics-out", "m.csv"});
    ASSERT_TRUE(me.has_value());
    EXPECT_EQ(me->observability().metricsInterval, ticksFromNs(1000.0));

    // An explicit sample rate enables the post-mortem ring even
    // without an output file.
    auto ring = parse({"--mode", "seq", "--trace-sample", "8"});
    ASSERT_TRUE(ring.has_value());
    EXPECT_EQ(ring->observability().traceSampleEvery, 8u);
}

TEST(MemoCli, ObservabilityFlagsRejectGarbage)
{
    EXPECT_FALSE(parse({"--mode", "seq", "--trace-sample", "0"}));
    EXPECT_FALSE(parse({"--mode", "seq", "--trace-sample", "1/x"}));
    EXPECT_FALSE(
        parse({"--mode", "seq", "--metrics-interval-ns", "0"}));
    EXPECT_FALSE(parse({"--mode", "seq", "--trace-out"}));
}

/** Count CSV columns (commas + 1). */
std::size_t
columns(const std::string &header)
{
    std::size_t n = 1;
    for (char c : header)
        if (c == ',')
            ++n;
    return n;
}

TEST(MemoCli, CsvHeaderMatchesPreObservabilityBaseWhenAllOff)
{
    EXPECT_EQ(csvHeader(CliMode::Latency, false, false, false),
              "target,ld,st+wb,nt-st,ptr-chase");
    EXPECT_EQ(csvHeader(CliMode::Seq, false, false, false),
              "target,op,threads,gbps");
    EXPECT_EQ(csvHeader(CliMode::Rand, false, false, false),
              "target,op,block,threads,gbps");
    EXPECT_EQ(csvHeader(CliMode::Chase, false, false, false),
              "target,wss,ns");
    EXPECT_EQ(csvHeader(CliMode::Copy, false, false, false),
              "path,method,batch,gbps");
    EXPECT_EQ(csvHeader(CliMode::Loaded, false, false, false),
              "target,threads,ns");
}

TEST(MemoCli, CsvHeaderColumnSetStableAcrossGroups)
{
    // As soon as any optional group is active, the full superset is
    // emitted: the column set (and count) is identical no matter
    // which combination of RAS / QoS / histograms is on, so sweep
    // outputs from different configurations merge cleanly.
    for (CliMode mode : {CliMode::Latency, CliMode::Seq, CliMode::Rand,
                         CliMode::Chase, CliMode::Copy,
                         CliMode::Loaded}) {
        const std::string all = csvHeader(mode, true, true, true);
        EXPECT_EQ(csvHeader(mode, true, false, false), all);
        EXPECT_EQ(csvHeader(mode, false, true, false), all);
        EXPECT_EQ(csvHeader(mode, false, false, true), all);
        // Exactly one header row's worth of extra columns: 11 RAS +
        // 6 QoS + 5 histogram. Loaded additionally swaps its single
        // "ns" column for the avg/p50/p99 distribution (+2).
        const std::string base = csvHeader(mode, false, false, false);
        const std::size_t swap = mode == CliMode::Loaded ? 2 : 0;
        EXPECT_EQ(columns(all), columns(base) + 22 + swap);
        // Histogram columns ride at the end.
        EXPECT_NE(all.find(",lat_n,lat_avg_ns,lat_p50_ns,lat_p99_ns,"
                           "lat_max_ns"),
                  std::string::npos);
    }
}

TEST(MemoCli, CsvHeaderAttribColumnsAreTheirOwnTier)
{
    // The attribution columns append only when attribution is on:
    // existing RAS/QoS/histogram configurations keep byte-identical
    // output, and pre-observability output is untouched.
    for (CliMode mode : {CliMode::Latency, CliMode::Seq, CliMode::Rand,
                         CliMode::Chase, CliMode::Copy,
                         CliMode::Loaded}) {
        const std::string groups = csvHeader(mode, true, true, true);
        EXPECT_EQ(csvHeader(mode, true, true, true, false), groups);
        const std::string attrib =
            csvHeader(mode, false, false, false, true);
        // Attribution implies the full superset plus 3 columns per
        // station and 5 roll-up columns at the end.
        EXPECT_EQ(columns(attrib), columns(groups) + 3 * numStations + 5);
        EXPECT_NE(attrib.find(",attrib_cxl_backend_util"),
                  std::string::npos);
        EXPECT_NE(attrib.find(",attrib_bottleneck"), std::string::npos);
    }
    // `memo report` always carries the attribution columns.
    EXPECT_NE(csvHeader(CliMode::Report, false, false, false)
                  .find(",attrib_bottleneck"),
              std::string::npos);
}

TEST(MemoCli, ReportModeParsesAndForcesAttribution)
{
    const auto cfg = parse({"--mode", "report", "--target", "cxl",
                            "--op", "load", "--threads", "1,8"});
    ASSERT_TRUE(cfg);
    EXPECT_EQ(cfg->mode, CliMode::Report);
    EXPECT_TRUE(cfg->observability().attribution);
    // --attrib alone enables it for regular sweeps too.
    const auto seq = parse({"--mode", "seq", "--attrib"});
    ASSERT_TRUE(seq);
    EXPECT_TRUE(seq->observability().attribution);
    // ...and off by default.
    const auto plain = parse({"--mode", "seq"});
    ASSERT_TRUE(plain);
    EXPECT_FALSE(plain->observability().attribution);
}

/* --------------------------- pool mode --------------------------- */

TEST(MemoCli, PoolModeParsesSpecIntoConfig)
{
    const auto cfg = parse({"--mode", "pool", "--pool-spec",
                            "hosts=4,ops=500,crash-host=1,"
                            "crash-at-ns=10000,aggressor=3",
                            "--jobs", "2"});
    ASSERT_TRUE(cfg);
    EXPECT_EQ(cfg->mode, CliMode::Pool);
    EXPECT_EQ(cfg->poolSpec.hosts, 4u);
    EXPECT_EQ(cfg->poolSpec.ops, 500u);
    EXPECT_EQ(cfg->poolSpec.crashHost, 1);
    EXPECT_EQ(cfg->poolSpec.aggressor, 3);
    EXPECT_EQ(cfg->jobs, 2u);
    // Defaults: pool mode without a spec is the clean two-host run.
    const auto bare = parse({"--mode", "pool"});
    ASSERT_TRUE(bare);
    EXPECT_EQ(bare->poolSpec.hosts, 2u);
    EXPECT_FALSE(bare->poolSpec.disturbed());
}

TEST(MemoCli, PoolSpecEmptyValueIsRejected)
{
    for (const char *value : {"", " ", "  \t "}) {
        std::vector<std::string> v{"--mode", "pool", "--pool-spec",
                                   value};
        std::string err;
        EXPECT_FALSE(parseCli(v, err).has_value())
            << "value '" << value << "'";
        EXPECT_NE(err.find("empty"), std::string::npos) << err;
        EXPECT_NE(err.find("pool-spec"), std::string::npos) << err;
    }
}

TEST(MemoCli, PoolSpecRejectsBadGrammar)
{
    std::string err;
    std::vector<std::string> v{"--mode", "pool", "--pool-spec",
                               "hosts=99"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    EXPECT_FALSE(err.empty());
    err.clear();
    v = {"--mode", "pool", "--pool-spec", "frobnicate=1"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    EXPECT_NE(err.find("pool-spec"), std::string::npos) << err;
    // Too large for the 32-bit credit count: an error, not a clamp.
    err.clear();
    v = {"--mode", "pool", "--pool-spec", "credits=99999999999"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    EXPECT_NE(err.find("credits=99999999999"), std::string::npos) << err;
}

TEST(MemoCli, PoolSpecRequiresPoolMode)
{
    std::string err;
    std::vector<std::string> v{"--mode", "seq", "--pool-spec",
                               "hosts=2"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    EXPECT_NE(err.find("--mode pool"), std::string::npos) << err;
}

TEST(MemoCli, PoolModeRejectsForeignDisturbanceSpecs)
{
    // Pool mode carries every disturbance inside --pool-spec; the
    // single-machine spec flags would silently not apply.
    for (auto flagval :
         {std::pair<const char *, const char *>{"--fault-spec",
                                                "crc=1e-4"},
          {"--qos-spec", "credits=24"},
          {"--chaos-spec", "link-down-at-ns=1000"}}) {
        std::vector<std::string> v{"--mode", "pool", flagval.first,
                                   flagval.second};
        std::string err;
        EXPECT_FALSE(parseCli(v, err).has_value()) << flagval.first;
        EXPECT_NE(err.find("--pool-spec"), std::string::npos) << err;
    }
}

TEST(MemoCli, PoolCsvHeaderIsStableAndPerHost)
{
    const std::string h = csvHeader(CliMode::Pool, false, false, false);
    for (const char *col :
         {"host", "port", "role", "ops", "gbps", "read_p99_ns",
          "poisoned", "aborted", "fenced", "granted_mb", "digest",
          "time_to_fence_ns", "quarantined_mb", "recovered_mb",
          "ledger_ok", "isolation_ok", "verdict"})
        EXPECT_NE(h.find(col), std::string::npos) << col;
    // Pool rows are their own tier: the machine-level RAS/QoS column
    // groups never widen them; only the per-host histogram/tail tiers
    // and --attrib's fabric tier do (below).
    EXPECT_EQ(h, csvHeader(CliMode::Pool, true, true, false, false));
}

TEST(MemoCli, PoolCsvHeaderGrowsFabricTierWithAttrib)
{
    // --attrib appends the fabric tier after the stable pool header:
    // a queue/service/utilization triplet per switch station plus the
    // cross-fabric stack summary. Attrib-off output is untouched.
    const std::string base =
        csvHeader(CliMode::Pool, false, false, false, false);
    const std::string fab =
        csvHeader(CliMode::Pool, false, false, false, true);
    EXPECT_EQ(fab.compare(0, base.size(), base), 0) << fab;
    EXPECT_EQ(columns(fab), columns(base) + 3 * numFabricStations + 5);
    for (const char *col :
         {",sw_credit_wait_q_ns", ",sw_voq_wait_q_ns", ",sw_arb_s_ns",
          ",sw_wire_util", ",sw_dev_service_util", ",fabric_reqs",
          ",fabric_total_ns", ",fabric_other_ns", ",fabric_little_ok",
          ",fabric_decomp_exact"})
        EXPECT_NE(fab.find(col), std::string::npos) << col;
}

/* ----------------- observability flag matrix --------------------- */

TEST(MemoCli, HistogramsAcceptedEverywhereIncludingPool)
{
    // Pool mode grew per-host read histograms, so --histograms is a
    // supported combination in every mode now.
    for (const char *mode : {"seq", "rand", "loaded", "drill", "pool"})
        EXPECT_TRUE(parse({"--mode", mode, "--histograms"})) << mode;
    const auto cfg = parse({"--mode", "pool", "--histograms"});
    ASSERT_TRUE(cfg);
    EXPECT_TRUE(cfg->observability().latencyHistograms);
}

/* ------------------------- tail forensics ------------------------ */

TEST(MemoCli, TailTraceFlagParses)
{
    const auto cfg =
        parse({"--mode", "loaded", "--target", "cxl", "--tail-trace",
               "16"});
    ASSERT_TRUE(cfg);
    EXPECT_EQ(cfg->tailK, 16u);
    EXPECT_EQ(cfg->observability().tailK, 16u);
    EXPECT_TRUE(cfg->observability().enabled());
    // Default: off, and not enabling observability by itself.
    const auto plain = parse({"--mode", "loaded"});
    ASSERT_TRUE(plain);
    EXPECT_EQ(plain->tailK, 0u);
}

TEST(MemoCli, TailTraceRejectsBadDepths)
{
    for (const char *bad : {"0", "1025", "x", "-3", ""}) {
        std::string err;
        std::vector<std::string> v{"--mode", "loaded", "--tail-trace",
                                   bad};
        EXPECT_FALSE(parseCli(v, err).has_value()) << bad;
        EXPECT_NE(err.find("tail-trace"), std::string::npos) << err;
    }
    // Boundary values stay accepted.
    EXPECT_TRUE(parse({"--mode", "loaded", "--tail-trace", "1"}));
    EXPECT_TRUE(parse({"--mode", "loaded", "--tail-trace", "1024"}));
}

TEST(MemoCli, TailTraceComposesWithPool)
{
    EXPECT_TRUE(parse({"--mode", "pool", "--tail-trace", "8"}));
    EXPECT_TRUE(parse({"--mode", "pool", "--tail-trace", "8",
                       "--histograms"}));
}

TEST(MemoCli, DiffModeParses)
{
    const auto cfg = parse({"diff", "a.csv", "b.csv"});
    ASSERT_TRUE(cfg);
    EXPECT_EQ(cfg->mode, CliMode::Diff);
    EXPECT_EQ(cfg->diffA, "a.csv");
    EXPECT_EQ(cfg->diffB, "b.csv");
    EXPECT_FALSE(cfg->diffJson);
    EXPECT_DOUBLE_EQ(cfg->diffThresholdPct, 5.0);

    const auto json = parse({"diff", "a.csv", "b.csv", "--json",
                             "--diff-threshold", "2.5"});
    ASSERT_TRUE(json);
    EXPECT_TRUE(json->diffJson);
    EXPECT_DOUBLE_EQ(json->diffThresholdPct, 2.5);

    // --mode diff spelling works too.
    const auto viaMode = parse({"--mode", "diff", "a.csv", "b.csv"});
    ASSERT_TRUE(viaMode);
    EXPECT_EQ(viaMode->mode, CliMode::Diff);
}

TEST(MemoCli, DiffModeRejectsBadInvocations)
{
    // Wrong file counts.
    for (auto v : {std::vector<std::string>{"diff"},
                   std::vector<std::string>{"diff", "a.csv"},
                   std::vector<std::string>{"diff", "a.csv", "b.csv",
                                            "c.csv"}}) {
        std::string err;
        EXPECT_FALSE(parseCli(v, err).has_value());
        EXPECT_NE(err.find("diff"), std::string::npos) << err;
    }
    // Simulation flags are meaningless against finished runs.
    for (auto extra :
         {std::vector<std::string>{"--tail-trace", "8"},
          std::vector<std::string>{"--histograms"},
          std::vector<std::string>{"--attrib"},
          std::vector<std::string>{"--trace-out", "t.json"},
          std::vector<std::string>{"--metrics-out", "m.csv"},
          std::vector<std::string>{"--fault-spec", "crc=1e-4"}}) {
        std::vector<std::string> v{"diff", "a.csv", "b.csv"};
        v.insert(v.end(), extra.begin(), extra.end());
        std::string err;
        EXPECT_FALSE(parseCli(v, err).has_value()) << extra[0];
        EXPECT_NE(err.find("diff"), std::string::npos) << err;
    }
    // Bad threshold values.
    for (const char *bad : {"-1", "101", "x", ""}) {
        std::string err;
        std::vector<std::string> v{"diff", "a.csv", "b.csv",
                                   "--diff-threshold", bad};
        EXPECT_FALSE(parseCli(v, err).has_value()) << bad;
        EXPECT_NE(err.find("diff-threshold"), std::string::npos)
            << err;
    }
    // --json / --diff-threshold belong to diff mode only.
    std::string err;
    std::vector<std::string> v{"--mode", "loaded", "--json"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    v = {"--mode", "loaded", "--diff-threshold", "2"};
    EXPECT_FALSE(parseCli(v, err).has_value());
    // An operand taken in diff mode is not dropped by a later --mode.
    for (auto ops : {std::vector<std::string>{"a.csv"},
                     std::vector<std::string>{"a.csv", "b.csv"}}) {
        v = {"--mode", "diff"};
        v.insert(v.end(), ops.begin(), ops.end());
        v.insert(v.end(), {"--mode", "seq"});
        err.clear();
        EXPECT_FALSE(parseCli(v, err).has_value());
        EXPECT_EQ(err, "diff operand a.csv outside diff mode");
    }
}

TEST(MemoCli, CsvHeaderGrowsTailTier)
{
    // The tail tier appends after every existing group and never
    // reorders them; tail-off headers are untouched.
    const std::string base =
        csvHeader(CliMode::Rand, false, false, false, false, false);
    const std::string tail =
        csvHeader(CliMode::Rand, false, false, false, false, true);
    EXPECT_EQ(base.find(",tail_"), std::string::npos);
    EXPECT_EQ(tail.compare(0, base.size(), base), 0) << tail;
    for (const char *col :
         {",tail_k", ",tail_n", ",tail_considered", ",tail_worst_ns",
          ",tail_kth_ns", ",tail_regime", ",tail_stage",
          ",tail_stage_ns", ",tail_stack_exact"})
        EXPECT_NE(tail.find(col), std::string::npos) << col;

    // Pool: hist and tail tiers slot between the base and the fabric
    // tier, each only when armed.
    const std::string pool =
        csvHeader(CliMode::Pool, false, false, false, false, false);
    EXPECT_EQ(pool.find(",lat_"), std::string::npos);
    EXPECT_EQ(pool.find(",tail_"), std::string::npos);
    const std::string poolAll =
        csvHeader(CliMode::Pool, false, false, true, true, true);
    EXPECT_NE(poolAll.find(",lat_p99_ns"), std::string::npos);
    EXPECT_NE(poolAll.find(",tail_worst_ns"), std::string::npos);
    EXPECT_NE(poolAll.find(",fabric_total_ns"), std::string::npos);
    EXPECT_LT(poolAll.find(",lat_n"), poolAll.find(",tail_k"));
    EXPECT_LT(poolAll.find(",tail_k"), poolAll.find(",fabric_reqs"));
}

TEST(MemoCli, PoolModeAcceptsFabricObservability)
{
    // The supported pool-mode combinations: --attrib, --trace-out,
    // --metrics-out, alone and together.
    const auto cfg =
        parse({"--mode", "pool", "--pool-spec", "hosts=2,ops=100",
               "--attrib", "--trace-out", "t.json", "--metrics-out",
               "m.csv"});
    ASSERT_TRUE(cfg);
    const ObservabilityOptions obs = cfg->observability();
    EXPECT_TRUE(obs.attribution);
    EXPECT_EQ(obs.traceSampleEvery, 64u);
    EXPECT_EQ(obs.metricsInterval, ticksFromNs(1000.0));
    EXPECT_TRUE(parse({"--mode", "pool", "--attrib"}));
    EXPECT_TRUE(parse({"--mode", "pool", "--metrics-out", "m.csv"}));
}

/* ----------------------- the flag table -------------------------- */

TEST(CliFlags, EveryRowAppearsInUsage)
{
    // --help's options section is generated from the table: every
    // flag, alias and enum value a user can type is listed.
    const std::string usage = cliUsage();
    for (const auto &f : cliFlags().flags) {
        EXPECT_NE(usage.find(std::string("  ") + f.name), std::string::npos)
            << f.name;
        if (f.alias) {
            EXPECT_NE(usage.find(std::string("/") + f.alias),
                      std::string::npos)
                << f.alias;
        }
        for (const specparse::Name &n : f.names)
            EXPECT_NE(usage.find(n.name), std::string::npos) << n.name;
    }
}

/**
 * Property-style fuzz over the whole command line: whatever the argv,
 * parseCli returns a config or a one-line error -- it never throws,
 * never hangs and never crashes (ASan-clean in the sanitizer build).
 * The vocabulary is every flag, alias and enum name of the table plus
 * values around the edges of every value type; a deterministic RNG
 * makes a failure reproduce.
 */
TEST(CliFuzz, AnyArgvParsesOrFailsWithOneLine)
{
    std::vector<std::string> atoms = {
        "", " ", "0", "1", "-1", "2", "63", "64", "65", "100", "128",
        "1024", "1025", "1K", "1k", "4K", "64M", "65M", "8G", "9G", "K",
        "1-64", "1-65", "0-4", "4-1", "16K-1M", "64-100", "1,2,4", "1,",
        ",1", "1,,2", "1/64", "1/0", "1/x", "2.5", "101", "nan", "inf",
        "1e309", "0x10", "x", "-", "=", "18446744073709551615",
        "18446744073709551616", "4294967296", "1-9223372036854775809",
        "1-18446744073709551615", "crc=1e-4", "crc=2", "credits=8",
        "hosts=2", "hosts=99", "link-down-at-ns=1000", "seed=9",
        "a.csv", "b.csv", "c.csv", "t.json", "diff", "-x", "--bogus",
        "\xff",
    };
    for (const auto &f : cliFlags().flags) {
        atoms.push_back(f.name);
        atoms.push_back(std::string(f.name) + "=");
        atoms.push_back(std::string(f.name) + "=1");
        if (f.alias)
            atoms.push_back(f.alias);
        for (const specparse::Name &n : f.names)
            atoms.push_back(n.name);
    }
    Rng rng(20261019);
    for (int round = 0; round < 20000; ++round) {
        std::vector<std::string> argv;
        const std::uint64_t n = rng.below(9);
        for (std::uint64_t i = 0; i < n; ++i)
            argv.push_back(atoms[rng.below(atoms.size())]);
        std::string shown;
        for (const std::string &a : argv)
            shown += "'" + a + "' ";
        std::string err;
        std::optional<CliConfig> cfg;
        EXPECT_NO_THROW(cfg = parseCli(argv, err)) << shown;
        if (!cfg) {
            EXPECT_FALSE(err.empty()) << shown;
            EXPECT_EQ(err.find('\n'), std::string::npos) << shown;
        }
    }
}

} // namespace
} // namespace memo
} // namespace cxlmemo
