/**
 * @file
 * Chaos guardrail: measures what the failure-lifecycle machinery costs
 * when it is armed but quiescent, checks that the disabled path stays
 * deterministic and free of chaos instrumentation, and records one
 * full drill (link down/retrain, hot-remove/re-add, page offlining)
 * per thread count. Writes the measurements to BENCH_chaos.json.
 *
 * Exits nonzero when the armed-but-idle overhead exceeds the 5%
 * budget, when the disabled path is nondeterministic, or when a drill
 * violates the poison-conservation invariant.
 *
 *   bench_chaos [--reps N] [--out BENCH_chaos.json]
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "system/machine.hh"

namespace
{

using namespace cxlmemo;

constexpr std::uint32_t kWorkloadThreads = 8;
const std::vector<std::uint32_t> kDrillThreads = {1, 4};
constexpr double kOverheadBudgetPct = 5.0;

struct RunResult
{
    double seconds = 0.0;
    double gbps = 0.0;
    std::string stats;
};

/**
 * One fig. 3 read-bandwidth point. With `armed`, a full chaos schedule
 * is installed but every event lands far past the measurement horizon,
 * so the run measures the cost of the armed machinery (lifecycle
 * checks on the link hot path, the failure handler, the chaos stats)
 * without any failure actually firing.
 */
RunResult
runOnce(bool armed)
{
    memo::Options opts;
    // Guardrail windows: long enough for a stable reading, short
    // enough that the rep loop stays CI-sized.
    opts.warmupUs = 20.0;
    opts.measureUs = 80.0;
    if (armed) {
        opts.chaos.linkDownAtNs = 1000000000; // 1 s: never reached
        opts.chaos.removeAtNs = 1000000000;
        opts.chaos.readdAtNs = 1000000001;
        opts.chaos.crcBurstTrigger = 1000000;
        opts.chaos.offlineThreshold = 1000000;
    }
    RunResult r;
    opts.onMachineDone = [&r](Machine &m) { r.stats = m.statsString(); };
    const auto t0 = std::chrono::steady_clock::now();
    r.gbps = memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load,
                                   kWorkloadThreads, opts);
    const auto t1 = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

double
best(bool armed, int reps, RunResult &keep)
{
    double s = 1e300;
    for (int i = 0; i < reps; ++i) {
        RunResult r = runOnce(armed);
        if (r.seconds < s)
            s = r.seconds;
        keep = std::move(r); // results are deterministic; any rep will do
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cxlmemo;

    const bench::Args args =
        bench::parseArgs(argc, argv, {bench::repsFlag, bench::outFlag},
                         {.out = "BENCH_chaos.json"});
    const int reps = static_cast<int>(args.reps);
    const std::string &out = args.out;

    bench::banner("BENCH chaos",
                  "failure-lifecycle overhead and drill datapoints");

    bool ok = true;

    // Disabled path: two identical runs must agree byte-for-byte, and
    // the stats must carry no chaos instrumentation at all.
    RunResult offA = runOnce(false);
    RunResult offB = runOnce(false);
    const bool offIdentical =
        offA.gbps == offB.gbps && offA.stats == offB.stats;
    const bool offClean =
        offA.stats.find("chaos:") == std::string::npos;
    std::printf("chaos,disabled_identical,%d\n", offIdentical ? 1 : 0);
    std::printf("chaos,disabled_clean,%d\n", offClean ? 1 : 0);
    if (!offIdentical) {
        std::fprintf(stderr, "FAIL: disabled path nondeterministic\n");
        ok = false;
    }
    if (!offClean) {
        std::fprintf(stderr,
                     "FAIL: chaos counters leak into a disabled run\n");
        ok = false;
    }

    // Armed-but-idle overhead against the 5% budget.
    RunResult off, on;
    const double offS = best(false, reps, off);
    const double onS = best(true, reps, on);
    const double overheadPct = (onS / offS - 1.0) * 100.0;
    std::printf("chaos,disabled_ms,%.2f\n", offS * 1e3);
    std::printf("chaos,armed_idle_ms,%.2f\n", onS * 1e3);
    std::printf("chaos,armed_idle_overhead_pct,%.2f\n", overheadPct);
    if (overheadPct > kOverheadBudgetPct) {
        std::fprintf(stderr,
                     "FAIL: armed-but-idle overhead %.2f%% exceeds "
                     "the %.1f%% budget\n",
                     overheadPct, kOverheadBudgetPct);
        ok = false;
    }

    // Full drills: one per thread count, invariant enforced.
    struct DrillRow
    {
        std::uint32_t threads;
        memo::DrillResult d;
    };
    std::vector<DrillRow> drills;
    for (std::uint32_t t : kDrillThreads) {
        DrillRow row;
        row.threads = t;
        row.d = memo::runDrill(t);
        std::printf("chaos,drill_%u_healthy_gbps,%.2f\n", t,
                    row.d.healthyGBps);
        std::printf("chaos,drill_%u_degraded_gbps,%.2f\n", t,
                    row.d.degradedGBps);
        std::printf("chaos,drill_%u_recovered_gbps,%.2f\n", t,
                    row.d.recoveredGBps);
        std::printf("chaos,drill_%u_link_mttr_ns,%.1f\n", t,
                    row.d.linkMttrNs);
        std::printf("chaos,drill_%u_remove_mttr_ns,%.1f\n", t,
                    row.d.removeMttrNs);
        std::printf("chaos,drill_%u_data_at_risk_bytes,%llu\n", t,
                    static_cast<unsigned long long>(
                        row.d.chaos.dataAtRiskBytes));
        std::printf("chaos,drill_%u_invariant_ok,%d\n", t,
                    row.d.invariantOk ? 1 : 0);
        if (!row.d.invariantOk) {
            std::fprintf(stderr,
                         "FAIL: drill threads=%u violates the poison "
                         "conservation invariant\n",
                         t);
            ok = false;
        }
        if (row.d.degradedGBps >= row.d.healthyGBps) {
            std::fprintf(stderr,
                         "FAIL: drill threads=%u shows no degradation "
                         "(healthy %.2f <= degraded %.2f GB/s)\n",
                         t, row.d.healthyGBps, row.d.degradedGBps);
            ok = false;
        }
        drills.push_back(std::move(row));
    }

    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"chaos\",\n"
            "  \"workload\": \"seq cxl load threads=%u\",\n"
            "  \"reps\": %d,\n"
            "  \"disabled_ms\": %.3f,\n"
            "  \"armed_idle_ms\": %.3f,\n"
            "  \"armed_idle_overhead_pct\": %.3f,\n"
            "  \"overhead_budget_pct\": %.1f,\n"
            "  \"disabled_identical\": %s,\n"
            "  \"disabled_clean\": %s,\n"
            "  \"drills\": [",
            kWorkloadThreads, reps, offS * 1e3, onS * 1e3, overheadPct,
            kOverheadBudgetPct, offIdentical ? "true" : "false",
            offClean ? "true" : "false");
        for (std::size_t i = 0; i < drills.size(); ++i) {
            const DrillRow &r = drills[i];
            std::fprintf(
                f,
                "%s\n    {\"threads\": %u, \"healthy_gbps\": %.3f, "
                "\"degraded_gbps\": %.3f, \"recovered_gbps\": %.3f, "
                "\"link_detect_ns\": %.1f, \"link_mttr_ns\": %.1f, "
                "\"remove_detect_ns\": %.1f, \"remove_mttr_ns\": %.1f, "
                "\"data_at_risk_bytes\": %llu, "
                "\"evacuated_bytes\": %llu, "
                "\"pages_offlined\": %llu, "
                "\"invariant_ok\": %s}",
                i ? "," : "", r.threads, r.d.healthyGBps,
                r.d.degradedGBps, r.d.recoveredGBps, r.d.linkDetectNs,
                r.d.linkMttrNs, r.d.removeDetectNs, r.d.removeMttrNs,
                static_cast<unsigned long long>(
                    r.d.chaos.dataAtRiskBytes),
                static_cast<unsigned long long>(r.d.evacuatedBytes),
                static_cast<unsigned long long>(
                    r.d.chaos.pagesOfflined),
                r.d.invariantOk ? "true" : "false");
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        bench::note(("wrote " + out).c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }

    if (ok)
        bench::note("chaos guardrails hold: idle overhead in budget, "
                    "disabled path clean, invariants intact");
    return ok ? 0 : 1;
}
