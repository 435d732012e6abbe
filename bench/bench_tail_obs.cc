/**
 * @file
 * Tail-forensics guardrail: measures what worst-K outlier capture --
 * which examines *every* completed demand read, not a sample -- and
 * the windowed percentile timelines cost on a loaded CXL run, and
 * checks the contracts that make the layer safe to ship armed:
 *
 *  - observe, never perturb: the simulated result (loaded latency in
 *    simulated ns) is identical with each layer on;
 *  - worst-K invariants hold on a real run: every retained stack sums
 *    exactly to its end-to-end latency, the per-class bound holds,
 *    and every completed demand read was considered;
 *  - the overhead of each layer -- K=8, K=64, and worst-K together
 *    with histograms + windowed percentile metrics -- stays under the
 *    5% budget.
 *
 * Writes the measurements to BENCH_tail_obs.json and exits nonzero on
 * any violation.
 *
 *   bench_tail_obs [--reps N] [--out BENCH_tail_obs.json]
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "sim/tailcap.hh"
#include "system/machine.hh"

namespace
{

using namespace cxlmemo;

constexpr double kOverheadBudgetPct = 5.0;
constexpr std::uint32_t kThreads = 8;

struct RunOut
{
    double simNs = 0.0;       //!< functional outcome (must not move)
    TailSummary tail;         //!< summary when armed
    std::uint64_t holdCap = 0; //!< k * regime classes
};

double
timeOne(const ObservabilityOptions &obs, RunOut &keep)
{
    memo::Options o;
    o.obs = obs;
    o.onMachineDone = [&keep](Machine &m) {
        if (TailCapture *tc = m.tailCapture()) {
            keep.tail = tc->summary();
            keep.holdCap =
                static_cast<std::uint64_t>(tc->k()) * numTailRegimes;
        }
    };
    const auto t0 = std::chrono::steady_clock::now();
    keep.simNs = memo::runLoadedLatency(memo::Target::Cxl, kThreads, o);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cxlmemo;

    const bench::Args args =
        bench::parseArgs(argc, argv, {bench::repsFlag, bench::outFlag},
                         {.out = "BENCH_tail_obs.json"});
    const int reps = static_cast<int>(args.reps);
    const std::string &out = args.out;

    bench::banner("BENCH tail_obs",
                  "worst-K tail capture overhead on loaded CXL reads");

    bool ok = true;

    struct Layer
    {
        const char *name;
        ObservabilityOptions base; //!< what the layer is paired with
        ObservabilityOptions obs;
        double bestRatio = 1e300; //!< best paired layer/base ratio
        double pct = 0.0;
        RunOut run;
        Layer(const char *n, const ObservabilityOptions &b,
              const ObservabilityOptions &o)
            : name(n), base(b), obs(o)
        {
        }
    };
    ObservabilityOptions dark;
    ObservabilityOptions k8;
    k8.tailK = 8;
    ObservabilityOptions k64;
    k64.tailK = 64;
    // The histogram and interval-metrics layers predate this
    // subsystem and carry their own budgets; the all-armed pair
    // budgets what tail forensics adds on top of them (worst-K over
    // every read + the windowed percentile extraction that rides
    // their snapshots).
    ObservabilityOptions histMetrics;
    histMetrics.latencyHistograms = true;
    histMetrics.metricsInterval = ticksFromNs(1000.0);
    ObservabilityOptions all = histMetrics;
    all.tailK = 8;
    std::vector<Layer> layers = {
        Layer("tail_k8", dark, k8),
        Layer("tail_k64", dark, k64),
        Layer("tail_over_hist_metrics", histMetrics, all)};

    // Paired design: each layer measurement is ratioed against its
    // baseline run timed immediately before it in the same rep, and
    // the reported overhead is the best (lowest) ratio across reps --
    // adjacent pairs see the same machine load, so drift on a shared
    // box cancels instead of folding into the estimate. One warm-up
    // rep is discarded.
    {
        RunOut scratch;
        timeOne({}, scratch);
    }
    double darkBest = 1e300;
    double darkNs = 0.0;
    for (int i = 0; i < reps; ++i) {
        for (Layer &l : layers) {
            RunOut d;
            const double td = timeOne(l.base, d);
            if (!l.base.enabled()) {
                if (td < darkBest)
                    darkBest = td;
                darkNs = d.simNs;
            }
            RunOut r;
            const double t = timeOne(l.obs, r);
            const double ratio = t / td;
            if (ratio < l.bestRatio) {
                l.bestRatio = ratio;
                l.pct = (ratio - 1.0) * 100.0;
            }
            l.run = r; // deterministic; any rep will do
        }
    }

    std::printf("tail_obs,dark_ms,%.2f\n", darkBest * 1e3);

    for (Layer &l : layers) {
        std::printf("tail_obs,%s_overhead_pct,%.2f\n", l.name, l.pct);
        if (l.pct > kOverheadBudgetPct) {
            std::fprintf(stderr,
                         "FAIL: %s overhead %.2f%% exceeds the "
                         "%.1f%% budget\n",
                         l.name, l.pct, kOverheadBudgetPct);
            ok = false;
        }
        // Observe, never perturb: the simulated latency must be
        // bit-identical to the dark run's.
        if (l.run.simNs != darkNs) {
            std::fprintf(stderr,
                         "FAIL: %s changed the simulated result "
                         "(%.6f vs %.6f ns)\n",
                         l.name, l.run.simNs, darkNs);
            ok = false;
        }
        // Worst-K invariants on a real run.
        const TailSummary &t = l.run.tail;
        if (t.considered == 0 || t.held == 0
            || t.held > l.run.holdCap || !t.stackExact
            || t.worstNs <= 0.0 || t.worstNs < t.kthNs) {
            std::fprintf(stderr,
                         "FAIL: %s tail invariants violated "
                         "(considered=%llu held=%llu cap=%llu "
                         "exact=%d worst=%.1f kth=%.1f)\n",
                         l.name, (unsigned long long)t.considered,
                         (unsigned long long)t.held,
                         (unsigned long long)l.run.holdCap,
                         t.stackExact ? 1 : 0, t.worstNs, t.kthNs);
            ok = false;
        }
    }

    // Deeper capture keeps strictly more (or equal) outliers and
    // considers exactly the same read population.
    if (layers[1].run.tail.held < layers[0].run.tail.held
        || layers[1].run.tail.considered
               != layers[0].run.tail.considered) {
        std::fprintf(stderr,
                     "FAIL: K=64 retained less than K=8 or examined "
                     "a different population\n");
        ok = false;
    }

    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"tail_obs\",\n"
                     "  \"workload\": \"loaded cxl x%u\",\n"
                     "  \"reps\": %d,\n"
                     "  \"dark_ms\": %.3f,\n"
                     "  \"overhead_budget_pct\": %.1f,\n"
                     "  \"considered\": %llu,\n"
                     "  \"layers\": [",
                     kThreads, reps, darkBest * 1e3,
                     kOverheadBudgetPct,
                     (unsigned long long)layers[0].run.tail.considered);
        for (std::size_t i = 0; i < layers.size(); ++i)
            std::fprintf(f,
                         "%s\n    {\"layer\": \"%s\", "
                         "\"overhead_pct\": %.3f, \"held\": %llu, "
                         "\"worst_ns\": %.1f, \"stack_exact\": %s}",
                         i ? "," : "", layers[i].name, layers[i].pct,
                         (unsigned long long)layers[i].run.tail.held,
                         layers[i].run.tail.worstNs,
                         layers[i].run.tail.stackExact ? "true"
                                                       : "false");
        std::fprintf(f, "\n  ],\n  \"ok\": %s\n}\n",
                     ok ? "true" : "false");
        std::fclose(f);
        bench::note(("wrote " + out).c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }

    if (ok)
        bench::note("tail-forensics guardrails hold: every layer "
                    "under budget, results untouched, stacks exact");
    return ok ? 0 : 1;
}
