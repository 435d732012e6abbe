/**
 * @file
 * Fabric-observability guardrail: measures what cross-host tracing,
 * per-port attribution and the interval-metrics timeline cost on the
 * full pool drill (aggressor flood + host crash + fencing + poison),
 * and checks the three contracts that make the layers safe to ship
 * armed:
 *
 *  - observe, never perturb: every functional outcome (digests,
 *    fencing timeline, end tick) is identical with each layer on;
 *  - the attribution invariants hold on a disturbed run (per-port
 *    stack <= total, Little's law cluster-wide);
 *  - the overhead of each layer -- and all of them together with
 *    sampled (1/64) tracing -- stays under the 5% budget.
 *
 * Writes the measurements to BENCH_fabric_obs.json and exits nonzero
 * on any violation.
 *
 *   bench_fabric_obs [--reps N] [--out BENCH_fabric_obs.json]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "system/cluster.hh"

namespace
{

using namespace cxlmemo;

constexpr double kOverheadBudgetPct = 5.0;

PoolSpec
drillSpec()
{
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=4,ops=8000,crash-host=1,crash-at-ns=40000,aggressor=3,"
        "credits=16,poison-host=2,poison-every=97",
        err);
    if (!sp) {
        std::fprintf(stderr, "bad drill spec: %s\n", err.c_str());
        std::exit(1);
    }
    return *sp;
}

/** Functional fingerprint (the observability layers must not move
 *  any of this). The verdict is excluded: attribution legitimately
 *  appends the fabric regime behind the unchanged host verdict. */
std::string
fingerprint(const ClusterResult &r)
{
    std::ostringstream os;
    for (const auto &h : r.hosts)
        os << h.host << ":" << h.digest.ops << ":" << std::hex
           << h.digest.valueHash << ":" << h.digest.ledgerHash << ":"
           << std::dec << h.fenced << ";";
    os << r.timeToFenceNs << ";" << r.endTick;
    return os.str();
}

double
timeOne(const PoolSpec &sp, const ObservabilityOptions &obs,
        ClusterResult &keep)
{
    Cluster::Options o;
    o.obs = obs;
    const auto t0 = std::chrono::steady_clock::now();
    Cluster c(sp, o);
    keep = c.run();
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
                         {.out = "BENCH_fabric_obs.json"});
    const int reps = static_cast<int>(args.reps);
    const std::string &out = args.out;

    bench::banner("BENCH fabric_obs",
                  "fabric observability overhead on the pool drill");

    const PoolSpec sp = drillSpec();
    bool ok = true;

    struct Layer
    {
        const char *name;
        ObservabilityOptions obs;
        double bestRatio = 1e300; //!< best paired layer/dark ratio
        double pct = 0.0;
        ClusterResult run;
        Layer(const char *n, const ObservabilityOptions &o)
            : name(n), obs(o)
        {
        }
    };
    ObservabilityOptions attrib;
    attrib.attribution = true;
    ObservabilityOptions metrics;
    metrics.metricsInterval = ticksFromNs(1000.0);
    ObservabilityOptions trace;
    trace.traceSampleEvery = 64;
    ObservabilityOptions all;
    all.attribution = true;
    all.metricsInterval = ticksFromNs(1000.0);
    all.traceSampleEvery = 64;
    std::vector<Layer> layers = {Layer("attrib", attrib),
                                 Layer("metrics", metrics),
                                 Layer("trace_1in64", trace),
                                 Layer("all_armed", all)};

    // Paired design: each layer measurement is ratioed against a
    // dark run timed immediately before it in the same rep, and the
    // reported overhead is the best (lowest) ratio across reps. On a
    // shared box the load drifts on a scale of hundreds of ms; a
    // block design (all dark reps, then all layer reps) folds that
    // drift straight into the overhead estimate, while adjacent
    // pairs see the same machine. One warm-up rep is discarded.
    {
        ClusterResult scratch;
        timeOne(sp, {}, scratch);
    }
    double darkBest = 1e300;
    std::string darkFp;
    for (int i = 0; i < reps; ++i) {
        for (Layer &l : layers) {
            ClusterResult d;
            const double td = timeOne(sp, {}, d);
            if (td < darkBest)
                darkBest = td;
            if (darkFp.empty())
                darkFp = fingerprint(d);
            ClusterResult r;
            const double t = timeOne(sp, l.obs, r);
            const double ratio = t / td;
            if (ratio < l.bestRatio) {
                l.bestRatio = ratio;
                l.pct = (ratio - 1.0) * 100.0;
            }
            l.run = std::move(r); // deterministic; any rep will do
        }
    }

    const double darkS = darkBest;
    std::printf("fabric_obs,dark_ms,%.2f\n", darkS * 1e3);

    ClusterResult attribRun;
    for (Layer &l : layers) {
        std::printf("fabric_obs,%s_overhead_pct,%.2f\n", l.name,
                    l.pct);
        if (l.pct > kOverheadBudgetPct) {
            std::fprintf(stderr,
                         "FAIL: %s overhead %.2f%% exceeds the "
                         "%.1f%% budget\n",
                         l.name, l.pct, kOverheadBudgetPct);
            ok = false;
        }
        if (fingerprint(l.run) != darkFp) {
            std::fprintf(stderr,
                         "FAIL: %s changed a functional outcome\n",
                         l.name);
            ok = false;
        }
        if (l.obs.attribution && !l.run.fabric.enabled()) {
            std::fprintf(stderr, "FAIL: %s produced no snapshot\n",
                         l.name);
            ok = false;
        }
        if (std::strcmp(l.name, "attrib") == 0)
            attribRun = std::move(l.run);
    }

    // Attribution invariants on the disturbed drill: stack <= total
    // on every port, Little's law cluster-wide.
    const bool decompOk = attribRun.fabric.decompositionExact();
    const bool littleOk = attribRun.fabric.littleOk();
    std::printf("fabric_obs,decomposition_exact,%d\n",
                decompOk ? 1 : 0);
    std::printf("fabric_obs,little_ok,%d\n", littleOk ? 1 : 0);
    if (!decompOk || !littleOk) {
        std::fprintf(stderr,
                     "FAIL: attribution invariant violated "
                     "(decomp=%d little=%d)\n",
                     decompOk ? 1 : 0, littleOk ? 1 : 0);
        ok = false;
    }

    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"fabric_obs\",\n"
                     "  \"workload\": \"%s\",\n"
                     "  \"reps\": %d,\n"
                     "  \"dark_ms\": %.3f,\n"
                     "  \"overhead_budget_pct\": %.1f,\n"
                     "  \"decomposition_exact\": %s,\n"
                     "  \"little_ok\": %s,\n"
                     "  \"layers\": [",
                     sp.toString().c_str(), reps, darkS * 1e3,
                     kOverheadBudgetPct, decompOk ? "true" : "false",
                     littleOk ? "true" : "false");
        for (std::size_t i = 0; i < layers.size(); ++i)
            std::fprintf(f,
                         "%s\n    {\"layer\": \"%s\", "
                         "\"overhead_pct\": %.3f}",
                         i ? "," : "", layers[i].name,
                         layers[i].pct);
        std::fprintf(f, "\n  ],\n  \"verdict\": \"%s\"\n}\n",
                     attribRun.verdict.c_str());
        std::fclose(f);
        bench::note(("wrote " + out).c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }

    if (ok)
        bench::note("fabric observability guardrails hold: every "
                    "layer under budget, outcomes untouched, "
                    "decomposition exact");
    return ok ? 0 : 1;
}
