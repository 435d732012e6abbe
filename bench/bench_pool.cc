/**
 * @file
 * Pool guardrail: measures what the multi-host pooling machinery
 * costs when its robustness features are armed but nothing fails
 * (credit pools sized above the in-flight demand, a fast fence
 * checker, the watchdog), checks that the disabled path stays
 * deterministic, and records one full pool drill (aggressor flood +
 * host crash + fencing + capacity re-grant). Writes the measurements
 * to BENCH_pool.json.
 *
 * Exits nonzero when the armed-but-idle overhead exceeds the 5%
 * budget, when the disabled path is nondeterministic, or when a drill
 * run violates the ledger or blast-radius invariants.
 *
 *   bench_pool [--reps N] [--out BENCH_pool.json]
 */

#include <chrono>
#include <cstdio>
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
cleanSpec()
{
    PoolSpec sp;
    sp.hosts = 4;
    sp.ops = 20000;
    return sp;
}

/** Every robustness feature armed, nothing disturbed: credits sized
 *  above the per-class in-flight demand (mlp), a 4x faster fence
 *  checker, plus the watchdog via Cluster::Options. */
PoolSpec
armedSpec()
{
    PoolSpec sp = cleanSpec();
    sp.credits = 2 * sp.mlp;
    sp.fenceCheckNs = 500.0;
    return sp;
}

/** Functional fingerprint of a result (determinism checks). */
std::string
fingerprint(const ClusterResult &r)
{
    std::ostringstream os;
    for (const auto &h : r.hosts)
        os << h.host << ":" << h.digest.ops << ":" << std::hex
           << h.digest.valueHash << ":" << h.digest.ledgerHash << ":"
           << std::dec << h.fenced << ";";
    os << r.verdict << ";" << r.endTick;
    return os.str();
}

double
timeOne(const PoolSpec &sp, bool watchdog, ClusterResult &keep)
{
    Cluster::Options o;
    if (watchdog)
        o.watchdogUs = 100.0;
    const auto t0 = std::chrono::steady_clock::now();
    Cluster c(sp, o);
    keep = c.run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

double
best(const PoolSpec &sp, bool watchdog, int reps, ClusterResult &keep)
{
    double s = 1e300;
    for (int i = 0; i < reps; ++i) {
        ClusterResult r;
        const double t = timeOne(sp, watchdog, r);
        if (t < s)
            s = t;
        keep = std::move(r); // deterministic; any rep will do
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
                         {.out = "BENCH_pool.json"});
    const int reps = static_cast<int>(args.reps);
    const std::string &out = args.out;

    bench::banner("BENCH pool",
                  "multi-host pooling overhead and drill datapoints");

    bool ok = true;

    // Disabled path: two identical clean runs must agree on every
    // functional outcome.
    ClusterResult offA, offB;
    timeOne(cleanSpec(), false, offA);
    timeOne(cleanSpec(), false, offB);
    const bool offIdentical = fingerprint(offA) == fingerprint(offB);
    std::printf("pool,disabled_identical,%d\n", offIdentical ? 1 : 0);
    if (!offIdentical) {
        std::fprintf(stderr, "FAIL: disabled path nondeterministic\n");
        ok = false;
    }

    // Armed-but-idle overhead: credits + fast fence checker +
    // watchdog, nothing fails. The functional outcome must not move
    // either -- idle robustness machinery observes, never perturbs.
    ClusterResult off, on;
    const double offS = best(cleanSpec(), false, reps, off);
    const double onS = best(armedSpec(), true, reps, on);
    const double overheadPct = (onS / offS - 1.0) * 100.0;
    std::printf("pool,disabled_ms,%.2f\n", offS * 1e3);
    std::printf("pool,armed_idle_ms,%.2f\n", onS * 1e3);
    std::printf("pool,armed_idle_overhead_pct,%.2f\n", overheadPct);
    if (overheadPct > kOverheadBudgetPct) {
        std::fprintf(stderr,
                     "FAIL: armed-but-idle overhead %.2f%% exceeds "
                     "the %.1f%% budget\n",
                     overheadPct, kOverheadBudgetPct);
        ok = false;
    }
    bool armedClean = true;
    for (std::size_t h = 0; h < off.hosts.size(); ++h)
        armedClean = armedClean
                     && off.hosts[h].digest == on.hosts[h].digest;
    std::printf("pool,armed_idle_digests_identical,%d\n",
                armedClean ? 1 : 0);
    if (!armedClean) {
        std::fprintf(stderr,
                     "FAIL: idle robustness machinery changed a "
                     "host digest\n");
        ok = false;
    }

    // Full drill (crash + aggressor + credits + poison).
    std::string err;
    const auto drill = PoolSpec::parse(
        "hosts=4,ops=8000,crash-host=1,crash-at-ns=40000,aggressor=3,"
        "credits=16,poison-host=2,poison-every=97",
        err);
    if (!drill) {
        std::fprintf(stderr, "bad drill spec: %s\n", err.c_str());
        return 1;
    }
    const auto d0 = std::chrono::steady_clock::now();
    const memo::PoolResult dr = memo::runPool(*drill);
    const double drillS = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - d0)
                              .count();
    const ClusterResult &c = dr.cluster;
    std::printf("pool,drill_time_to_fence_ns,%.1f\n", c.timeToFenceNs);
    std::printf("pool,drill_quarantined_mb,%llu\n",
                static_cast<unsigned long long>(c.quarantinedBytes / miB));
    std::printf("pool,drill_recovered_mb,%llu\n",
                static_cast<unsigned long long>(c.recoveredBytes / miB));
    std::printf("pool,drill_ledger_ok,%d\n", c.ledgerOk ? 1 : 0);
    std::printf("pool,drill_isolation_ok,%d\n", dr.isolationOk ? 1 : 0);
    if (!c.ledgerOk || !dr.isolationOk || c.watchdogTripped) {
        std::fprintf(stderr,
                     "FAIL: drill violates an invariant (ledger=%d "
                     "isolation=%d)\n",
                     c.ledgerOk ? 1 : 0, dr.isolationOk ? 1 : 0);
        ok = false;
    }

    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"pool\",\n"
            "  \"workload\": \"%s\",\n"
            "  \"reps\": %d,\n"
            "  \"disabled_ms\": %.3f,\n"
            "  \"armed_idle_ms\": %.3f,\n"
            "  \"armed_idle_overhead_pct\": %.3f,\n"
            "  \"overhead_budget_pct\": %.1f,\n"
            "  \"disabled_identical\": %s,\n"
            "  \"armed_idle_digests_identical\": %s,\n"
            "  \"drill\": {\"ms\": %.3f, \"time_to_fence_ns\": %.1f, "
            "\"quarantined_bytes\": %llu, \"recovered_bytes\": %llu, "
            "\"ledger_ok\": %s, \"isolation_ok\": %s, "
            "\"verdict\": \"%s\"}\n"
            "}\n",
            cleanSpec().toString().c_str(), reps, offS * 1e3,
            onS * 1e3, overheadPct, kOverheadBudgetPct,
            offIdentical ? "true" : "false",
            armedClean ? "true" : "false", drillS * 1e3,
            c.timeToFenceNs,
            static_cast<unsigned long long>(c.quarantinedBytes),
            static_cast<unsigned long long>(c.recoveredBytes),
            c.ledgerOk ? "true" : "false",
            dr.isolationOk ? "true" : "false", c.verdict.c_str());
        std::fclose(f);
        bench::note(("wrote " + out).c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }

    if (ok)
        bench::note("pool guardrails hold: idle overhead in budget, "
                    "disabled path deterministic, ledgers conserved, "
                    "blast radius contained");
    return ok ? 0 : 1;
}
