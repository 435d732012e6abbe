/**
 * @file
 * Overload-survival study: offered non-temporal store load vs achieved
 * CXL bandwidth and probe tail latency, with and without the QoS
 * machinery. Reproduces the paper's Sec. 4.3.2 observation that
 * nt-store floods past the saturation point *collapse* device
 * bandwidth (row-locality destruction at the DDR4 backend), then
 * shows that credit-based flow control plus DevLoad-driven AIMD
 * throttling turns the collapse into a graceful plateau.
 *
 * Every point runs with the forward-progress watchdog armed, so the
 * sweep doubles as a no-false-trip regression. The binary exits
 * nonzero if any acceptance check fails:
 *   - credit ledger intact at the end of every run
 *   - no watchdog trip anywhere
 *   - with AIMD, achieved bandwidth at every >= 2x-saturation point
 *     stays within 20% of the measured peak sustainable bandwidth
 *
 * `--quick` runs a reduced matrix (for CI smoke under sanitizers).
 * Each sweep point builds an independent Machine, so points run in
 * parallel under --jobs without changing any printed value.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "sim/logging.hh"
#include "sim/qos.hh"
#include "sim/sweep.hh"

using namespace cxlmemo;

namespace
{

struct Config
{
    const char *name;
    const char *spec; //!< --qos-spec syntax; empty = QoS disabled
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args =
        bench::parseArgs(argc, argv, {bench::jobsFlag, bench::quickFlag});
    const unsigned jobs = args.jobs;

    bench::banner("Overload survival",
                  "offered nt-store load vs achieved CXL bandwidth "
                  "and probe p99, with and without QoS");

    const bool quick = args.quick;
    const std::vector<Config> configs = {
        {"none", ""},
        {"credits", "credits=24"},
        {"aimd", "credits=24,policy=aimd,floor=0.01,burst=12"},
    };
    const std::vector<std::uint32_t> threads =
        quick ? std::vector<std::uint32_t>{2, 8}
              : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 24, 32};

    const std::size_t points = configs.size() * threads.size();
    SweepRunner pool(jobs);
    const auto results = pool.map(points, [&](std::size_t i) {
        const Config &cfg = configs[i / threads.size()];
        memo::Options opts;
        if (cfg.spec[0] != '\0') {
            std::string err;
            const auto qos = QosSpec::parse(cfg.spec, err);
            if (!qos)
                CXLMEMO_PANIC("bad qos spec %s: %s", cfg.spec,
                              err.c_str());
            opts.qos = *qos;
        }
        // Watchdog armed everywhere: a healthy overload run must never
        // trip it, however congested the device gets.
        opts.watchdogUs = 100.0;
        return memo::runOverloadPoint(threads[i % threads.size()], opts);
    });

    // Peak sustainable = best achieved bandwidth with QoS off.
    double peak = 0.0;
    for (std::size_t i = 0; i < threads.size(); ++i)
        peak = std::max(peak, results[i].achievedGBps);

    std::printf("%-8s %8s %10s %11s %9s %7s %7s %7s\n", "config",
                "threads", "offered", "achieved", "p99-ns", "rate",
                "ledger", "wdog");
    bool ledger_ok = true;
    bool wdog_ok = true;
    for (std::size_t i = 0; i < points; ++i) {
        const Config &cfg = configs[i / threads.size()];
        const memo::OverloadResult &r = results[i];
        std::printf("%-8s %8u %8.2f %10.2f %9.0f %7.2f %7s %7s\n",
                    cfg.name, threads[i % threads.size()],
                    r.offeredGBps, r.achievedGBps, r.probeP99Ns,
                    r.qos.rate, r.qos.ledgerOk ? "ok" : "LEAK",
                    r.watchdogTripped ? "TRIP" : "ok");
        ledger_ok = ledger_ok && r.qos.ledgerOk;
        wdog_ok = wdog_ok && !r.watchdogTripped;
    }
    for (std::size_t i = 0; i < points; ++i) {
        const Config &cfg = configs[i / threads.size()];
        const memo::OverloadResult &r = results[i];
        std::printf("overload,%s,%u,%.2f,%.2f,%.0f,%.2f,%d\n",
                    cfg.name, threads[i % threads.size()],
                    r.offeredGBps, r.achievedGBps, r.probeP99Ns,
                    r.qos.rate, r.qos.ledgerOk ? 1 : 0);
    }

    // Acceptance: AIMD holds >= 80% of the sustainable peak at every
    // point whose offered load is at least twice that peak.
    const double need = 0.8 * peak;
    bool aimd_ok = true;
    const std::size_t aimd_base = 2 * threads.size();
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const memo::OverloadResult &r = results[aimd_base + i];
        if (r.offeredGBps < 2.0 * peak)
            continue;
        if (r.achievedGBps < need) {
            std::printf("FAIL: aimd @%u threads: %.2f GB/s < %.2f "
                        "(80%% of %.2f peak)\n",
                        threads[i], r.achievedGBps, need, peak);
            aimd_ok = false;
        }
    }
    if (!ledger_ok)
        std::printf("FAIL: credit ledger leak detected\n");
    if (!wdog_ok)
        std::printf("FAIL: watchdog tripped on a healthy run\n");

    bench::note("expect: without QoS, achieved bandwidth collapses "
                "once offered load passes saturation; with credits "
                "the floor rises; with AIMD the plateau holds within "
                "20% of peak and probe p99 stays bounded");
    if (ledger_ok && wdog_ok && aimd_ok) {
        std::printf("PASS: overload survival criteria met "
                    "(peak %.2f GB/s, floor %.2f GB/s)\n", peak, need);
        return 0;
    }
    return 1;
}
