/**
 * @file
 * Attribution overhead guardrail: runs the fig. 3 read-bandwidth
 * workload with latency accounting off and on, checks the contract
 * (bit-identical simulated results, <5% wall-clock overhead, both
 * built-in invariants green), and writes the measurement to
 * BENCH_attrib.json. Exits nonzero on any violation, so CI can run it
 * as-is.
 *
 *   bench_attrib [--reps N] [--out BENCH_attrib.json]
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "sim/attribution.hh"
#include "system/machine.hh"

namespace
{

using namespace cxlmemo;

const std::vector<std::uint32_t> kThreads = {8, 16, 24};

struct RunResult
{
    double seconds = 0.0;
    std::vector<double> gbps;
    AttribSnapshot snap;
};

RunResult
runOnce(bool attrib)
{
    memo::Options opts;
    opts.obs.attribution = attrib;
    RunResult r;
    if (attrib) {
        opts.onMachineDone = [&r](Machine &m) {
            r.snap.merge(m.attribution()->snapshot(m.eq().curTick()));
        };
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t threads : kThreads) {
        r.gbps.push_back(memo::runSeqBandwidth(
            memo::Target::Cxl, MemOp::Kind::Load, threads, opts));
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

double
best(bool attrib, int reps, RunResult &keep)
{
    double s = 1e300;
    for (int i = 0; i < reps; ++i) {
        RunResult r = runOnce(attrib);
        if (r.seconds < s) {
            s = r.seconds;
            keep = std::move(r);
        }
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
                         {.out = "BENCH_attrib.json"});
    const int reps = static_cast<int>(args.reps);
    const std::string &out = args.out;

    bench::banner("BENCH attrib",
                  "latency-accounting overhead on the fig. 3 workload");

    RunResult off, on;
    const double offS = best(false, reps, off);
    const double onS = best(true, reps, on);
    const double overheadPct = (onS / offS - 1.0) * 100.0;

    bool identical = off.gbps == on.gbps;
    const bool stackExact = on.snap.decompositionExact();
    const bool little = on.snap.littleOk();
    const bool overheadOk = overheadPct < 5.0;

    std::printf("attrib,off_ms,%.2f\n", offS * 1e3);
    std::printf("attrib,on_ms,%.2f\n", onS * 1e3);
    std::printf("attrib,overhead_pct,%.2f\n", overheadPct);
    std::printf("attrib,bit_identical,%d\n", identical ? 1 : 0);
    std::printf("attrib,stack_exact,%d\n", stackExact ? 1 : 0);
    std::printf("attrib,little_ok,%d\n", little ? 1 : 0);
    std::printf("attrib,verdict,%s\n", on.snap.verdict().c_str());

    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"attrib_overhead\",\n"
                     "  \"workload\": \"seq cxl load threads=8,16,24\",\n"
                     "  \"reps\": %d,\n"
                     "  \"off_ms\": %.3f,\n"
                     "  \"on_ms\": %.3f,\n"
                     "  \"overhead_pct\": %.3f,\n"
                     "  \"budget_pct\": 5.0,\n"
                     "  \"bit_identical\": %s,\n"
                     "  \"stack_exact\": %s,\n"
                     "  \"little_ok\": %s,\n"
                     "  \"bottleneck\": \"%s\"\n"
                     "}\n",
                     reps, offS * 1e3, onS * 1e3, overheadPct,
                     identical ? "true" : "false",
                     stackExact ? "true" : "false",
                     little ? "true" : "false",
                     stationName(on.snap.bottleneck()));
        std::fclose(f);
        bench::note(("wrote " + out).c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: enabling attribution changed results\n");
        return 1;
    }
    if (!stackExact || !little) {
        std::fprintf(stderr, "FAIL: invariant violated (stack %d, "
                             "little %d)\n",
                     stackExact, little);
        return 1;
    }
    if (!overheadOk) {
        std::fprintf(stderr, "FAIL: overhead %.2f%% exceeds 5%%\n",
                     overheadPct);
        return 1;
    }
    bench::note("attribution contract holds");
    return 0;
}
