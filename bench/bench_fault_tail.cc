/**
 * @file
 * RAS fault-tail study: how flit CRC errors on the CXL link inflate
 * the *tail* of loaded load latency. Sweeps the per-flit CRC error
 * rate and reports avg/p50/p99 of a windowed dependent-load probe on
 * the CXL target, plus the recovery counters (link retries, replayed
 * bytes). The average barely moves at realistic error rates -- the
 * retry penalty is rare -- but p99 departs early, which is exactly
 * why RAS behaviour matters for latency-sensitive consumers of CXL
 * memory. Each sweep point builds an independent Machine, so points
 * run in parallel under --jobs.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "sim/sweep.hh"

using namespace cxlmemo;

int
main(int argc, char **argv)
{
    const unsigned jobs =
        bench::parseArgs(argc, argv, {bench::jobsFlag}).jobs;

    bench::banner("Fault tail",
                  "CXL loaded-latency tail vs link CRC error rate");

    const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3, 5e-3};
    constexpr std::uint32_t threads = 4;

    SweepRunner pool(jobs);
    const auto dists = pool.map(rates.size(), [&](std::size_t i) {
        memo::Options opts;
        opts.faults.crcPerFlit = rates[i];
        return memo::runLoadedLatencyDist(memo::Target::Cxl, threads,
                                          opts);
    });

    std::printf("%-10s %9s %9s %9s %12s %12s\n", "crc-rate", "avg-ns",
                "p50-ns", "p99-ns", "link-retries", "replay-KiB");
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const memo::LoadedLatencyDist &d = dists[i];
        std::printf("%-10g %9.1f %9.1f %9.1f %12llu %12llu\n", rates[i],
                    d.avgNs, d.p50Ns, d.p99Ns,
                    (unsigned long long)d.ras.linkRetries,
                    (unsigned long long)(d.ras.replayBytes / kiB));
    }
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const memo::LoadedLatencyDist &d = dists[i];
        std::printf("fault-tail,crc=%g,%u,%.1f,%.1f,%.1f,%llu\n",
                    rates[i], threads, d.avgNs, d.p50Ns, d.p99Ns,
                    (unsigned long long)d.ras.linkRetries);
    }
    bench::note("expect: p99 and link-retries rise monotonically with "
                "the CRC rate; avg/p50 stay near fault-free until "
                "~1e-3, where every flit pair pays a replay");
    return 0;
}
