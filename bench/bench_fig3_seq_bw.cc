/**
 * @file
 * Figure 3 reproduction: sequential-access bandwidth vs thread count
 * for load / temporal store / non-temporal store on (a) 8-channel
 * local DDR5, (b) CXL memory, (c) 1-channel remote DDR5.
 */

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

    bench::banner("Figure 3",
                  "Sequential access bandwidth (GB/s) vs thread count");

    const std::vector<std::uint32_t> threads = {1,  2,  4,  8, 12,
                                                16, 20, 24, 28, 32};
    struct Panel
    {
        memo::Target target;
        const char *caption;
    };
    const Panel panels[] = {
        {memo::Target::Ddr5Local, "(a) DDR5-L8"},
        {memo::Target::Cxl, "(b) CXL memory"},
        {memo::Target::Ddr5Remote, "(c) DDR5-R1"},
    };
    struct Instr
    {
        MemOp::Kind kind;
        const char *name;
    };
    const Instr instrs[] = {
        {MemOp::Kind::Load, "load"},
        {MemOp::Kind::Store, "store"},
        {MemOp::Kind::NtStore, "nt-store"},
    };

    // Every (panel, instr, threads) point is an independent Machine;
    // compute the whole grid through the sweep pool, then render in
    // fixed order so the output is identical for any job count.
    const std::size_t nInstrs = std::size(instrs);
    const std::size_t nPoints =
        std::size(panels) * nInstrs * threads.size();
    SweepRunner pool(jobs);
    const std::vector<double> grid =
        pool.map(nPoints, [&](std::size_t i) {
            const std::size_t t = i % threads.size();
            const std::size_t in = (i / threads.size()) % nInstrs;
            const std::size_t p = i / (threads.size() * nInstrs);
            return memo::runSeqBandwidth(panels[p].target,
                                         instrs[in].kind, threads[t]);
        });

    std::size_t idx = 0;
    for (const Panel &panel : panels) {
        std::printf("\n%s\n", panel.caption);
        std::printf("%-10s", "threads");
        for (std::uint32_t t : threads)
            std::printf(" %6u", t);
        std::printf("\n");
        for (const Instr &in : instrs) {
            const double *row = &grid[idx];
            idx += threads.size();
            std::printf("%-10s", in.name);
            for (std::size_t i = 0; i < threads.size(); ++i)
                std::printf(" %6.1f", row[i]);
            std::printf("\n");
            for (std::size_t i = 0; i < threads.size(); ++i) {
                std::printf("fig3,%s,%s,%u,%.1f\n",
                            memo::targetName(panel.target), in.name,
                            threads[i], row[i]);
            }
        }
        if (panel.target == memo::Target::Cxl) {
            bench::note("grey dash line of the paper: DDR4-2666 "
                        "theoretical max = 21.3 GB/s");
        }
    }
    std::printf("\n");
    bench::note("paper: L8 load peaks ~221 GB/s @ ~26 thr; L8 nt-store "
                "~170 GB/s @ ~16 thr; CXL load peaks ~8 thr then drops "
                "toward ~17; CXL nt-store peaks at 2 thr then collapses");
    return 0;
}
