/**
 * @file
 * End-to-end smoke checks that drive the built `memo` and bench
 * binaries the way a user does: the attribution CSV's stack
 * arithmetic, the bit-identical dark path, `--jobs` independence, the
 * fig. 3 report verdict, the RAS fault sweep and overload guardrail,
 * and the argument checks of the benches. The sanitizer build runs
 * them too, so the recovery paths they drive are ASan/UBSan-checked.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace
{

struct Output
{
    int status = -1; //!< exit code (-1: did not exit normally)
    std::string out; //!< stdout (and stderr when merged)
};

Output
run(const std::string &cmd, bool mergeStderr = false)
{
    Output r;
    std::FILE *p =
        popen((cmd + (mergeStderr ? " 2>&1" : " 2>/dev/null")).c_str(),
              "r");
    if (p == nullptr)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        r.out.append(buf, n);
    const int st = pclose(p);
    r.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return r;
}

Output
memo(const std::string &args)
{
    return run(std::string(CXLMEMO_MEMO) + " " + args);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream in(s);
    while (std::getline(in, cur, sep))
        out.push_back(cur);
    return out;
}

/** The CSV's data rows (header dropped), each cut to its first
 *  @p cols cells when nonzero. */
std::vector<std::string>
rows(const std::string &csv, std::size_t cols = 0)
{
    std::vector<std::string> out = split(csv, '\n');
    if (!out.empty())
        out.erase(out.begin());
    if (cols == 0)
        return out;
    for (std::string &row : out) {
        std::size_t at = 0;
        for (std::size_t i = 0; i < cols && at != std::string::npos; ++i)
            at = row.find(',', at + (i > 0 ? 1 : 0));
        if (at != std::string::npos)
            row.resize(at);
    }
    return out;
}

const char *const kAttribSweep =
    "--mode seq --target cxl --op load --threads 1,8,16 --csv --attrib";

TEST(AttribSmoke, CsvStackReconstructsTheTotal)
{
    // Per point: the station stack plus the residual equals the
    // measured end-to-end total (each cell rounds to 0.01 ns, so allow
    // the accumulated rounding), the residual is never negative,
    // Little's law holds and the verdict column names a station.
    const Output r = memo(std::string(kAttribSweep) + " --jobs 2");
    ASSERT_EQ(r.status, 0);
    const std::vector<std::string> lines = split(r.out, '\n');
    ASSERT_GT(lines.size(), 1u) << "empty sweep";
    const std::vector<std::string> header = split(lines[0], ',');
    for (std::size_t l = 1; l < lines.size(); ++l) {
        const std::vector<std::string> cells = split(lines[l], ',');
        ASSERT_EQ(cells.size(), header.size()) << lines[l];
        std::map<std::string, std::string> row;
        double stack = 0.0;
        for (std::size_t i = 0; i < header.size(); ++i) {
            const std::string &h = header[i];
            row[h] = cells[i];
            const bool comp =
                h.size() > 5
                && (h.compare(h.size() - 5, 5, "_q_ns") == 0
                    || h.compare(h.size() - 5, 5, "_s_ns") == 0);
            if (h.rfind("attrib_", 0) == 0 && comp)
                stack += std::stod(cells[i]);
        }
        const double total = std::stod(row.at("attrib_total_ns"));
        const double other = std::stod(row.at("attrib_other_ns"));
        EXPECT_LT(std::fabs(stack + other - total),
                  0.02 * static_cast<double>(cells.size()))
            << lines[l];
        EXPECT_GE(other, 0.0) << lines[l];
        EXPECT_EQ(row.at("attrib_little_ok"), "1") << lines[l];
        EXPECT_FALSE(row.at("attrib_bottleneck").empty()) << lines[l];
    }
}

TEST(AttribSmoke, DisabledModeIsBitIdentical)
{
    // The base columns of an --attrib run equal a plain run's rows,
    // byte for byte: accounting never changes simulated timing.
    const Output on = memo(kAttribSweep);
    const Output off = memo(
        "--mode seq --target cxl --op load --threads 1,8,16 --csv");
    ASSERT_EQ(on.status, 0);
    ASSERT_EQ(off.status, 0);
    EXPECT_EQ(rows(on.out, 4), rows(off.out));
}

TEST(AttribSmoke, DeterministicAcrossJobs)
{
    // The attribution columns merge exactly and associatively, so the
    // sweep's bytes do not depend on --jobs.
    const Output j1 = memo(std::string(kAttribSweep) + " --jobs 1");
    const Output j2 = memo(std::string(kAttribSweep) + " --jobs 2");
    ASSERT_EQ(j1.status, 0);
    ASSERT_EQ(j2.status, 0);
    EXPECT_EQ(j1.out, j2.out);
}

TEST(AttribSmoke, ReportBlamesTheBackend)
{
    // The fig. 3 walkthrough: the read knee lands on the device's
    // back-end, and neither built-in invariant is violated.
    const Output r = memo(
        "--mode report --target cxl --op load --threads 1,8,16,24");
    ASSERT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("bottleneck=cxl.backend"), std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("VIOLATED"), std::string::npos) << r.out;
}

TEST(BenchArgs, BadRepsAndJobsExitTwoBeforeAnyRun)
{
    // A rep count below one or not a number used to run zero reps and
    // report the contract as holding; a garbage job count silently
    // meant one job per hardware thread. Each now exits 2 with one
    // line, before any workload runs.
    const std::string dir = CXLMEMO_BENCH_DIR;
    for (const char *bench : {"bench_attrib", "bench_chaos", "bench_pool",
                              "bench_fabric_obs", "bench_tail_obs"}) {
        for (const char *args :
             {"--reps 0", "--reps abc", "--reps -1", "--reps"}) {
            const Output r = run(dir + "/" + bench + " " + args
                                     + " --out /dev/null",
                                 /*mergeStderr=*/true);
            EXPECT_EQ(r.status, 2) << bench << " " << args;
            EXPECT_EQ(split(r.out, '\n').size(), 1u)
                << bench << " " << args << ": " << r.out;
        }
    }
    for (const char *args : {"--jobs abc", "-j -2", "--jobs 9999"}) {
        const Output r =
            run(dir + "/bench_fig3_seq_bw " + args, /*mergeStderr=*/true);
        EXPECT_EQ(r.status, 2) << args;
        EXPECT_EQ(split(r.out, '\n').size(), 1u) << args << ": " << r.out;
    }
}

TEST(BenchArgs, UnknownArgumentAndTrailingOutExitTwo)
{
    // Each bench reads argv through the flag table it declares: a flag
    // it does not take, or --out with no file after it, is an error
    // before any run instead of being ignored.
    const std::string dir = CXLMEMO_BENCH_DIR;
    for (const char *bench :
         {"bench_attrib", "bench_chaos", "bench_pool", "bench_fabric_obs",
          "bench_tail_obs", "bench_fig3_seq_bw", "bench_overload"}) {
        for (const char *args : {"--bogus", "--out"}) {
            const Output r =
                run(dir + "/" + bench + " " + args, /*mergeStderr=*/true);
            EXPECT_EQ(r.status, 2) << bench << " " << args;
            EXPECT_EQ(split(r.out, '\n').size(), 1u)
                << bench << " " << args << ": " << r.out;
        }
    }
}

TEST(SweepDeterminism, JobsOneAndFourPrintTheSameBytes)
{
    const std::string sweep =
        "--mode seq --target cxl --op load --threads 1,2,4 --csv";
    const Output j1 = memo(sweep + " --jobs 1");
    const Output j4 = memo(sweep + " --jobs 4");
    ASSERT_EQ(j1.status, 0);
    ASSERT_EQ(j4.status, 0);
    EXPECT_EQ(j1.out, j4.out);
}

/** A loaded CXL point with @p spec injected and the forward-progress
 *  watchdog armed: it completes (a recovery path that loses a request
 *  or leaks a credit trips the watchdog) and its retry counters show
 *  the faults really fired. */
void
expectFaultSweepRecovers(const std::string &spec)
{
    const Output r = memo("--mode loaded --target cxl --threads 4 "
                          "--fault-spec " + spec + " --watchdog");
    ASSERT_EQ(r.status, 0) << r.out;
    EXPECT_TRUE(std::regex_search(r.out, std::regex("crc-errors=[1-9]")))
        << r.out;
}

TEST(FaultSweep, CrcOneInTenThousandRecovers)
{
    expectFaultSweepRecovers("crc=1e-4,poison=1e-6,timeout=1e-5");
}

TEST(FaultSweep, CrcOneInAThousandRecovers)
{
    expectFaultSweepRecovers("crc=1e-3,drain=1e-4,dram=1e-4,degrade=1000");
}

TEST(FaultSweep, MalformedSpecExitsNonzeroWithOneLine)
{
    const Output r =
        run(std::string(CXLMEMO_MEMO)
                + " --mode loaded --target cxl --fault-spec crc=2",
            /*mergeStderr=*/true);
    EXPECT_NE(r.status, 0);
    EXPECT_EQ(split(r.out, '\n').size(), 1u) << r.out;
}

TEST(Warnings, SuppressionNamesARepositoryPath)
{
    // The drill's poison warnings hit their rate limit; the notice
    // must read the same in every checkout of the source.
    const Output r = run(std::string(CXLMEMO_MEMO) + " --mode drill",
                         /*mergeStderr=*/true);
    ASSERT_EQ(r.status, 0) << r.out;
    EXPECT_TRUE(std::regex_search(
        r.out, std::regex("\\nwarn: further warnings from "
                          "src/cxl/device\\.cc:[0-9]+ suppressed\\n")))
        << r.out;
    EXPECT_EQ(r.out.find(CXLMEMO_SOURCE_DIR), std::string::npos) << r.out;
}

TEST(Overload, QuickMatrixHoldsItsContract)
{
    // The bench asserts the credit ledger, no watchdog trip and the
    // AIMD bandwidth floor itself, and exits nonzero on a violation.
    const Output r = run(std::string(CXLMEMO_BENCH_DIR)
                         + "/bench_overload --quick --jobs 2");
    EXPECT_EQ(r.status, 0) << r.out;
}

} // namespace
