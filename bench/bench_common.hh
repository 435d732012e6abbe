/**
 * @file
 * Shared helpers for the figure-regeneration benchmark binaries: each
 * binary prints the rows/series of one table or figure of the paper,
 * in a machine-greppable format
 * (`<figure>,<series>,<x>,<value>` CSV plus a human-readable header).
 */

#ifndef CXLMEMO_BENCH_BENCH_COMMON_HH
#define CXLMEMO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>

#include "sim/flagparse.hh"

namespace cxlmemo
{
namespace bench
{

inline void
banner(const char *figure, const char *caption)
{
    std::printf("==========================================================\n");
    std::printf("%s: %s\n", figure, caption);
    std::printf("==========================================================\n");
}

inline void
note(const char *text)
{
    std::printf("-- %s\n", text);
}

/** The flags a bench binary may take; each bench picks its rows. */
struct Args
{
    unsigned jobs = 1;
    unsigned reps = 3;
    std::string out;
    bool quick = false;
};

using ArgFlag = specparse::Flag<Args>;

/** Host threads for sweep points, as in `memo --jobs` (0 = one per
 *  hardware thread); the output is identical for any value. */
inline const ArgFlag jobsFlag{"--jobs", "-j", specparse::Arg::Size,
                              &Args::jobs, {0, 256}, "N",
                              "host threads for sweep points"};
/** Interleaved timing repetitions of a guardrail bench. */
inline const ArgFlag repsFlag{"--reps", nullptr, specparse::Arg::Size,
                              &Args::reps, {1, 1000}, "N",
                              "timing repetitions"};
/** Where a guardrail bench writes its JSON verdict. */
inline const ArgFlag outFlag{"--out", nullptr, specparse::Arg::Text,
                             &Args::out, {}, "FILE", "JSON output file"};
/** The reduced matrix (sanitizer smoke). */
inline const ArgFlag quickFlag{"--quick", nullptr, specparse::Arg::Switch,
                               &Args::quick, {}, "", "reduced matrix"};

/**
 * Parse argv over @p dflt with the @p flags this bench takes. An
 * unknown argument, a missing value, garbage or a value out of range
 * exits 2 with one line, before any workload runs.
 */
inline Args
parseArgs(int argc, char **argv, std::initializer_list<ArgFlag> flags,
          Args dflt = {})
{
    std::string error;
    const auto args = specparse::parseArgv(
        specparse::Argv<Args>{{flags.begin(), flags.size()}},
        {argv + 1, argv + argc}, error, dflt);
    if (!args) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
        std::exit(2);
    }
    return *args;
}

} // namespace bench
} // namespace cxlmemo

#endif // CXLMEMO_BENCH_BENCH_COMMON_HH
