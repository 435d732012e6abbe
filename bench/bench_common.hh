/**
 * @file
 * Shared helpers for the figure-regeneration benchmark binaries: each
 * binary prints the rows/series of one table or figure of the paper,
 * in a machine-greppable format
 * (`<figure>,<series>,<x>,<value>` CSV plus a human-readable header).
 */

#ifndef CXLMEMO_BENCH_BENCH_COMMON_HH
#define CXLMEMO_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/specparse.hh"

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

/**
 * Value of `--flag N` (or its short @p alias) in argv, an integer in
 * [@p lo, @p hi]; @p dflt when the flag is absent. A missing value,
 * garbage, a sign or a value out of range exits 2 with one line.
 */
inline unsigned
countFromArgs(int argc, char **argv, const char *flag, const char *alias,
              unsigned dflt, unsigned lo, unsigned hi)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0
            && (alias == nullptr || std::strcmp(argv[i], alias) != 0))
            continue;
        std::uint64_t v = 0;
        if (i + 1 == argc || !specparse::parseU64(argv[i + 1], v)
            || v < lo || v > hi) {
            std::fprintf(stderr, "%s: %s needs an integer in [%u, %u], "
                         "got '%s'\n",
                         argv[0], flag, lo, hi,
                         i + 1 < argc ? argv[i + 1] : "");
            std::exit(2);
        }
        return static_cast<unsigned>(v);
    }
    return dflt;
}

/**
 * Parse `--jobs N` / `-j N` from a figure binary's argv (default 1,
 * 0 = one per hardware thread, at most 256 as in `memo --jobs`). The
 * sweep output is identical for any value; jobs only changes
 * wall-clock time.
 */
inline unsigned
jobsFromArgs(int argc, char **argv)
{
    return countFromArgs(argc, argv, "--jobs", "-j", 1, 0, 256);
}

/** Parse `--reps N` from a guardrail bench's argv (default 3, 1..1000):
 *  the number of interleaved timing repetitions. */
inline int
repsFromArgs(int argc, char **argv)
{
    return static_cast<int>(
        countFromArgs(argc, argv, "--reps", nullptr, 3, 1, 1000));
}

} // namespace bench
} // namespace cxlmemo

#endif // CXLMEMO_BENCH_BENCH_COMMON_HH
