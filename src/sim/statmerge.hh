/**
 * @file
 * Shared merge primitives for mergeable stats structs.
 *
 * Every observability layer carries plain counter structs that must
 * merge associatively across `--jobs` shards: monotone counters add,
 * one-shot timestamps take the max (each side owns its own events, so
 * at most one side holds a nonzero value; concurrent nonzeros take the
 * later one). Before this header
 * each struct hand-rolled its own merge() and the audit lived in the
 * reviewer's head; now the two rules are single fold-expressions and
 * a struct's merge() is a member list, which test_observability can
 * exercise for associativity per struct.
 */

#ifndef CXLMEMO_SIM_STATMERGE_HH
#define CXLMEMO_SIM_STATMERGE_HH

#include <algorithm>

namespace cxlmemo
{

/** Monotone counters: element-wise `into += from`. */
template <typename S, typename... M>
void
mergeCounters(S &into, const S &from, M S::*...members)
{
    ((into.*members += from.*members), ...);
}

/** One-shot timestamps: element-wise `into = max(into, from)`.
 *  A zero means "never happened", so the nonzero side wins and two
 *  nonzero sides resolve to the later event -- both associative. */
template <typename S, typename... M>
void
mergeTimestamps(S &into, const S &from, M S::*...members)
{
    ((into.*members = std::max(into.*members, from.*members)), ...);
}

} // namespace cxlmemo

#endif // CXLMEMO_SIM_STATMERGE_HH
