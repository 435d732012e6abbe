/**
 * @file
 * Free-list pools for hot-path one-shot allocations.
 *
 * The event kernel retires millions of short-lived callbacks per
 * figure. Most captures fit InlineCallback's inline buffer, but the
 * ones that carry a whole MemRequest (device dispatches, completion
 * chains, far-heap event nodes) spill to a heap cell -- previously a
 * global new/delete pair per event, which costs ~5% of run time.
 *
 * poolAlloc/poolFree replace that pair with per-thread size-class
 * free lists:
 *
 *  - cells come in 64 B classes up to 1 KiB; larger requests fall
 *    through to operator new (they are cold: sweep setup, reports);
 *  - a freed cell goes onto the *freeing* thread's list, so no
 *    cross-thread bookkeeping exists and the structure is trivially
 *    thread-safe. A cell allocated on one thread and freed on
 *    another simply migrates; list lengths are capped, so migration
 *    cannot accumulate unbounded memory;
 *  - each list is drained back to operator delete when its thread
 *    exits.
 *
 * Accounting: every allocation bumps process-wide counters (relaxed
 * atomics -- exact totals, no ordering needed) that MetricsRegistry
 * exposes as `sim.pool.*`, giving sweeps an alloc-rate signal.
 */

#ifndef CXLMEMO_SIM_POOL_HH
#define CXLMEMO_SIM_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace cxlmemo
{

namespace pool_detail
{

constexpr std::size_t classBytes = 64;
constexpr std::size_t numClasses = 16; //!< up to 1 KiB
constexpr std::size_t maxCached = 4096; //!< cells kept per class/thread

struct Counters
{
    std::atomic<std::uint64_t> allocs{0};   //!< poolAlloc calls
    std::atomic<std::uint64_t> reuses{0};   //!< served from a free list
    std::atomic<std::uint64_t> fallbacks{0}; //!< too large for a class
};

inline Counters &
counters()
{
    static Counters c;
    return c;
}

/** Intrusive singly linked free list; the link lives in the cell. */
struct FreeCell
{
    FreeCell *next;
};

struct ThreadCache
{
    FreeCell *head[numClasses] = {};
    std::size_t count[numClasses] = {};

    ~ThreadCache()
    {
        for (std::size_t c = 0; c < numClasses; ++c) {
            FreeCell *cell = head[c];
            while (cell) {
                FreeCell *next = cell->next;
                ::operator delete(cell);
                cell = next;
            }
        }
    }
};

inline ThreadCache &
cache()
{
    thread_local ThreadCache tc;
    return tc;
}

constexpr std::size_t
classOf(std::size_t bytes)
{
    return (bytes + classBytes - 1) / classBytes - 1;
}

} // namespace pool_detail

/**
 * Allocate @p bytes from the calling thread's pool. Alignment is
 * max_align_t (like operator new); over-aligned types must not use
 * the pool.
 */
inline void *
poolAlloc(std::size_t bytes)
{
    using namespace pool_detail;
    auto &ctr = counters();
    ctr.allocs.fetch_add(1, std::memory_order_relaxed);
    if (bytes == 0)
        bytes = 1;
    const std::size_t cls = classOf(bytes);
    if (cls >= numClasses) {
        ctr.fallbacks.fetch_add(1, std::memory_order_relaxed);
        return ::operator new(bytes);
    }
    ThreadCache &tc = cache();
    if (FreeCell *cell = tc.head[cls]) {
        tc.head[cls] = cell->next;
        --tc.count[cls];
        ctr.reuses.fetch_add(1, std::memory_order_relaxed);
        return cell;
    }
    return ::operator new((cls + 1) * classBytes);
}

/** Return a poolAlloc'd cell of @p bytes to the calling thread. */
inline void
poolFree(void *p, std::size_t bytes)
{
    using namespace pool_detail;
    if (!p)
        return;
    if (bytes == 0)
        bytes = 1;
    const std::size_t cls = classOf(bytes);
    if (cls >= numClasses) {
        ::operator delete(p);
        return;
    }
    ThreadCache &tc = cache();
    if (tc.count[cls] >= maxCached) {
        ::operator delete(p);
        return;
    }
    auto *cell = static_cast<FreeCell *>(p);
    cell->next = tc.head[cls];
    tc.head[cls] = cell;
    ++tc.count[cls];
}

/** Process-wide pool traffic counters (for MetricsRegistry). */
inline std::uint64_t
poolAllocCount()
{
    return pool_detail::counters().allocs.load(std::memory_order_relaxed);
}

inline std::uint64_t
poolReuseCount()
{
    return pool_detail::counters().reuses.load(std::memory_order_relaxed);
}

inline std::uint64_t
poolFallbackCount()
{
    return pool_detail::counters().fallbacks.load(
        std::memory_order_relaxed);
}

} // namespace cxlmemo

#endif // CXLMEMO_SIM_POOL_HH
