/**
 * @file
 * Set-associative cache tag array with MESI-lite line states.
 *
 * This is a functional tag store with LRU replacement; timing is
 * applied by the CacheHierarchy that owns the levels. States are the
 * subset of MESI the studied workloads exercise: threads in this
 * framework do not write-share lines, so S behaves like E on a store
 * (no cross-core invalidation round is modelled; documented in
 * DESIGN.md).
 */

#ifndef CXLMEMO_CACHE_CACHE_HH
#define CXLMEMO_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** Cacheline coherence state. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 48 * kiB;
    std::uint32_t assoc = 12;
    /** Incremental lookup/hit latency contributed by this level. */
    Tick latency = ticksFromNs(2.5);
};

/** Hit/miss counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(hits)
                       / static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * The tag array of one cache. Addresses are line-granular
 * ("line address" = physical address >> 6, so never 2^64 - 1).
 *
 * Storage is structure-of-arrays, set-major: a tag word per way (0 =
 * invalid, else lineAddr + 1), an LRU stamp per way and a 4-byte
 * metadata Line per way. All three live in one zero-filled block, so
 * a set no access ever touches costs neither construction time nor
 * resident pages (DESIGN.md section 9).
 */
class SetAssocCache
{
  public:
    /** Per-way metadata; meaningful only while the way's tag is valid. */
    struct Line
    {
        LineState state = LineState::Invalid;
        /** Set by the prefetcher; cleared on first demand hit. */
        bool prefetched = false;
        /** Core that installed the line (inclusive-directory hint so
         *  back-invalidation does not scan every core). */
        std::uint16_t owner = 0;
    };

    /** A valid line displaced by insert(). */
    struct Victim
    {
        std::uint64_t lineAddr;
        LineState state;
        std::uint16_t owner;
    };

    explicit SetAssocCache(CacheParams params);

    /** @return the line if present (and update LRU), else nullptr. */
    Line *find(std::uint64_t lineAddr);

    /** Presence probe without LRU update. */
    const Line *peek(std::uint64_t lineAddr) const;

    /**
     * Install a line into the set's first invalid way, else over its
     * least recently used way (lowest way on a tie).
     * @return the displaced valid line, if any.
     */
    std::optional<Victim> insert(std::uint64_t lineAddr, LineState state,
                                 std::uint16_t owner,
                                 bool prefetched = false);

    /** Remove a line; @return its prior state. */
    LineState invalidate(std::uint64_t lineAddr);

    const CacheParams &params() const { return params_; }
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    std::uint32_t numSets() const { return numSets_; }

    /** Drop every line (used between experiment repetitions). */
    void flushAll();

  private:
    /** Frees the zero-filled block behind the three way arrays. */
    struct Release
    {
        std::size_t mappedBytes; //!< 0: the block came from calloc
        void operator()(std::byte *p) const;
    };

    /** Index of the first way of @p lineAddr's set. */
    std::size_t setBase(std::uint64_t lineAddr) const;
    /** Way of @p tag in the set at @p base, or assoc if none holds it. */
    std::uint32_t wayOf(std::size_t base, std::uint64_t tag) const;

    CacheParams params_;
    std::uint32_t numSets_;
    std::unique_ptr<std::byte[], Release> storage_;
    std::uint64_t *tags_;   //!< 0 = invalid, else lineAddr + 1
    std::uint64_t *stamps_; //!< LRU use clock at last touch
    Line *lines_;
    std::uint64_t useClock_ = 0;
    /** No insert since construction or the last flushAll(). */
    bool empty_ = true;
    CacheStats stats_;
};

static_assert(sizeof(SetAssocCache::Line) == 4,
              "per-way metadata must stay 4 bytes");

} // namespace cxlmemo

#endif // CXLMEMO_CACHE_CACHE_HH
