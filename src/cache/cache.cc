#include "cache/cache.hh"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>

#include <sys/mman.h>

namespace cxlmemo
{

namespace
{

std::uint32_t
roundDownPow2(std::uint32_t v)
{
    CXLMEMO_ASSERT(v > 0, "pow2 of zero");
    return std::uint32_t(1) << (31 - std::countl_zero(v));
}

/**
 * Way arrays this large are mapped straight from the kernel's zero
 * pages, so only the pages a run writes ever become resident. calloc
 * would do the same only until the first large free raises glibc's
 * mmap threshold; after that it recycles heap memory and zeroes all of
 * it, which is what every Machine rebuild would then pay.
 */
constexpr std::size_t mapThreshold = 128 * kiB;

/** Tag word of a line: never 0, which marks an invalid way. */
std::uint64_t
tagOf(std::uint64_t lineAddr)
{
    CXLMEMO_ASSERT(lineAddr != ~std::uint64_t(0), "line address 2^64-1");
    return lineAddr + 1;
}

/** A 1 in every nibble of a recency word. */
constexpr std::uint64_t nibbleOnes = 0x1111111111111111;

/**
 * Recency word of a set that lists way i at nibble i. Words are stored
 * XORed with it, so a zero-filled word already holds a permutation.
 */
constexpr std::uint64_t identityOrder = 0xFEDCBA9876543210;

/** Nibble position of way @p w, which @p order holds exactly once. */
unsigned
positionOf(std::uint64_t order, std::uint32_t w)
{
    // The lowest zero nibble of x is exact: no nibble below it borrows.
    const std::uint64_t x = order ^ (w * nibbleOnes);
    const std::uint64_t zero = (x - nibbleOnes) & ~x & (nibbleOnes << 3);
    return static_cast<unsigned>(std::countr_zero(zero)) >> 2;
}

/** @p order with the way at nibble @p pos moved to nibble 0. */
std::uint64_t
promote(std::uint64_t order, unsigned pos)
{
    const unsigned shift = 4 * pos;
    const std::uint64_t below = order & ((std::uint64_t(1) << shift) - 1);
    const std::uint64_t above = order & (~std::uint64_t(0) << shift << 4);
    return above | (below << 4) | ((order >> shift) & 0xF);
}

} // namespace

void
SetAssocCache::Release::operator()(std::byte *p) const
{
    if (mappedBytes)
        munmap(p, mappedBytes);
    else
        std::free(p);
}

SetAssocCache::SetAssocCache(CacheParams params)
    : params_(std::move(params))
{
    CXLMEMO_ASSERT(params_.assoc > 0, "zero associativity");
    CXLMEMO_ASSERT(params_.assoc <= 16,
                   "associativity above 16 does not fit a recency word");
    CXLMEMO_ASSERT(params_.sizeBytes >= cachelineBytes * params_.assoc,
                   "cache smaller than one set");
    const auto raw_sets = static_cast<std::uint32_t>(
        params_.sizeBytes / (cachelineBytes * params_.assoc));
    // Power-of-two sets keep indexing a mask, like real hardware.
    numSets_ = roundDownPow2(raw_sets);

    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * params_.assoc;
    const std::size_t bytes = ways * (sizeof(std::uint64_t) + sizeof(Line))
                              + numSets_ * sizeof(std::uint64_t);
    Release release{0};
    void *block = nullptr;
    if (bytes >= mapThreshold) {
        block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (block == MAP_FAILED)
            throw std::bad_alloc();
        release.mappedBytes = bytes;
    } else {
        block = std::calloc(bytes, 1);
        if (!block)
            throw std::bad_alloc();
    }
    storage_ = {static_cast<std::byte *>(block), release};
    tags_ = reinterpret_cast<std::uint64_t *>(storage_.get());
    order_ = tags_ + ways;
    lines_ = reinterpret_cast<Line *>(order_ + numSets_);
}

std::size_t
SetAssocCache::setOf(std::uint64_t lineAddr) const
{
    // Mix the node bits (bit 34+ of the line address) into the index
    // so lines from different NUMA nodes do not systematically alias.
    const std::uint64_t mixed = lineAddr ^ (lineAddr >> 17);
    return static_cast<std::size_t>(mixed & (numSets_ - 1));
}

std::uint32_t
SetAssocCache::wayOf(std::size_t base, std::uint64_t tag) const
{
    const std::uint64_t *tags = &tags_[base];
    std::uint32_t w = 0;
    while (w < params_.assoc && tags[w] != tag)
        ++w;
    return w;
}

void
SetAssocCache::touch(std::size_t set, std::uint32_t w)
{
    const std::uint64_t order = order_[set] ^ identityOrder;
    order_[set] = promote(order, positionOf(order, w)) ^ identityOrder;
}

SetAssocCache::Line *
SetAssocCache::find(std::uint64_t lineAddr)
{
    const std::size_t set = setOf(lineAddr);
    const std::size_t base = set * params_.assoc;
    const std::uint32_t w = wayOf(base, tagOf(lineAddr));
    if (w == params_.assoc)
        return nullptr;
    touch(set, w);
    return &lines_[base + w];
}

const SetAssocCache::Line *
SetAssocCache::peek(std::uint64_t lineAddr) const
{
    const std::size_t base = setOf(lineAddr) * params_.assoc;
    const std::uint32_t w = wayOf(base, tagOf(lineAddr));
    return w == params_.assoc ? nullptr : &lines_[base + w];
}

std::optional<SetAssocCache::Victim>
SetAssocCache::insert(std::uint64_t lineAddr, LineState state,
                      std::uint16_t owner, bool prefetched)
{
    CXLMEMO_ASSERT(state != LineState::Invalid, "inserting invalid line");
    const std::uint64_t tag = tagOf(lineAddr);
    const std::uint32_t assoc = params_.assoc;
    const std::size_t set = setOf(lineAddr);
    const std::size_t base = set * assoc;
    std::uint64_t *tags = &tags_[base];

    // The first hole wins, even over a copy of this line further on.
    std::uint32_t w = 0;
    while (w < assoc && tags[w] != 0 && tags[w] != tag)
        ++w;
    if (w < assoc && tags[w] == tag) {
        // Re-insert of a present line: just merge the state.
        Line &line = lines_[base + w];
        line.state = state;
        line.owner = owner;
        touch(set, w);
        return std::nullopt;
    }

    std::optional<Victim> victim;
    if (w == assoc) {
        // Full set: evict the least recently used way, listed last.
        // Ways only move to lower nibbles, so it is a way of this set,
        // and its known position spares touch()'s search.
        const std::uint64_t order = order_[set] ^ identityOrder;
        w = static_cast<std::uint32_t>(order >> (4 * (assoc - 1))) & 0xF;
        order_[set] = promote(order, assoc - 1) ^ identityOrder;
        const Line &old = lines_[base + w];
        victim = Victim{tags[w] - 1, old.state, old.owner};
        stats_.evictions++;
        if (old.state == LineState::Modified)
            stats_.dirtyEvictions++;
    } else {
        touch(set, w);
    }

    tags[w] = tag;
    lines_[base + w] = Line{state, prefetched, owner};
    empty_ = false;
    return victim;
}

LineState
SetAssocCache::invalidate(std::uint64_t lineAddr)
{
    const std::size_t base = setOf(lineAddr) * params_.assoc;
    const std::uint32_t w = wayOf(base, tagOf(lineAddr));
    if (w == params_.assoc)
        return LineState::Invalid;
    tags_[base + w] = 0;
    return lines_[base + w].state;
}

void
SetAssocCache::flushAll()
{
    // Zeroing an untouched array would fault in every page of it.
    if (empty_)
        return;
    std::memset(tags_, 0,
                static_cast<std::size_t>(numSets_) * params_.assoc
                    * sizeof(std::uint64_t));
    empty_ = true;
}

} // namespace cxlmemo
