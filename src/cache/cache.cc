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
    CXLMEMO_ASSERT(params_.sizeBytes >= cachelineBytes * params_.assoc,
                   "cache smaller than one set");
    const auto raw_sets = static_cast<std::uint32_t>(
        params_.sizeBytes / (cachelineBytes * params_.assoc));
    // Power-of-two sets keep indexing a mask, like real hardware.
    numSets_ = roundDownPow2(raw_sets);

    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * params_.assoc;
    const std::size_t bytes =
        ways * (2 * sizeof(std::uint64_t) + sizeof(Line));
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
    stamps_ = tags_ + ways;
    lines_ = reinterpret_cast<Line *>(stamps_ + ways);
}

std::size_t
SetAssocCache::setBase(std::uint64_t lineAddr) const
{
    // Mix the node bits (bit 34+ of the line address) into the index
    // so lines from different NUMA nodes do not systematically alias.
    const std::uint64_t mixed = lineAddr ^ (lineAddr >> 17);
    return static_cast<std::size_t>(mixed & (numSets_ - 1))
           * params_.assoc;
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

SetAssocCache::Line *
SetAssocCache::find(std::uint64_t lineAddr)
{
    const std::size_t base = setBase(lineAddr);
    const std::uint32_t w = wayOf(base, tagOf(lineAddr));
    if (w == params_.assoc)
        return nullptr;
    stamps_[base + w] = ++useClock_;
    return &lines_[base + w];
}

const SetAssocCache::Line *
SetAssocCache::peek(std::uint64_t lineAddr) const
{
    const std::size_t base = setBase(lineAddr);
    const std::uint32_t w = wayOf(base, tagOf(lineAddr));
    return w == params_.assoc ? nullptr : &lines_[base + w];
}

std::optional<SetAssocCache::Victim>
SetAssocCache::insert(std::uint64_t lineAddr, LineState state,
                      std::uint16_t owner, bool prefetched)
{
    CXLMEMO_ASSERT(state != LineState::Invalid, "inserting invalid line");
    const std::uint64_t tag = tagOf(lineAddr);
    const std::size_t base = setBase(lineAddr);
    std::uint64_t *tags = &tags_[base];
    const std::uint32_t assoc = params_.assoc;

    // The first hole wins, even over a copy of this line further on.
    std::uint32_t w = 0;
    while (w < assoc && tags[w] != 0 && tags[w] != tag)
        ++w;
    if (w < assoc && tags[w] == tag) {
        // Re-insert of a present line: just merge the state.
        Line &line = lines_[base + w];
        line.state = state;
        line.owner = owner;
        stamps_[base + w] = ++useClock_;
        return std::nullopt;
    }

    std::optional<Victim> victim;
    if (w == assoc) {
        // Full set: the least recently used way, lowest way on a tie.
        const std::uint64_t *stamps = &stamps_[base];
        w = 0;
        for (std::uint32_t v = 1; v < assoc; ++v) {
            if (stamps[v] < stamps[w])
                w = v;
        }
        const Line &old = lines_[base + w];
        victim = Victim{tags[w] - 1, old.state, old.owner};
        stats_.evictions++;
        if (old.state == LineState::Modified)
            stats_.dirtyEvictions++;
    }

    tags[w] = tag;
    stamps_[base + w] = ++useClock_;
    lines_[base + w] = Line{state, prefetched, owner};
    empty_ = false;
    return victim;
}

LineState
SetAssocCache::invalidate(std::uint64_t lineAddr)
{
    const std::size_t base = setBase(lineAddr);
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
