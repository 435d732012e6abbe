/**
 * @file
 * Value parsers shared by the key=value spec grammars (--fault-spec,
 * --qos-spec, --chaos-spec, --pool-spec). A value parses only when the
 * whole string is a number that fits the field it is meant for: an
 * integer is range-checked before it is narrowed, never clamped or
 * wrapped, so a bad value fails as a bad spec item.
 */

#ifndef CXLMEMO_SIM_SPECPARSE_HH
#define CXLMEMO_SIM_SPECPARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace cxlmemo
{
namespace specparse
{

/** A whole-string floating-point value. */
inline bool
parseF(const std::string &v, double &out)
{
    if (v.empty())
        return false;
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end != v.c_str() + v.size())
        return false;
    out = d;
    return true;
}

/** A whole-string unsigned decimal below 2^64. */
inline bool
parseU64(const std::string &v, std::uint64_t &out)
{
    // strtoull would skip blanks and wrap a minus sign: "-1" -> 2^64-1.
    if (v.empty() || v[0] < '0' || v[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long u = std::strtoull(v.c_str(), &end, 10);
    if (end != v.c_str() + v.size() || errno == ERANGE)
        return false;
    out = u;
    return true;
}

/** parseU64 for a 32-bit field. */
inline bool
parseU32(const std::string &v, std::uint32_t &out)
{
    std::uint64_t u = 0;
    if (!parseU64(v, u) || u > std::numeric_limits<std::uint32_t>::max())
        return false;
    out = static_cast<std::uint32_t>(u);
    return true;
}

} // namespace specparse
} // namespace cxlmemo

#endif // CXLMEMO_SIM_SPECPARSE_HH
