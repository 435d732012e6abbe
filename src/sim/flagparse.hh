/**
 * @file
 * The argv engine behind `memo` and the benches. Each command-line flag
 * is one Flag row: its name and alias, where its value goes, the value
 * type and range, the modes that accept it and one line of help. From
 * that table come parse, the options section of --help and the mode
 * checks. It sits on the spec engine: the same Range and Name rows, the
 * same whole-string number parsers and the same number formatting.
 */

#ifndef CXLMEMO_SIM_FLAGPARSE_HH
#define CXLMEMO_SIM_FLAGPARSE_HH

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/specparse.hh"

namespace cxlmemo
{
namespace specparse
{

/** A size like "16K", "4M", "1G" or "512" (bytes). */
inline std::optional<std::uint64_t>
parseSize(const std::string &text)
{
    std::uint64_t mult = 1;
    std::string digits = text;
    const char suffix = text.empty() ? '\0' : static_cast<char>(
        std::toupper(static_cast<unsigned char>(text.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        mult = suffix == 'K' ? kiB : suffix == 'M' ? miB : giB;
        digits.pop_back();
    }
    std::uint64_t value = 0;
    if (!parseU64(digits, value) || value > UINT64_MAX / mult)
        return std::nullopt;
    return value * mult;
}

/** A list or range of sizes: "8", "1,2,4", or "1-32" (powers-of-two
 *  steps from the low end, plus the exact high end). */
inline std::optional<std::vector<std::uint64_t>>
parseListSpec(const std::string &text)
{
    std::vector<std::uint64_t> out;
    const auto dash = text.find('-');
    if (dash != std::string::npos) {
        const auto lo = parseSize(text.substr(0, dash));
        const auto hi = parseSize(text.substr(dash + 1));
        if (!lo || !hi || *lo == 0 || *lo > *hi)
            return std::nullopt;
        // Doubling past hi / 2 would wrap a 64-bit value back to 0.
        for (std::uint64_t v = *lo; v < *hi; v = v > *hi / 2 ? *hi : v * 2)
            out.push_back(v);
        out.push_back(*hi);
        return out;
    }
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto v = parseSize(item);
        if (!v)
            return std::nullopt;
        out.push_back(*v);
    }
    if (out.empty())
        return std::nullopt;
    return out;
}

/** @p bytes as "4K"/"64M"/"8G" when exact, else as digits. */
inline std::string
formatSize(std::uint64_t bytes)
{
    static constexpr std::pair<std::uint64_t, char> units[] = {
        {giB, 'G'}, {miB, 'M'}, {kiB, 'K'}};
    for (auto [unit, suffix] : units)
        if (bytes >= unit && bytes % unit == 0)
            return std::to_string(bytes / unit) + suffix;
    return std::to_string(bytes);
}

/** What a flag takes. */
enum class Arg : std::uint8_t
{
    Switch,   //!< no value: sets its bool, or calls take
    Stop,     //!< no value: calls take, then parsing ends unchecked
    Text,     //!< any string
    Size,     //!< a size in range
    SizeList, //!< a list or range of sizes, each in range and a
              //!< multiple of step
    Enum,     //!< one of names
    Real,     //!< a finite number in range
    Call,     //!< a value handed to take
};

/** The modes that accept a flag (bit m: the mode whose value is m),
 *  and why the others refuse it. */
struct Modes
{
    std::uint32_t mask = ~0u;
    const char *why = "";
};

/** Where a flag's value lives. */
template <class Cfg>
using Slot = std::variant<std::monostate, bool Cfg::*, std::string Cfg::*,
                          std::uint32_t Cfg::*, std::uint64_t Cfg::*,
                          double Cfg::*, std::vector<std::uint32_t> Cfg::*,
                          std::vector<std::uint64_t> Cfg::*, EnumRef<Cfg>>;

/** One command-line flag. */
template <class Cfg>
struct Flag
{
    const char *name;  //!< "--jobs"
    const char *alias; //!< "-j", or nullptr
    Arg arg;
    Slot<Cfg> slot;
    Range range;
    const char *meta; //!< the value's --help placeholder ("" for Enum:
                      //!< its names)
    const char *help; //!< one line of --help
    Modes modes = {};
    std::span<const Name> names = {}; //!< an Enum's values, aliases
                                      //!< after their first name
    std::uint64_t step = 1;           //!< SizeList element multiple
    /** The escape hatch of Switch, Stop and Call rows without a slot:
     *  false fails the flag, with @p error if it set one. */
    bool (*take)(Cfg &, const std::string &, std::string &error) = nullptr;
    /** When a given flag counts for the mode check (default: always). */
    bool (*active)(const Cfg &) = nullptr;
    /** More --help lines after the flag's own (a spec's key list). */
    std::string (*more)() = nullptr;
};

/** A flag table. */
template <class Cfg>
struct Argv
{
    std::span<const Flag<Cfg>> flags;
    /** The Enum flag whose value is the mode Flag::modes refers to. */
    const char *modeFlag = nullptr;
    /** Claims a token no flag names (true); false leaves it unknown,
     *  or fails it when @p error is set. @p at indexes the tokens
     *  after --opt=value splitting. */
    bool (*positional)(Cfg &, std::size_t at, const std::string &,
                       std::string &error) = nullptr;
};

/** The first name of @p value among @p names. */
inline const char *
nameOf(std::span<const Name> names, int value)
{
    for (const Name &n : names)
        if (n.value == value)
            return n.name;
    return "?";
}

/** The names of @p f without their aliases, "a|b|c". */
template <class Cfg>
std::string
choices(const Flag<Cfg> &f)
{
    std::string out;
    for (const Name &n : f.names)
        if (nameOf(f.names, n.value) == n.name)
            out += (out.empty() ? "" : "|") + std::string(n.name);
    return out;
}

inline bool
inRange(double v, const Range &r)
{
    return (r.loOpen ? v > r.lo : v >= r.lo)
           && (r.hiOpen ? v < r.hi : v <= r.hi);
}

/** The phrase a bad value's error ends with. */
template <class Cfg>
std::string
expects(const Flag<Cfg> &f)
{
    const bool sizes = f.arg == Arg::Size || f.arg == Arg::SizeList;
    const auto num = [sizes](double v) {
        return sizes ? formatSize(static_cast<std::uint64_t>(v))
                     : formatReal(v);
    };
    std::string range;
    if (f.range.hi != inf)
        range = " in [" + num(f.range.lo) + "," + num(f.range.hi) + "]";
    else if (f.range.lo > 0.0)
        range = " >= " + num(f.range.lo);
    switch (f.arg) {
      case Arg::Size:
        return "N[K|M|G]" + range;
      case Arg::SizeList:
        return "N, a,b,c or lo-hi, each" + range
               + (f.step > 1 ? " and a multiple of " + num(f.step) : "");
      case Arg::Enum:
        return choices(f);
      case Arg::Real:
        return "a number" + range;
      default:
        return f.meta;
    }
}

/** @p v is in @p f's range and fits its slot. */
template <class Cfg>
bool
fits(const Flag<Cfg> &f, double v)
{
    const bool narrow =
        std::holds_alternative<std::uint32_t Cfg::*>(f.slot)
        || std::holds_alternative<std::vector<std::uint32_t> Cfg::*>(f.slot);
    return inRange(v, f.range) && (!narrow || v <= 0xffffffffu);
}

/** Store text @p v into @p cfg; false when it does not fit the flag. */
template <class Cfg>
bool
store(const Flag<Cfg> &f, const std::string &v, Cfg &cfg, std::string &error)
{
    if (f.take)
        return f.take(cfg, v, error);
    switch (f.arg) {
      case Arg::Switch:
        cfg.*std::get<bool Cfg::*>(f.slot) = true;
        return true;
      case Arg::Text:
        cfg.*std::get<std::string Cfg::*>(f.slot) = v;
        return true;
      case Arg::Size: {
        const auto n = parseSize(v);
        if (!n || !fits(f, static_cast<double>(*n)))
            return false;
        if (auto m = std::get_if<std::uint32_t Cfg::*>(&f.slot))
            cfg.**m = static_cast<std::uint32_t>(*n);
        else
            cfg.*std::get<std::uint64_t Cfg::*>(f.slot) = *n;
        return true;
      }
      case Arg::SizeList: {
        const auto list = parseListSpec(v);
        if (!list)
            return false;
        for (std::uint64_t n : *list)
            if (!fits(f, static_cast<double>(n)) || n % f.step != 0)
                return false;
        if (auto m = std::get_if<std::vector<std::uint64_t> Cfg::*>(&f.slot))
            cfg.**m = *list;
        else
            cfg.*std::get<std::vector<std::uint32_t> Cfg::*>(f.slot) =
                std::vector<std::uint32_t>(list->begin(), list->end());
        return true;
      }
      case Arg::Enum:
        for (const Name &n : f.names) {
            if (v == n.name) {
                std::get<EnumRef<Cfg>>(f.slot).set(cfg, n.value);
                return true;
            }
        }
        return false;
      case Arg::Real: {
        double d = 0.0;
        if (!parseF(v, d) || !std::isfinite(d) || !inRange(d, f.range))
            return false;
        cfg.*std::get<double Cfg::*>(f.slot) = d;
        return true;
      }
      default:
        return false;
    }
}

template <class Cfg>
const Flag<Cfg> *
findFlag(const Argv<Cfg> &t, const std::string &token)
{
    for (const Flag<Cfg> &f : t.flags)
        if (token == f.name || (f.alias && token == f.alias))
            return &f;
    return nullptr;
}

/**
 * Parse @p rawArgs over @p cfg: each token names a flag (or its alias)
 * or goes to the table's positional hook; "--opt=value" is read as
 * "--opt value". Then every given flag must be accepted by the mode
 * the config ended in.
 * @return std::nullopt plus a one-line error naming the flag.
 */
template <class Cfg>
std::optional<Cfg>
parseArgv(const Argv<Cfg> &t, const std::vector<std::string> &rawArgs,
          std::string &error, Cfg cfg = {})
{
    // Only tokens starting with "--" split, at their first '=': spec
    // values (--fault-spec crc=1e-4) keep theirs.
    std::vector<std::string> args;
    for (const std::string &a : rawArgs) {
        const auto eq = a.find('=');
        if (a.size() > 2 && a.compare(0, 2, "--") == 0
            && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    error.clear();
    std::vector<bool> given(t.flags.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const Flag<Cfg> *f = findFlag(t, a);
        if (f == nullptr) {
            if (t.positional && t.positional(cfg, i, a, error))
                continue;
            if (error.empty())
                error = "unknown argument: " + a;
            return std::nullopt;
        }
        std::string value;
        if (f->arg != Arg::Switch && f->arg != Arg::Stop) {
            if (i + 1 >= args.size()) {
                error = "missing value after " + a;
                return std::nullopt;
            }
            value = args[++i];
        }
        if (!store(*f, value, cfg, error)) {
            if (error.empty())
                error = "bad " + std::string(f->name) + ": " + value
                        + " (expected " + expects(*f) + ")";
            return std::nullopt;
        }
        if (f->arg == Arg::Stop)
            return cfg;
        given[f - t.flags.data()] = true;
    }

    const Flag<Cfg> *modeFlag = t.modeFlag ? findFlag(t, t.modeFlag) : nullptr;
    if (modeFlag == nullptr)
        return cfg;
    const int mode = std::get<EnumRef<Cfg>>(modeFlag->slot).get(cfg);
    for (std::size_t r = 0; r < t.flags.size(); ++r) {
        const Flag<Cfg> &f = t.flags[r];
        if (!given[r] || (f.modes.mask >> mode & 1u)
            || (f.active && !f.active(cfg)))
            continue;
        const std::uint32_t m = f.modes.mask;
        error = std::string(f.name)
                + ((m & (m - 1)) == 0
                       ? " requires " + std::string(modeFlag->name) + " "
                             + nameOf(modeFlag->names, std::countr_zero(m))
                       : " does not apply in "
                             + std::string(nameOf(modeFlag->names, mode))
                             + " mode: " + f.modes.why);
        return std::nullopt;
    }
    return cfg;
}

/** Words of @p text after @p head, wrapped at @p width with following
 *  lines indented to @p col. */
inline std::string
wrap(std::string head, const std::string &text, std::size_t col,
     std::size_t width = 78)
{
    std::string out;
    if (head.size() + 1 > col) {
        out = head + "\n";
        head.clear();
    }
    head.resize(col, ' ');
    std::string line = head;
    bool empty = true;
    for (std::size_t b = 0, e = 0; b < text.size(); b = e + 1) {
        e = std::min(text.find(' ', b), text.size());
        const std::string word = text.substr(b, e - b);
        if (!empty && line.size() + 1 + word.size() > width) {
            out += line + "\n";
            line = std::string(col, ' ');
            empty = true;
        }
        line += (empty ? "" : " ") + word;
        empty = false;
    }
    return out + line + "\n";
}

/** The default of @p f's slot, or "" when it has none worth printing
 *  (off, empty, or outside the flag's own range). */
template <class Cfg>
std::string
defaultText(const Flag<Cfg> &f)
{
    const Cfg d{};
    std::string out;
    if (auto m = std::get_if<std::uint32_t Cfg::*>(&f.slot))
        return fits(f, d.**m) ? std::to_string(d.**m) : "";
    if (auto m = std::get_if<std::uint64_t Cfg::*>(&f.slot))
        return fits(f, static_cast<double>(d.**m)) ? std::to_string(d.**m)
                                                   : "";
    if (auto m = std::get_if<double Cfg::*>(&f.slot))
        return formatReal(d.**m);
    if (auto m = std::get_if<EnumRef<Cfg>>(&f.slot))
        return nameOf(f.names, m->get(d));
    if (auto m = std::get_if<std::vector<std::uint32_t> Cfg::*>(&f.slot))
        for (std::uint32_t v : d.**m)
            out += (out.empty() ? "" : ",") + formatSize(v);
    if (auto m = std::get_if<std::vector<std::uint64_t> Cfg::*>(&f.slot))
        for (std::uint64_t v : d.**m)
            out += (out.empty() ? "" : ",") + formatSize(v);
    return out;
}

/**
 * The options section of --help: per flag, "--name/alias META" and its
 * help, default and modes, then its more() lines.
 */
template <class Cfg>
std::string
usage(const Argv<Cfg> &t, std::size_t col = 24)
{
    const Flag<Cfg> *modeFlag = t.modeFlag ? findFlag(t, t.modeFlag) : nullptr;
    std::string out;
    for (const Flag<Cfg> &f : t.flags) {
        std::string head = "  " + std::string(f.name);
        if (f.alias)
            head += "/" + std::string(f.alias);
        const std::string meta = *f.meta || f.arg != Arg::Enum ? f.meta
                                                               : choices(f);
        if (!meta.empty())
            head += " " + meta;
        std::string text = f.help;
        const std::string dflt = defaultText(f);
        if (!dflt.empty())
            text += "; default " + dflt;
        std::string aliases;
        for (const Name &n : f.names)
            if (nameOf(f.names, n.value) != n.name)
                aliases += " " + std::string(n.name) + "="
                           + nameOf(f.names, n.value);
        if (!aliases.empty())
            text += "; aliases" + aliases;
        if (modeFlag && f.modes.mask != ~0u) {
            std::string only, not_;
            for (const Name &n : modeFlag->names) {
                if (nameOf(modeFlag->names, n.value) != n.name)
                    continue;
                std::string &list = f.modes.mask >> n.value & 1u ? only : not_;
                list += (list.empty() ? "" : " or ") + std::string(n.name);
            }
            text += only.find(' ') == std::string::npos
                        ? "; " + only + " mode only"
                        : "; not in " + not_ + " mode";
        }
        out += wrap(head, text, col) + (f.more ? f.more() : "");
    }
    return out;
}

} // namespace specparse
} // namespace cxlmemo

#endif // CXLMEMO_SIM_FLAGPARSE_HH
