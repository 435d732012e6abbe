/**
 * @file
 * The engine behind the key=value spec grammars (--fault-spec,
 * --qos-spec, --chaos-spec, --pool-spec). Each spec declares one Field
 * per key; from that table come parse, toString, the per-field checks
 * of validate and the `memo --help` key lists. A value that does not
 * fit its member (an integer too wide, a double not finite, an ns
 * value off the clock) fails; it is never clamped or wrapped.
 */

#ifndef CXLMEMO_SIM_SPECPARSE_HH
#define CXLMEMO_SIM_SPECPARSE_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>

#include "sim/types.hh"

namespace cxlmemo
{
namespace specparse
{

/** A whole-string floating-point value. */
inline bool
parseF(const std::string &v, double &out)
{
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return !v.empty() && end == v.c_str() + v.size();
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
    out = std::strtoull(v.c_str(), &end, 10);
    return end == v.c_str() + v.size() && errno != ERANGE;
}

/** The value type of a key. */
enum class Type : std::uint8_t
{
    U32,    //!< unsigned integer below 2^32
    U64,    //!< unsigned integer below 2^64
    Real,   //!< finite double
    Ns,     //!< ns written as a double, stored as a Tick
    NsReal, //!< ns kept as a double
    Host,   //!< host index, or -1 for off
    Enum,   //!< one of a list of names
};

constexpr double inf = std::numeric_limits<double>::infinity();

/** The largest ns value a key may hold: 2^60 ticks (~13 simulated
 *  days), so a sum of a few such times still fits the 64-bit clock. */
constexpr double maxNs =
    static_cast<double>(Tick(1) << 60) / static_cast<double>(tickPerNs);

/** What validate() accepts, in the key's unit (ns for ns types); an
 *  open end excludes its bound. */
struct Range
{
    double lo = 0.0;
    double hi = inf;
    bool loOpen = false;
    bool hiOpen = false;
};

constexpr Range positive{0.0, inf, true}; //!< an ns key: >= 1 tick
constexpr Range anyTime{0.0, maxNs};      //!< a schedule time

/** One value of an Enum key. */
struct Name
{
    const char *name;
    int value;
};

/** Reads and writes an enum member as an int. */
template <class Spec>
struct EnumRef
{
    int (*get)(const Spec &);
    void (*set)(Spec &, int);
};

/** The EnumRef of an enum member: enumRef<&QosSpec::policy>(). */
template <auto member>
auto
enumRef()
{
    return []<class Spec, class E>(E Spec::*) {
        return EnumRef<Spec>{
            [](const Spec &s) { return static_cast<int>(s.*member); },
            [](Spec &s, int v) { s.*member = static_cast<E>(v); }};
    }(member);
}

/** Where a key's value lives (a Tick is a std::uint64_t). */
template <class Spec>
using Member = std::variant<std::monostate, std::uint32_t Spec::*,
                            std::uint64_t Spec::*, double Spec::*,
                            std::int32_t Spec::*, EnumRef<Spec>>;

/** One key of a spec grammar. */
template <class Spec>
struct Field
{
    const char *key;
    Type type;
    Member<Spec> member;
    Range range; //!< checked by validate(); Host is [-1,65535], Enum any
    const char *help; //!< one line of `memo --help`
    std::span<const Name> names = {}; //!< the values of an Enum key
    /** A second member the key also sets (stall-ns sets both stall
     *  lengths); toString prints the first. */
    Member<Spec> also = {};
    /** An alias, parsed but neither printed nor checked, because its
     *  members have keys of their own (credits= sets rd-credits and
     *  wr-credits). */
    bool parseOnly = false;
};

/** A spec's key table, and the name its errors carry. */
template <class Spec>
struct Grammar
{
    const char *name; //!< "fault-spec", ...
    std::span<const Field<Spec>> fields;
};

/** %g when it round-trips, else the fewest digits that do: output
 *  that was exact keeps its bytes, and none is lossy. */
inline std::string
formatReal(double v)
{
    char buf[32];
    for (int prec = 6;; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (prec >= 17 || std::strtod(buf, nullptr) == v)
            return buf;
    }
}

/** What a key takes: its --help placeholder, or (@p brief false) the
 *  phrase a parse error ends with. */
template <class Spec>
std::string
expects(const Field<Spec> &f, bool brief)
{
    static const char *const words[][2] = { // in Type order
        {"N", "an integer below 2^32"},
        {"N", "an integer below 2^64"},
        {"F", "a finite number"},
        {"NS", ""}, // below: names maxNs
        {"NS", "a finite number of ns"},
        {"HOST", "a host index or -1"},
    };
    if (f.type == Type::Ns && !brief)
        return "ns in [0," + formatReal(maxNs) + "]";
    if (f.type != Type::Enum)
        return words[static_cast<int>(f.type)][brief ? 0 : 1];
    std::string names;
    for (const Name &n : f.names)
        names += (names.empty() ? "" : "|") + std::string(n.name);
    return names;
}

/** Set member @p m from text @p v; false when it does not fit. */
template <class Spec>
bool
store(const Field<Spec> &f, const Member<Spec> &m, const std::string &v,
      Spec &s)
{
    double d = 0.0;
    std::uint64_t n = 0;
    switch (f.type) {
      case Type::U32:
        if (!parseU64(v, n) || n > 0xffffffffu)
            return false;
        s.*std::get<std::uint32_t Spec::*>(m) =
            static_cast<std::uint32_t>(n);
        return true;
      case Type::U64:
        return parseU64(v, s.*std::get<std::uint64_t Spec::*>(m));
      case Type::Real:
      case Type::NsReal:
        if (!parseF(v, d) || !std::isfinite(d))
            return false;
        s.*std::get<double Spec::*>(m) = d;
        return true;
      case Type::Ns:
        // Checked here, not in validate(): ticksFromNs() is undefined
        // for a value a Tick cannot hold.
        if (!parseF(v, d) || !(d >= 0.0 && d <= maxNs))
            return false;
        s.*std::get<std::uint64_t Spec::*>(m) = ticksFromNs(d);
        return true;
      case Type::Host:
        if (v != "-1" && (!parseU64(v, n) || n > 0xffff))
            return false;
        s.*std::get<std::int32_t Spec::*>(m) =
            v == "-1" ? -1 : static_cast<std::int32_t>(n);
        return true;
      case Type::Enum:
        for (const Name &name : f.names) {
            if (v == name.name) {
                std::get<EnumRef<Spec>>(m).set(s, name.value);
                return true;
            }
        }
    }
    return false;
}

/** The text toString() prints for member @p m. */
template <class Spec>
std::string
text(const Field<Spec> &f, const Member<Spec> &m, const Spec &s)
{
    switch (f.type) {
      case Type::U32:
        return std::to_string(s.*std::get<std::uint32_t Spec::*>(m));
      case Type::U64:
        return std::to_string(s.*std::get<std::uint64_t Spec::*>(m));
      case Type::Real:
      case Type::NsReal:
        return formatReal(s.*std::get<double Spec::*>(m));
      case Type::Ns:
        return formatReal(
            nsFromTicks(s.*std::get<std::uint64_t Spec::*>(m)));
      case Type::Host:
        return std::to_string(s.*std::get<std::int32_t Spec::*>(m));
      case Type::Enum:
        for (const Name &name : f.names)
            if (name.value == std::get<EnumRef<Spec>>(m).get(s))
                return name.name;
    }
    return "?";
}

/** Empty when member @p m holds a value its key accepts, else why
 *  not ("must be ..."). */
template <class Spec>
std::string
problem(const Field<Spec> &f, const Member<Spec> &m, const Spec &s)
{
    Range r = f.range;
    double v = 0.0;
    switch (f.type) {
      case Type::U32:
        v = s.*std::get<std::uint32_t Spec::*>(m);
        break;
      case Type::U64:
        v = static_cast<double>(s.*std::get<std::uint64_t Spec::*>(m));
        break;
      case Type::Real:
      case Type::NsReal:
        v = s.*std::get<double Spec::*>(m);
        break;
      case Type::Ns:
        v = nsFromTicks(s.*std::get<std::uint64_t Spec::*>(m));
        break;
      case Type::Host:
        v = s.*std::get<std::int32_t Spec::*>(m);
        r = {-1.0, 0xffff};
        break;
      case Type::Enum:
        return "";
    }
    if (!std::isfinite(v))
        return "must be finite";
    if (!(r.loOpen ? v > r.lo : v >= r.lo)
        || !(r.hiOpen ? v < r.hi : v <= r.hi))
        return std::string("must be in ") + (r.loOpen ? "(" : "[")
               + formatReal(r.lo) + "," + formatReal(r.hi)
               + (r.hiOpen || r.hi == inf ? ")" : "]");
    const bool ns = f.type == Type::Ns || f.type == Type::NsReal;
    if (ns && v > maxNs)
        return "must be at most " + formatReal(maxNs) + " ns";
    // A positive time that rounds to 0 ticks would reschedule its
    // event at the same tick forever.
    if (ns && r.loOpen && r.lo == 0.0 && ticksFromNs(v) == 0)
        return "must be at least one tick (" + formatReal(nsFromTicks(1))
               + " ns)";
    return "";
}

/**
 * The per-field half of Spec::validate().
 * @throw std::invalid_argument naming the first bad key.
 */
template <class Spec>
void
check(const Grammar<Spec> &g, const Spec &s)
{
    for (const Field<Spec> &f : g.fields) {
        for (const Member<Spec> *m : {&f.member, &f.also}) {
            if (f.parseOnly || std::holds_alternative<std::monostate>(*m))
                continue;
            const std::string why = problem(f, *m, s);
            if (!why.empty())
                throw std::invalid_argument(std::string(g.name) + ": "
                                            + f.key + " " + why);
        }
    }
}

/** Spec::toString(): every key but the aliases, in table order. */
template <class Spec>
std::string
print(const Grammar<Spec> &g, const Spec &s)
{
    std::string out;
    for (const Field<Spec> &f : g.fields)
        if (!f.parseOnly)
            out += (out.empty() ? "" : ",") + std::string(f.key) + "="
                   + text(f, f.member, s);
    return out;
}

/**
 * Spec::parse(): comma-separated key=value items over a default Spec
 * (empty items are skipped), then Spec::validate().
 * @return std::nullopt plus a one-line reason in @p error.
 */
template <class Spec>
std::optional<Spec>
parse(const Grammar<Spec> &g, const std::string &text, std::string &error)
{
    Spec spec;
    for (std::size_t begin = 0, end = 0; begin < text.size();
         begin = end + 1) {
        end = std::min(text.find(',', begin), text.size());
        const std::string item = text.substr(begin, end - begin);
        const std::size_t eq = item.find('=');
        if (item.empty())
            continue;
        if (eq == std::string::npos) {
            error = std::string(g.name) + " item needs key=value: " + item;
            return std::nullopt;
        }
        const std::string value = item.substr(eq + 1);
        const auto f = std::find_if(
            g.fields.begin(), g.fields.end(), [&](const Field<Spec> &fd) {
                return item.compare(0, eq, fd.key) == 0;
            });
        if (f == g.fields.end() || !store(*f, f->member, value, spec)
            || (!std::holds_alternative<std::monostate>(f->also)
                && !store(*f, f->also, value, spec))) {
            error = "bad " + std::string(g.name) + " item: " + item + " ("
                    + (f == g.fields.end() ? "unknown key"
                                           : "expected " + expects(*f, false))
                    + ")";
            return std::nullopt;
        }
    }
    try {
        spec.validate();
    } catch (const std::invalid_argument &e) {
        error = e.what();
        return std::nullopt;
    }
    return spec;
}

/** `memo --help` lines, "key=VALUE  help; default D", each after
 *  @p indent. */
template <class Spec>
std::string
usage(const Grammar<Spec> &g, const std::string &indent)
{
    std::size_t width = 0;
    for (const Field<Spec> &f : g.fields)
        width = std::max(width,
                         std::string(f.key).size() + expects(f, true).size());
    std::string out;
    for (const Field<Spec> &f : g.fields) {
        std::string head = std::string(f.key) + "=" + expects(f, true);
        head.resize(width + 3, ' ');
        out += indent + head + f.help
               + (f.parseOnly ? "" : "; default " + text(f, f.member, Spec{}))
               + "\n";
    }
    return out;
}

} // namespace specparse
} // namespace cxlmemo

#endif // CXLMEMO_SIM_SPECPARSE_HH
