/**
 * @file
 * The two station-stack tiers of the memo CSV, each one description:
 *
 *  - the machine attribution tier, per station
 *    `attrib_<station>_{q_ns,s_ns,util}`, then `attrib_reqs`,
 *    `attrib_total_ns`, `attrib_other_ns`, `attrib_little_ok` and
 *    `attrib_bottleneck`;
 *  - the pool's per-port fabric tier, per station
 *    `<station>_{q_ns,s_ns,util}`, then `fabric_reqs` ...
 *    `fabric_little_ok` and `fabric_decomp_exact`.
 *
 * Stations come in enum order, dots in their names as underscores.
 * The description drives the CSV header, the row cells and the stack
 * columns `memo diff` reads back.
 */

#ifndef CXLMEMO_MEMO_STATIONTIER_HH
#define CXLMEMO_MEMO_STATIONTIER_HH

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>

#include "sim/attribution.hh"
#include "sim/fabric_attrib.hh"

namespace cxlmemo
{
namespace memo
{

template <typename Id>
struct StationTier
{
    const char *prefix;  //!< per-station column prefix
    const char *summary; //!< summary column prefix
    const char *last;    //!< trailing summary column, after summary

    /** Station @p id's column stem, e.g. "attrib_cxl_backend". */
    std::string
    stem(Id id) const
    {
        std::string c = stationName(id);
        std::replace(c.begin(), c.end(), '.', '_');
        return prefix + c;
    }

    std::string
    totalColumn() const
    {
        return std::string(summary) + "total_ns";
    }

    /** Call @p f(id, stem(id)) for every station, in enum order. */
    template <typename F>
    void
    forEachStation(F &&f) const
    {
        for (std::size_t i = 0; i < StationRollup<Id>::size; ++i) {
            const Id id = StationRollup<Id>::idAt(i);
            f(id, stem(id));
        }
    }

    /** The tier's CSV header fragment, leading comma included. */
    std::string
    columns() const
    {
        std::string cols;
        forEachStation([&cols](Id, const std::string &c) {
            cols += "," + c + "_q_ns," + c + "_s_ns," + c + "_util";
        });
        for (const char *col :
             {"reqs", "total_ns", "other_ns", "little_ok", last})
            cols += std::string(",") + summary + col;
        return cols;
    }

    /** One row's cells over a window of @p elapsed ticks; @p lastCell
     *  fills the trailing column. */
    void
    printCells(const StationRollup<Id> &r, Tick elapsed, bool littleOk,
               const char *lastCell) const
    {
        for (std::size_t i = 0; i < StationRollup<Id>::size; ++i) {
            const Id id = StationRollup<Id>::idAt(i);
            std::printf(",%.2f,%.2f,%.4f", r.componentQueueNs(id),
                        r.componentServiceNs(id), r.util(id, elapsed));
        }
        std::printf(",%llu,%.2f,%.2f,%d,%s",
                    (unsigned long long)r.reqCount, r.avgTotalNs(),
                    r.otherNs(), littleOk ? 1 : 0, lastCell);
    }
};

inline constexpr StationTier<StationId> attribTier{"attrib_", "attrib_",
                                                   "bottleneck"};
inline constexpr StationTier<FabricStation> fabricTier{"", "fabric_",
                                                       "decomp_exact"};

} // namespace memo
} // namespace cxlmemo

#endif // CXLMEMO_MEMO_STATIONTIER_HH
