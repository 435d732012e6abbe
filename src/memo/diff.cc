/**
 * @file
 * Implementation of `memo diff`: CSV parsing, row matching, exact
 * stack deltas and the regression verdict. See diff.hh for the
 * contract.
 */

#include "memo/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "memo/stationtier.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

using logging_detail::format;

namespace
{

/** Columns that identify *what* was measured rather than *how fast*.
 *  The intersection of this list with the actual header forms the
 *  row-matching key, so machine sweeps key on target/op/threads/...
 *  and pool runs key on host/port/role. */
const char *const kIdentityColumns[] = {
    "target", "op", "threads", "block", "wss", "path",
    "method", "batch", "host",  "port",  "role",
};

struct CsvTable
{
    std::vector<std::string> header;
    /** identity key -> per-column sums (and a row count) so repeated
     *  keys average instead of colliding. */
    struct Row
    {
        std::vector<double> sum;
        std::size_t n = 0;
    };
    std::map<std::string, Row> rows; //!< ordered: deterministic output
    std::unordered_map<std::string, std::size_t> col;

    bool has(const std::string &name) const
    {
        return col.find(name) != col.end();
    }
};

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        std::size_t comma = line.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(line.substr(pos));
            return out;
        }
        out.push_back(line.substr(pos, comma - pos));
        pos = comma + 1;
    }
}

/** Parse one `--csv` run output. Returns false + @p error on an
 *  empty/ragged file. Non-numeric cells (digests, verdict strings)
 *  simply sum as 0 -- the diff only ever reads numeric columns. */
bool
parseCsv(const std::string &text, const char *which, CsvTable &t,
         std::string &error)
{
    std::size_t pos = 0;
    bool sawHeader = false;
    std::vector<std::size_t> idCols;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        const std::vector<std::string> cells = splitCsvLine(line);
        if (!sawHeader) {
            t.header = cells;
            for (std::size_t i = 0; i < cells.size(); ++i)
                t.col.emplace(cells[i], i);
            for (const char *id : kIdentityColumns) {
                auto it = t.col.find(id);
                if (it != t.col.end())
                    idCols.push_back(it->second);
            }
            sawHeader = true;
            continue;
        }
        if (cells.size() != t.header.size()) {
            error = std::string("ragged CSV row in ") + which;
            return false;
        }
        std::string key;
        for (std::size_t c : idCols) {
            key += cells[c];
            key += '|';
        }
        CsvTable::Row &row = t.rows[key];
        if (row.sum.empty())
            row.sum.assign(cells.size(), 0.0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            row.sum[i] += std::strtod(cells[i].c_str(), nullptr);
        ++row.n;
    }
    if (!sawHeader || t.rows.empty()) {
        error = std::string("no data rows in ") + which;
        return false;
    }
    return true;
}

/** Mean of @p colName over the rows of @p t whose keys appear in
 *  @p keys. Missing column -> 0 (callers check has() first where it
 *  matters). */
double
meanOver(const CsvTable &t, const std::vector<std::string> &keys,
         const std::string &colName)
{
    auto it = t.col.find(colName);
    if (it == t.col.end() || keys.empty())
        return 0.0;
    double sum = 0.0;
    std::size_t n = 0;
    for (const std::string &k : keys) {
        const CsvTable::Row &row = t.rows.at(k);
        sum += row.sum[it->second];
        n += row.n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/** JSON string escaping for the few strings we emit (station names
 *  and verdict text -- no control characters in practice, but be
 *  correct anyway). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += format("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

DiffReport
diffRuns(const std::string &csvA, const std::string &csvB,
         const DiffOptions &opts)
{
    DiffReport r;

    CsvTable A, B;
    if (!parseCsv(csvA, "A", A, r.error)
        || !parseCsv(csvB, "B", B, r.error))
        return r;
    if (A.header != B.header) {
        r.error = "CSV headers differ (compare runs with the same "
                  "mode and flags)";
        return r;
    }

    // The two supported stack tiers: the machine attribution tier
    // (attrib_<station>_{q,s}_ns) and the pool fabric tier
    // (<station>_{q,s}_ns). Station display names keep their dots so
    // verdicts read "cxl.backend", not "cxl_backend".
    struct StackCol
    {
        std::string name, qCol, sCol;
    };
    std::vector<StackCol> stack;
    std::string totalCol;
    auto useTier = [&](const auto &tier) {
        totalCol = tier.totalColumn();
        tier.forEachStation([&](auto id, const std::string &c) {
            stack.push_back({stationName(id), c + "_q_ns", c + "_s_ns"});
        });
    };
    if (A.has(attribTier.totalColumn())) {
        useTier(attribTier);
    } else if (A.has(fabricTier.totalColumn())) {
        useTier(fabricTier);
    } else {
        r.error = "no attribution tier in the CSVs (produce them with "
                  "--attrib or --mode report and --csv)";
        return r;
    }

    // Matched identity keys, in A's (sorted-map) order.
    std::vector<std::string> keys;
    for (const auto &kv : A.rows)
        if (B.rows.find(kv.first) != B.rows.end())
            keys.push_back(kv.first);
    if (keys.empty()) {
        r.error = "no matching rows between the two CSVs";
        return r;
    }
    r.rows = keys.size();

    // Comparison basis: a real tail percentile when both runs carry
    // one (histogram tier, or the pool's always-on read_p99_ns),
    // otherwise the attribution mean.
    const char *p99Col = nullptr;
    if (A.has("lat_p99_ns") && meanOver(A, keys, "lat_p99_ns") > 0.0
        && meanOver(B, keys, "lat_p99_ns") > 0.0)
        p99Col = "lat_p99_ns";
    else if (A.has("read_p99_ns"))
        p99Col = "read_p99_ns";
    if (p99Col != nullptr) {
        r.basis = "p99";
        r.aNs = meanOver(A, keys, p99Col);
        r.bNs = meanOver(B, keys, p99Col);
    } else {
        r.basis = "mean_total";
        r.aNs = meanOver(A, keys, totalCol);
        r.bNs = meanOver(B, keys, totalCol);
    }
    r.shiftPct = r.aNs > 0.0 ? 100.0 * (r.bNs - r.aNs) / r.aNs : 0.0;

    // Per-station deltas of the exact stack.
    for (const StackCol &c : stack) {
        StationDelta d;
        d.station = c.name;
        d.aQ = meanOver(A, keys, c.qCol);
        d.aS = meanOver(A, keys, c.sCol);
        d.bQ = meanOver(B, keys, c.qCol);
        d.bS = meanOver(B, keys, c.sCol);
        d.deltaQ = d.bQ - d.aQ;
        d.deltaS = d.bS - d.aS;
        d.deltaNs = d.deltaQ + d.deltaS;
        const double base = d.aQ + d.aS;
        d.pct = base > 0.0 ? 100.0 * d.deltaNs / base : 0.0;
        r.stations.push_back(d);
    }
    std::stable_sort(r.stations.begin(), r.stations.end(),
                     [](const StationDelta &x, const StationDelta &y) {
                         return std::fabs(x.deltaNs)
                                > std::fabs(y.deltaNs);
                     });

    // Verdict.
    if (std::fabs(r.shiftPct) < opts.thresholdPct) {
        r.regime = "no-change";
        r.verdict = format("no significant shift (%+.1f%% within the "
                           "%.1f%% band)",
                           r.shiftPct, opts.thresholdPct);
        r.ok = true;
        return r;
    }
    r.regime = r.shiftPct < 0.0 ? "improvement" : "regression";

    double stackDelta = 0.0;
    for (const StationDelta &d : r.stations)
        stackDelta += d.deltaNs;
    const StationDelta &top = r.stations.front();
    const double explained =
        stackDelta != 0.0 ? 100.0 * top.deltaNs / stackDelta : 0.0;

    // Queue-vs-service split of the top mover: service moving with
    // queueing flat means the component itself got slower; queueing
    // moving with service flat means contention, not speed.
    const char *split;
    const char *moved;
    if (std::fabs(top.deltaQ) < 0.25 * std::fabs(top.deltaS)) {
        split = "queue share unchanged -> component got slower, not "
                "more contended";
        moved = "service";
    } else if (std::fabs(top.deltaS) < 0.25 * std::fabs(top.deltaQ)) {
        split = "queueing moved with service flat -> more contended, "
                "not slower";
        moved = "queue";
    } else {
        split = "queueing and service both moved -> load shift on a "
                "slower component";
        moved = std::fabs(top.deltaS) >= std::fabs(top.deltaQ)
                    ? "service" : "queue";
    }
    // Relative when the base is nonzero; absolute ns when the
    // component had no queue/service time at all in A (a percent of
    // zero is undefined, and "+0%" would read as "didn't move").
    const double movedBase = *moved == 's' ? top.aS : top.aQ;
    const double movedDelta = *moved == 's' ? top.deltaS : top.deltaQ;
    const std::string movedBy =
        movedBase > 0.0 ? format("%+.0f%%", 100.0 * movedDelta / movedBase)
                        : format("%+.0f ns", movedDelta);
    r.verdict = format("%s %s %s explains %.0f%% of the %s shift; %s",
                       top.station.c_str(), moved, movedBy.c_str(),
                       explained, r.basis.c_str(), split);
    r.ok = true;
    return r;
}

std::string
diffReportText(const DiffReport &r)
{
    std::string out =
        format("memo diff: %zu matched row%s\n", r.rows,
               r.rows == 1 ? "" : "s");
    out += format("  %s: %.1f ns -> %.1f ns (%+.1f%%)\n", r.basis.c_str(),
                  r.aNs, r.bNs, r.shiftPct);
    out += "  station deltas (ns/request, biggest mover first):\n";
    for (const StationDelta &d : r.stations) {
        if (d.aQ + d.aS == 0.0 && d.bQ + d.bS == 0.0)
            continue; // station idle in both runs: noise
        out += format("    %-12s %+8.1f  (q %+.1f, s %+.1f)  [%+.1f%%]\n",
                      d.station.c_str(), d.deltaNs, d.deltaQ, d.deltaS,
                      d.pct);
    }
    out += format("  verdict: %s: %s\n", r.regime.c_str(),
                  r.verdict.c_str());
    return out;
}

std::string
diffReportJson(const DiffReport &r)
{
    std::string out = "{";
    out += format("\"regime\":\"%s\",", jsonEscape(r.regime).c_str());
    out += format("\"basis\":\"%s\",", jsonEscape(r.basis).c_str());
    out += format("\"a_ns\":%.3f,", r.aNs);
    out += format("\"b_ns\":%.3f,", r.bNs);
    out += format("\"shift_pct\":%.3f,", r.shiftPct);
    out += format("\"matched_rows\":%zu,", r.rows);
    if (!r.stations.empty()) {
        const StationDelta &top = r.stations.front();
        out += format("\"top_station\":\"%s\",",
                      jsonEscape(top.station).c_str());
        out += format("\"top_delta_ns\":%.3f,", top.deltaNs);
        out += format("\"top_queue_delta_ns\":%.3f,", top.deltaQ);
        out += format("\"top_service_delta_ns\":%.3f,", top.deltaS);
    }
    out += format("\"verdict\":\"%s\",", jsonEscape(r.verdict).c_str());
    out += "\"stations\":[";
    bool first = true;
    for (const StationDelta &d : r.stations) {
        if (!first)
            out += ",";
        first = false;
        out += format("{\"station\":\"%s\",\"a_q_ns\":%.3f,"
                      "\"a_s_ns\":%.3f,\"b_q_ns\":%.3f,\"b_s_ns\":%.3f,"
                      "\"delta_ns\":%.3f}",
                      jsonEscape(d.station).c_str(), d.aQ, d.aS, d.bQ,
                      d.bS, d.deltaNs);
    }
    out += "]}\n";
    return out;
}

} // namespace memo
} // namespace cxlmemo
