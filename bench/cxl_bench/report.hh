/**
 * @file
 * What one benchmark child reports: correctness-gate tallies, metric
 * values and the raw samples behind them, and how they are printed.
 *
 * The last line of a child's standard output is one JSON object with
 * exactly the keys correct, attempted, failed and metrics; the lines
 * before it are `workload metric value unit` rows for people and one
 * `cxl-bench-samples {...}` line that the full-set mode reads back.
 */

#ifndef CXL_BENCH_REPORT_HH
#define CXL_BENCH_REPORT_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "support/json.hh"
#include "workloads.hh"

namespace cxl::bench
{

/** Shortest text that reads back as exactly @p v. */
inline std::string
exactNumber(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values;
    std::map<std::string, std::vector<double>> samples;

    /** Count one gated operation; a failure is counted, not fatal. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "cxl_bench: gate failed: %s\n",
                         what.c_str());
        }
    }

    void set(const std::string &name, double v) { values[name] = v; }
};

/** Unit of a metric name from either table ("" if unknown). */
inline const char *
metricUnit(const std::string &name)
{
    for (const EndToEndMetric &m : endToEndMetrics()) {
        if (name == m.name)
            return m.unit;
    }
    for (const LayerMetric &m : layerMetrics()) {
        if (name == m.name)
            return m.unit;
    }
    return "";
}

/**
 * Print @p r for @p workload: the human rows, the samples line, and
 * the final contract line carrying the end-to-end metrics (untraced)
 * or the per-layer metrics (traced).
 */
inline void
printReport(const std::string &workload, const Report &r, bool traced)
{
    std::vector<std::string> names;
    if (traced) {
        for (const LayerMetric &m : layerMetrics())
            names.push_back(m.name);
    } else {
        for (const EndToEndMetric &m : endToEndMetrics())
            names.push_back(m.name);
    }

    JsonObject metrics;
    for (const std::string &name : names) {
        const auto it = r.values.find(name);
        const double v = it == r.values.end() ? 0.0 : it->second;
        std::printf("%s %s %s %s\n", workload.c_str(), name.c_str(),
                    exactNumber(v).c_str(), metricUnit(name));
        JsonObject m;
        m.raw("value", exactNumber(v)).str("unit", metricUnit(name));
        metrics.raw(name, m.render());
    }

    JsonObject samples;
    for (const auto &[name, values] : r.samples) {
        std::vector<std::string> items;
        for (double v : values)
            items.push_back(exactNumber(v));
        samples.raw(name, JsonObject::array(items));
    }
    std::printf("cxl-bench-samples %s\n", samples.render().c_str());

    JsonObject last;
    last.boolean("correct", r.failed == 0 && r.attempted > 0)
        .num("attempted", r.attempted)
        .num("failed", r.failed)
        .raw("metrics", metrics.render());
    std::printf("%s\n", last.render().c_str());
    std::fflush(stdout);
}

} // namespace cxl::bench

#endif // CXL_BENCH_REPORT_HH
