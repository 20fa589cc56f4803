/**
 * @file
 * Order statistics over benchmark samples: medians, latency
 * percentiles and the quartiles the compare mode and the acceptance
 * spread check use.
 */

#ifndef CXL_BENCH_STATS_HH
#define CXL_BENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace cxl::bench
{

/**
 * Percentile @p p in [0, 100] by linear interpolation between closest
 * ranks (0 for an empty sample).
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

/** First quartile, median and third quartile. */
struct Quartiles {
    double q1 = 0;
    double med = 0;
    double q3 = 0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(values, n=4), so the spreads this tool prints
 * are the ones a reader recomputes from the result files.  A single
 * sample is its own quartiles.
 */
inline Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 1) {
        q.q1 = q.med = q.q3 = v[0];
        return q;
    }
    // Signed on purpose: after the clamp, delta may fall outside
    // [0, 4] and extrapolate, exactly as the Python reference does.
    auto cut = [&](long i) {
        const long m = static_cast<long>(n) + 1;
        const long j =
            std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
        const long delta = i * m - j * 4;
        return (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
    };
    q.q1 = cut(1);
    q.med = median(v);
    q.q3 = cut(3);
    return q;
}

} // namespace cxl::bench

#endif // CXL_BENCH_STATS_HH
