/**
 * @file
 * In-memory spans recorded around calls into the program's layers,
 * written out as one JSON document when the run ends.
 *
 * A span has an id, the id of the span that caused it, a name and a
 * start/end on the steady clock.  Calls that happen millions of times
 * are not spanned one by one: each span carries one aggregated child
 * record per layer, holding the call count, the items those calls
 * handled and their summed nanoseconds.  A span's self time is its
 * duration minus its children's summed time.
 */

#ifndef CXL_BENCH_TRACE_HH
#define CXL_BENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hh"

namespace cxl::bench
{

/** Steady-clock nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p startNs. */
inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/**
 * Whether one more repetition, taking the mean time of the @p done
 * repetitions since @p startNs, still ends within @p seconds of it.
 * Stopping here, rather than once the window is spent, keeps a run's
 * length near its window instead of one repetition past it.
 */
inline bool
fitsAnother(std::int64_t startNs, int done, double seconds)
{
    const double elapsed = secondsSince(startNs);
    return elapsed + (done > 0 ? elapsed / done : 0.0) <= seconds;
}

/** Aggregated calls into one layer. */
struct LayerAcc {
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
    std::uint64_t ns = 0;

    /** Count one call that handled @p n_items in @p dur_ns. */
    void
    add(std::uint64_t n_items, std::int64_t dur_ns)
    {
        ++calls;
        items += n_items;
        ns += static_cast<std::uint64_t>(dur_ns);
    }

    LayerAcc &
    operator+=(const LayerAcc &o)
    {
        calls += o.calls;
        items += o.items;
        ns += o.ns;
        return *this;
    }
};

/** One child record of a span: a layer and its aggregate. */
struct ChildRecord {
    std::string layer;
    LayerAcc acc;
};

struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::vector<std::pair<std::string, std::uint64_t>> attrs;
    std::vector<ChildRecord> children;

    std::uint64_t
    childNs() const
    {
        std::uint64_t sum = 0;
        for (const ChildRecord &c : children)
            sum += c.acc.ns;
        return sum;
    }
};

/** The span log of one benchmark child. */
class Trace
{
  public:
    /** Open a span; returns its id. */
    std::uint32_t
    open(const std::string &name, std::uint32_t parent)
    {
        Span s;
        s.id = static_cast<std::uint32_t>(spans_.size() + 1);
        s.parent = parent;
        s.name = name;
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    Span &at(std::uint32_t id) { return spans_[id - 1]; }

    void close(std::uint32_t id) { at(id).endNs = nowNs(); }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * The "cxl-bench-trace/v1" document.  self_ns is a span's
     * duration minus its child spans and child records, floored at 0
     * (children of concurrent clients can overlap).
     */
    std::string
    renderJson(const std::string &workload) const
    {
        std::vector<std::uint64_t> childSpanNs(spans_.size() + 1, 0);
        for (const Span &s : spans_)
            childSpanNs[s.parent] +=
                static_cast<std::uint64_t>(s.endNs - s.startNs);
        std::vector<std::string> rows;
        rows.reserve(spans_.size());
        for (const Span &s : spans_) {
            const std::uint64_t dur =
                static_cast<std::uint64_t>(s.endNs - s.startNs);
            const std::uint64_t child = s.childNs() + childSpanNs[s.id];
            JsonObject row;
            row.num("id", std::uint64_t{s.id})
                .num("parent", std::uint64_t{s.parent})
                .str("name", s.name)
                .num("start_ns", static_cast<std::uint64_t>(
                                     s.startNs - spans_.front().startNs))
                .num("dur_ns", dur)
                .num("self_ns", dur > child ? dur - child : 0);
            for (const auto &[key, value] : s.attrs)
                row.num(key, value);
            std::vector<std::string> kids;
            for (const ChildRecord &c : s.children) {
                JsonObject k;
                k.str("layer", c.layer)
                    .num("calls", c.acc.calls)
                    .num("items", c.acc.items)
                    .num("ns", c.acc.ns);
                kids.push_back(k.render());
            }
            row.raw("children", JsonObject::array(kids));
            rows.push_back(row.render());
        }
        JsonObject doc;
        doc.str("schema", "cxl-bench-trace/v1")
            .str("workload", workload)
            .raw("spans", JsonObject::array(rows));
        return doc.render();
    }

    /** Write renderJson(@p workload) to @p path; false on failure. */
    bool
    write(const std::string &path, const std::string &workload) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::string doc = renderJson(workload) + "\n";
        const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) ==
                        doc.size();
        return std::fclose(f) == 0 && ok;
    }

  private:
    std::vector<Span> spans_;
};

} // namespace cxl::bench

#endif // CXL_BENCH_TRACE_HH
