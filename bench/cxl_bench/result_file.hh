/**
 * @file
 * Commit-stamped result files ("cxl-bench-result/v1") and the compare
 * mode that judges two of them.
 *
 * Provenance is read at run time: the git commit and dirty flag of
 * the working directory, the CPU count and model, and the compiler
 * and build flags this binary was built with.  A result from an
 * unoptimised, assert-enabled or sanitized build, from a dirty tree,
 * or from outside a git checkout is marked "valid": false, and
 * compare refuses it.
 */

#ifndef CXL_BENCH_RESULT_FILE_HH
#define CXL_BENCH_RESULT_FILE_HH

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "stats.hh"
#include "support/json.hh"
#include "support/json_parse.hh"
#include "workloads.hh"

namespace cxl::bench
{

/** Standard output of @p cmd with trailing whitespace trimmed ("" on
 * failure); waits for the command to end. */
inline std::string
commandOutput(const char *cmd, bool &ok)
{
    ok = false;
    std::FILE *p = ::popen(cmd, "r");
    if (!p)
        return "";
    std::string out;
    char buf[256];
    while (std::size_t n = std::fread(buf, 1, sizeof buf, p))
        out.append(buf, n);
    ok = ::pclose(p) == 0;
    while (!out.empty() &&
           std::isspace(static_cast<unsigned char>(out.back())))
        out.pop_back();
    return out;
}

inline std::string
cpuModel()
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f)) {
        const std::string s(line);
        if (s.rfind("model name", 0) == 0) {
            const std::size_t colon = s.find(':');
            model = s.substr(colon + 2);
            while (!model.empty() && model.back() == '\n')
                model.pop_back();
            break;
        }
    }
    std::fclose(f);
    return model;
}

/** Where a result came from. */
struct Provenance {
    std::string commit;
    bool dirty = false;
    long nproc = 0;
    std::string cpu;
    std::string compiler;
    std::string buildType;
    bool optimized = false;
    bool ndebug = false;
    std::string sanitizer; ///< "" when none
    std::size_t threads = 0;
    std::uint64_t seed = 0;
    double seconds = 0;     ///< --seconds of every child
    double wallSeconds = 0; ///< the whole set
    std::vector<std::string> invalidBecause;

    bool valid() const { return invalidBecause.empty(); }
};

/** Provenance of this binary in the current directory.  The build
 * facts are passed in from the translation unit that knows them. */
inline Provenance
gatherProvenance(const char *compiler, const char *buildType,
                 bool optimized, bool ndebug, const char *sanitizer)
{
    Provenance p;
    bool ok = false;
    p.commit = commandOutput("git rev-parse HEAD 2>/dev/null", ok);
    if (!ok || p.commit.empty()) {
        p.commit = "unknown";
        p.invalidBecause.push_back("not a git checkout");
    } else {
        const std::string status = commandOutput(
            "git status --porcelain --untracked-files=no 2>/dev/null", ok);
        p.dirty = !ok || !status.empty();
        if (p.dirty)
            p.invalidBecause.push_back("dirty tree");
    }
    p.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    p.cpu = cpuModel();
    p.compiler = compiler;
    p.buildType = buildType;
    p.optimized = optimized;
    p.ndebug = ndebug;
    p.sanitizer = sanitizer;
    if (!optimized)
        p.invalidBecause.push_back("unoptimised build");
    if (!ndebug)
        p.invalidBecause.push_back("asserts enabled");
    if (!p.sanitizer.empty())
        p.invalidBecause.push_back("sanitized build");
    return p;
}

inline std::string
renderProvenance(const Provenance &p)
{
    std::vector<std::string> why;
    for (const std::string &w : p.invalidBecause)
        why.push_back(JsonObject::quote(w));
    JsonObject o;
    o.str("commit", p.commit)
        .boolean("dirty", p.dirty)
        .num("nproc", static_cast<std::uint64_t>(p.nproc))
        .str("cpu", p.cpu)
        .str("compiler", p.compiler)
        .str("build_type", p.buildType)
        .boolean("optimized", p.optimized)
        .boolean("ndebug", p.ndebug)
        .str("sanitizer", p.sanitizer)
        .num("threads", static_cast<std::uint64_t>(p.threads))
        .num("seed", p.seed)
        .num("seconds", p.seconds)
        .num("wall_s", p.wallSeconds)
        .boolean("valid", p.valid())
        .raw("invalid_because", JsonObject::array(why));
    return o.render();
}

/** The verdict of one compare row. */
enum class Verdict { Within, Better, Worse, Unresolved };

inline const char *
verdictWord(Verdict v)
{
    switch (v) {
      case Verdict::Within: return "within";
      case Verdict::Better: return "better";
      case Verdict::Worse: return "worse";
      case Verdict::Unresolved: return "unresolved";
    }
    return "?";
}

/**
 * Judge @p b (the change) against @p a (the baseline) for metric @p m,
 * whose allowance for a median is m.allowance(median):
 *  - unresolved when either side's interquartile range exceeds its
 *    own allowance, unless every run of one side beats every run of
 *    the other, in which case the rules below decide;
 *  - worse when b's median is worse than a's by more than a's
 *    allowance;
 *  - better when b wins at least nine tenths of all (a, b) pairs and
 *    the medians differ by more than a's interquartile range;
 *  - within otherwise.
 */
inline Verdict
judge(const std::vector<double> &a, const std::vector<double> &b,
      const EndToEndMetric &m)
{
    auto beats = [&](double x, double y) {
        return m.lowerIsBetter ? x < y : x > y;
    };
    const Quartiles qa = quartiles(a), qb = quartiles(b);
    std::size_t bWins = 0, aWins = 0;
    for (double x : a) {
        for (double y : b) {
            bWins += beats(y, x);
            aWins += beats(x, y);
        }
    }
    const std::size_t pairs = a.size() * b.size();
    const bool oneSided = pairs != 0 && (bWins == pairs || aWins == pairs);
    const bool wide = qa.q3 - qa.q1 > m.allowance(qa.med) ||
                      qb.q3 - qb.q1 > m.allowance(qb.med);
    if (wide && !oneSided)
        return Verdict::Unresolved;
    const double worse = m.lowerIsBetter ? qb.med - qa.med : qa.med - qb.med;
    if (worse > m.allowance(qa.med))
        return Verdict::Worse;
    if (pairs != 0 && 10 * bWins >= 9 * pairs &&
        std::fabs(qb.med - qa.med) > qa.q3 - qa.q1)
        return Verdict::Better;
    return Verdict::Within;
}

/** One workload's entry of a result file (nullptr if absent). */
inline const JsonValue *
workloadEntry(const JsonValue &doc, const std::string &workload)
{
    const JsonValue *w = doc.get("workloads");
    return w ? w->get(workload) : nullptr;
}

/**
 * The samples one side of a comparison contributes for a metric of
 * @p section ("end_to_end" or "per_layer"): with several result
 * files, each file's value (one median per run, the run-to-run spread
 * the verdict rules are about); with one file, that run's own
 * per-check samples where the file keeps them, else its value.
 */
inline std::vector<double>
sideSamples(const std::vector<JsonValue> &side, const std::string &workload,
            const char *section, const std::string &metric)
{
    std::vector<double> out;
    for (const JsonValue &doc : side) {
        const JsonValue *wl = workloadEntry(doc, workload);
        const JsonValue *sec = wl ? wl->get(section) : nullptr;
        const JsonValue *m = sec ? sec->get(metric) : nullptr;
        if (!m)
            return {};
        const JsonValue *s = m->get("samples");
        if (side.size() > 1 || !s) {
            out.push_back(m->getNum("value"));
        } else {
            for (const JsonValue &v : s->items())
                out.push_back(v.asNumber());
        }
    }
    return out;
}

/** failed / attempted over every file of one side and workload. */
inline double
sideFailRatio(const std::vector<JsonValue> &side, const std::string &workload)
{
    double attempted = 0, failed = 0;
    for (const JsonValue &doc : side) {
        if (const JsonValue *wl = workloadEntry(doc, workload)) {
            attempted += wl->getNum("attempted");
            failed += wl->getNum("failed");
        }
    }
    return attempted > 0 ? failed / attempted : 1.0;
}

/**
 * Judge side @p b (the change) against side @p a (the baseline), each
 * one or more result files of the same settings.  Prints one row per
 * (workload, end-to-end metric), each workload's failure ratio, and
 * the demoted metrics without a verdict.  Returns the process exit
 * status: 0 when every judged row is within or better, 1 on worse or
 * unresolved, 2 when the results cannot be compared.
 */
inline int
compareResults(const std::vector<JsonValue> &a,
               const std::vector<JsonValue> &b)
{
    const JsonValue *first = a.empty() ? nullptr : a[0].get("provenance");
    for (const std::vector<JsonValue> *side : {&a, &b}) {
        for (const JsonValue &doc : *side) {
            const JsonValue *p = doc.get("provenance");
            if (!first || !p || !doc.get("workloads")) {
                std::fprintf(stderr,
                             "compare: not cxl-bench-result/v1 files\n");
                return 2;
            }
            if (!p->getBool("valid")) {
                std::fprintf(stderr,
                             "compare: refusing an invalid result (see "
                             "provenance.invalid_because)\n");
                return 2;
            }
            if (p->getNum("nproc") != first->getNum("nproc") ||
                p->getStr("compiler") != first->getStr("compiler") ||
                p->getNum("seconds") != first->getNum("seconds")) {
                std::fprintf(stderr,
                             "compare: results differ in nproc, compiler "
                             "or --seconds\n");
                return 2;
            }
        }
    }

    int status = 0;
    auto row = [](const std::string &w, const std::string &metric,
                  const std::vector<double> &sa,
                  const std::vector<double> &sb, const char *bound,
                  const char *verdict) {
        const Quartiles qa = quartiles(sa), qb = quartiles(sb);
        char ca[64], cb[64];
        std::snprintf(ca, sizeof ca, "%.4g [%.4g, %.4g]", qa.med, qa.q1,
                      qa.q3);
        std::snprintf(cb, sizeof cb, "%.4g [%.4g, %.4g]", qb.med, qb.q1,
                      qb.q3);
        std::printf("%-8s %-12s %26s %26s %10s %+7.1f%%  %s\n", w.c_str(),
                    metric.c_str(), ca, cb, bound,
                    qa.med != 0 ? (qb.med - qa.med) / qa.med * 100 : 0.0,
                    verdict);
    };
    std::printf("%-8s %-12s %26s %26s %10s %8s  %s\n", "workload", "metric",
                "A median [q1, q3]", "B median [q1, q3]", "bound",
                "change", "verdict");
    for (const std::string &w : workloadNames()) {
        for (const EndToEndMetric &m : endToEndMetrics()) {
            const std::vector<double> sa =
                sideSamples(a, w, "end_to_end", m.name);
            const std::vector<double> sb =
                sideSamples(b, w, "end_to_end", m.name);
            if (sa.empty() || sb.empty()) {
                std::printf("%-8s %-12s missing\n", w.c_str(), m.name);
                status = 1;
                continue;
            }
            const Verdict v = judge(sa, sb, m);
            if (v == Verdict::Worse || v == Verdict::Unresolved)
                status = 1;
            char bound[32];
            if (m.floor > 0)
                std::snprintf(bound, sizeof bound, "%.0f%%|%g%s",
                              m.bound * 100, m.floor, m.unit);
            else
                std::snprintf(bound, sizeof bound, "%.0f%%", m.bound * 100);
            row(w, m.name, sa, sb, bound, verdictWord(v));
        }
        for (const std::string &name : demotedMetrics()) {
            const std::vector<double> sa =
                sideSamples(a, w, "per_layer", name);
            const std::vector<double> sb =
                sideSamples(b, w, "per_layer", name);
            if (!sa.empty() && !sb.empty())
                row(w, name, sa, sb, "-", "per-layer");
        }
        const double fa = sideFailRatio(a, w);
        const double fb = sideFailRatio(b, w);
        const bool worse = fb > fa;
        if (worse)
            status = 1;
        std::printf("%-8s %-12s %26.4g %26.4g %10s %8s  %s\n", w.c_str(),
                    "fail_ratio", fa, fb, "0", "",
                    worse ? "worse" : "within");
    }
    return status;
}

} // namespace cxl::bench

#endif // CXL_BENCH_RESULT_FILE_HH
