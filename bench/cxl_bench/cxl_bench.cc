/**
 * @file
 * cxl_bench: the checker benchmark.  See README.md in this directory
 * for the workloads, the metrics and their bounds, the trace format
 * and how to compare two commits.
 *
 * Usage:
 *   cxl_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *       one workload in this process; the last stdout line is the
 *       result object (end-to-end metrics untraced, per-layer traced)
 *   cxl_bench [--seed N] [--seconds S] [--out result.json]
 *       the full set: every workload in a fresh child, untraced and
 *       traced, written as one commit-stamped result file
 *   cxl_bench --compare A.json[,A2.json...] B.json[,B2.json...]
 *       judge results B against baseline results A, one row per
 *       workload and end-to-end metric; exit 1 on any worse or
 *       unresolved row
 *   cxl_bench --smoke
 *       the same code paths at toy size, plus a memory-probe check
 *
 * Workloads: raw3, sym3ws, sym4c, serve.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "explorer_load.hh"
#include "memory.hh"
#include "report.hh"
#include "result_file.hh"
#include "serve_load.hh"
#include "support/cli.hh"
#include "support/json_parse.hh"
#include "workloads.hh"

using namespace cxl;
using namespace cxl::bench;

namespace
{

// The build's CXL_SANITIZE list; failing that, what the compiler
// reports (flags passed some other way).
#if defined(__SANITIZE_ADDRESS__)
constexpr const char *kDetectedSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char *kDetectedSanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr const char *kDetectedSanitizer = "address";
#elif __has_feature(thread_sanitizer)
constexpr const char *kDetectedSanitizer = "thread";
#else
constexpr const char *kDetectedSanitizer = "";
#endif
#else
constexpr const char *kDetectedSanitizer = "";
#endif
constexpr const char *kSanitizer =
    CXL_BENCH_SANITIZE[0] ? CXL_BENCH_SANITIZE : kDetectedSanitizer;

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/**
 * Directory for server sockets: the build directory when the path
 * fits a sockaddr_un, else the working directory.
 */
std::string
socketDir()
{
    const std::string dir = CXL_BENCH_RUN_DIR;
    return dir.size() < 64 ? dir : std::string(".");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: cxl_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n"
                 "       cxl_bench [--seed N] [--seconds S] [--out FILE]\n"
                 "       cxl_bench --compare A.json[,A2.json...] "
                 "B.json[,B2.json...]\n"
                 "       cxl_bench --smoke\n"
                 "workloads: raw3 sym3ws sym4c serve\n");
    return 2;
}

/** One workload in this process; prints its report. */
int
runWorkload(const std::string &name, std::uint64_t seed, double seconds,
            bool traced, const std::string &traceOut)
{
    Report report;
    if (name == "serve") {
        ServeRun run;
        run.dataDir = CXL_BENCH_DATA_DIR;
        run.socketDir = socketDir();
        run.seconds = seconds;
        run.seed = seed;
        run.traced = traced;
        run.traceOut = traceOut;
        report = runServeChild(run);
    } else if (const ExplorerWorkload *w = findExplorerWorkload(name)) {
        report = traced ? runExplorerTraceChild(*w, seed, seconds, traceOut)
                        : runExplorerChild(*w, seed, seconds);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return usage();
    }
    printReport(name, report, traced);
    return 0;
}

/** Run this binary with @p args, capturing its standard output. */
bool
runChild(const std::vector<std::string> &args, std::string &out)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv("/proc/self/exe", argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** The last line of @p text that starts with @p prefix ("" if none). */
std::string
lastLine(const std::string &text, const std::string &prefix)
{
    std::string found;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        if (line.rfind(prefix, 0) == 0)
            found = line;
        pos = end + 1;
    }
    return found;
}

/** The full set: every workload untraced and traced, in children. */
int
runFullSet(std::uint64_t seed, double seconds, const std::string &outPath)
{
    const std::int64_t t0 = nowNs();
    Provenance prov = gatherProvenance(__VERSION__, CXL_BENCH_BUILD_TYPE,
                                       kOptimized, kNdebug, kSanitizer);
    prov.threads = loadThreads();
    prov.seed = seed;
    prov.seconds = seconds;

    JsonObject workloads;
    bool allCorrect = true;
    for (const std::string &w : workloadNames()) {
        JsonObject entry;
        JsonObject e2e, layers;
        std::uint64_t attempted = 0, failed = 0;
        for (int traced = 0; traced < 2; ++traced) {
            const std::string traceOut =
                std::string(CXL_BENCH_RUN_DIR) + "/trace-" + w + ".json";
            std::vector<std::string> args = {
                "cxl_bench", "--workload", w, "--seed",
                std::to_string(seed), "--seconds", exactNumber(seconds),
                "--trace", traced ? "1" : "0"};
            if (traced) {
                args.push_back("--trace-out");
                args.push_back(traceOut);
            }
            std::string out;
            const bool ok = runChild(args, out);
            const std::string last = lastLine(out, "{");
            if (!ok || last.empty()) {
                std::fprintf(stderr, "cxl_bench: child %s (trace %d) failed\n",
                             w.c_str(), traced);
                return 1;
            }
            const JsonValue result = parseJson(last);
            const JsonValue samples = parseJson(
                lastLine(out, "cxl-bench-samples ").substr(18));
            attempted += result.get("attempted")->asUint();
            failed += result.get("failed")->asUint();
            for (const auto &[name, m] : result.get("metrics")->members()) {
                std::printf("%s %s %s %s\n", w.c_str(), name.c_str(),
                            exactNumber(m.getNum("value")).c_str(),
                            m.getStr("unit").c_str());
                JsonObject row;
                row.raw("value", exactNumber(m.getNum("value")))
                    .str("unit", m.getStr("unit"));
                if (!traced) {
                    std::vector<std::string> items;
                    if (const JsonValue *s = samples.get(name)) {
                        for (const JsonValue &v : s->items())
                            items.push_back(exactNumber(v.asNumber()));
                    }
                    row.raw("samples", JsonObject::array(items));
                    e2e.raw(name, row.render());
                } else {
                    layers.raw(name, row.render());
                }
            }
            // Relative to the working directory, so a result file
            // names no directory outside the checkout it came from.
            if (traced)
                entry.str("trace_file",
                          std::filesystem::proximate(traceOut).string());
        }
        allCorrect = allCorrect && failed == 0;
        entry.boolean("correct", failed == 0)
            .num("attempted", attempted)
            .num("failed", failed)
            .raw("fail_ratio",
                 exactNumber(attempted ? static_cast<double>(failed) /
                                             static_cast<double>(attempted)
                                       : 1.0))
            .raw("end_to_end", e2e.render())
            .raw("per_layer", layers.render());
        workloads.raw(w, entry.render());
    }
    prov.wallSeconds = secondsSince(t0);

    JsonObject doc;
    doc.str("schema", "cxl-bench-result/v1")
        .raw("provenance", renderProvenance(prov))
        .raw("workloads", workloads.render());
    std::printf("set: %.1f s, %s, commit %s%s\n", prov.wallSeconds,
                allCorrect ? "all outputs correct" : "OUTPUTS INCORRECT",
                prov.commit.c_str(), prov.valid() ? "" : " (invalid)");
    if (!outPath.empty() && !writeJsonFile(outPath, doc))
        return 1;
    return allCorrect ? 0 : 1;
}

/** Compare two sides, each a comma-separated list of result files. */
int
runCompare(const std::string &a, const std::string &b)
{
    auto load = [](const std::string &paths) {
        std::vector<JsonValue> docs;
        std::size_t pos = 0;
        while (pos <= paths.size()) {
            const std::size_t comma = std::min(paths.find(',', pos),
                                               paths.size());
            std::string text;
            for (const std::string &line :
                 readLines(paths.substr(pos, comma - pos)))
                text += line;
            docs.push_back(parseJson(text));
            pos = comma + 1;
        }
        return docs;
    };
    try {
        return compareResults(load(a), load(b));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "compare: %s\n", e.what());
        return 2;
    }
}

/** The compare rules on hand-made samples whose verdicts are known. */
void
checkJudge(Report &report)
{
    const EndToEndMetric timed{"t", "s", true, 0.10, 0};
    const EndToEndMetric floored{"t", "s", true, 0.10, 0.005};
    const std::vector<double> steady = {1.00, 1.01, 0.99, 1.00};
    struct Case {
        const char *what;
        const EndToEndMetric &metric;
        std::vector<double> a, b;
        Verdict want;
    };
    const Case cases[] = {
        {"20% slower", timed, steady, {1.20, 1.21, 1.19, 1.20},
         Verdict::Worse},
        {"20% faster", timed, steady, {0.80, 0.81, 0.79, 0.80},
         Verdict::Better},
        {"2% slower", timed, steady, {1.02, 1.03, 1.01, 1.02},
         Verdict::Within},
        {"wide, overlapping", timed, {1.0, 1.5, 1.0, 1.5},
         {1.0, 1.6, 1.1, 1.4}, Verdict::Unresolved},
        // Wide baseline beaten by every change run, yet the medians
        // are within the bound: one-sidedness only lifts "unresolved".
        {"wide, one-sided, 2.5% slower", timed, {0.8, 1.0, 1.0, 1.0},
         {1.01, 1.02, 1.03, 1.04}, Verdict::Within},
        // Every change run wins, but by less than the baseline's
        // interquartile range: not a gain.
        {"wide, one-sided, 2% faster", timed, {1.0, 1.0, 1.0, 1.2},
         {0.97, 0.98, 0.98, 0.99}, Verdict::Within},
        {"doubled under a 5 ms floor", floored,
         {1.0e-4, 1.1e-4, 1.2e-4, 1.3e-4}, {2.0e-4, 2.2e-4, 2.4e-4, 2.6e-4},
         Verdict::Within},
        {"6 ms slower over a 5 ms floor", floored,
         {1.0e-4, 1.1e-4, 1.2e-4, 1.3e-4}, {6.1e-3, 6.2e-3, 6.3e-3, 6.4e-3},
         Verdict::Worse},
    };
    for (const Case &c : cases) {
        const Verdict got = judge(c.a, c.b, c.metric);
        report.check(got == c.want, std::string("compare rule, ") + c.what +
                                        ": " + verdictWord(got) +
                                        ", expected " + verdictWord(c.want));
    }
}

/**
 * Toy-size run of every code path: a 2-device free run per explorer
 * workload (engine at T and 1 thread, walker untraced and traced, the
 * uncapped run), a registry-only serve round, the memory probe on an
 * in-RAM and an anonymous-file (memfd) store, and the compare rules.
 */
int
runSmoke()
{
    const std::int64_t t0 = nowNs();
    Report report;
    const std::size_t threads = loadThreads();
    struct Toy {
        const char *workload;
        const char *flags;
        std::uint64_t states, transitions;
        std::uint32_t diameter;
    };
    const Toy toys[] = {
        {"raw3", "--devices 2 --no-sym --bfs", 5218, 13126, 27},
        {"sym3ws", "--devices 2 --sym --ws --por", 2615, 0, 27},
        {"sym4c", "--devices 2 --sym --compact --bfs", 2615, 0, 27},
    };
    for (const Toy &toy : toys) {
        ExplorerWorkload w = *findExplorerWorkload(toy.workload);
        w.states = toy.states;
        w.transitions = toy.transitions;
        w.diameter = toy.diameter;
        w.cap = 0;
        w.walkerStopAfter = 0;
        ExplorerLoad load(w, threads, toy.flags);
        load.setUp();
        load.runOnce(threads, report);
        load.runOnce(1, report);
        const WalkerConfig cfg = load.walkerConfig();
        const WalkerResult plain = runWalker<false>(cfg);
        Trace trace;
        const WalkerResult traced =
            runWalker<true>(cfg, &trace, trace.open("walker", 0));
        report.check(plain.holds && plain.completed &&
                         plain.states == toy.states &&
                         plain.diameter == toy.diameter &&
                         sameCounts(plain, traced) &&
                         trace.spans().size() == plain.diameter + 2,
                     std::string("smoke walker ") + toy.workload);
        if (w.fullFlags) {
            w.fullFlags = toy.flags;
            w.fullStates = toy.states;
            w.fullTransitions = toy.transitions;
            w.fullDiameter = toy.diameter;
            report.check(runFullSpace(w, report).second > 0,
                         std::string("smoke full space ") + toy.workload);
        }
    }

    ServeRun run;
    run.dataDir = CXL_BENCH_DATA_DIR;
    run.socketDir = socketDir();
    run.registryOnly = true;
    run.hitPasses = 1;
    const Report serve = runServeChild(run);
    report.check(serve.failed == 0 && serve.attempted > 0,
                 "smoke serve round");

    for (const char *store : {"ram", "mmap"}) {
        ExplorerWorkload w = *findExplorerWorkload("raw3");
        w.states = 144294;
        w.transitions = 517428;
        ExplorerLoad load(w, threads,
                          std::string("--devices 3 --sym --bfs --store ") +
                              store);
        load.setUp();
        std::uint64_t memfd = 0;
        {
            PeakSampler mem;
            load.runOnce(1, report);
            mem.sample();
            memfd = mem.peakMemfdBytes();
        }
        const bool mmap = std::strcmp(store, "mmap") == 0;
        report.check(mmap ? memfd > 0 : memfd == 0,
                     std::string("memfd component on --store ") + store +
                         ": " + std::to_string(memfd) + " bytes");
    }
    checkJudge(report);

    const bool ok = report.failed == 0;
    std::printf("smoke: %llu checks, %llu failed, %.1f s: %s\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                secondsSince(t0), ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    try {
        if (args.has("smoke"))
            return runSmoke();
        if (args.has("compare")) {
            const std::vector<std::string> &pos = args.positional();
            const std::string a = args.get("compare", "");
            if (pos.size() != 1 || a.empty())
                return usage();
            return runCompare(a, pos[0]);
        }
        const std::int64_t seed = args.getInt("seed", 1);
        const std::string secText = args.get("seconds", "10");
        char *end = nullptr;
        const double seconds = std::strtod(secText.c_str(), &end);
        if (seed < 0 || end == secText.c_str() || *end != '\0' ||
            !(seconds > 0))
            return usage();
        if (args.has("workload")) {
            const std::int64_t trace = args.getInt("trace", 0);
            if (trace != 0 && trace != 1)
                return usage();
            const std::string name = args.get("workload", "");
            std::string traceOut = args.get("trace-out", "");
            if (trace && traceOut.empty())
                traceOut = std::string(CXL_BENCH_RUN_DIR) + "/trace-" +
                           name + ".json";
            return runWorkload(name, static_cast<std::uint64_t>(seed),
                               seconds, trace == 1, traceOut);
        }
        return runFullSet(static_cast<std::uint64_t>(seed), seconds,
                          args.get("out", ""));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cxl_bench: %s\n", e.what());
        return 1;
    }
}
