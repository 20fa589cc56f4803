/**
 * @file
 * The unified checker CLI: run any registered scenario through the
 * CheckSession façade — the command-line face of the api/ layer and
 * the binary behind CI's scenario smoke matrix.
 *
 * Usage:
 *   cxl_check --list                 enumerate registered scenarios
 *   cxl_check --scenario NAME        run one scenario (or positional)
 *   cxl_check --all [--verdicts]     run every scenario; --verdicts
 *                                    prints only the deterministic
 *                                    `name: verdict` lines the CI
 *                                    goldens diff against
 *   cxl_check --corpus DIR ...       first promote the fuzz corpus in
 *                                    DIR into the registry, so --list,
 *                                    --all and --scenario cover the
 *                                    auto-discovered scenarios too
 *   cxl_check --connect SOCK ...     send the request to a running
 *                                    cxl_checkd instead of exploring
 *                                    in-process, relaying its stream;
 *                                    the flags keep their offline
 *                                    meaning, so served and offline
 *                                    output are byte-comparable
 *   cxl_check --connect SOCK --server-stats
 *                                    print the daemon's counters
 *
 * Standard flags: --devices N, --threads N, --sym/--no-sym,
 * --store ram|mmap (both exact; --compact is accepted as a no-op
 * shim), --store-dir DIR (mmap only), --por/--no-por, --ws/--bfs,
 * --max-states N, --expect-states N, --max-seconds S,
 * --max-rss-mb N, --json [PATH].  `--deterministic` zeroes the wall-clock keys of
 * JSON output (offline and served) so runs diff byte-identical;
 * `--progress` streams served progress frames to stderr.
 *
 * Exit status: 0 when every run matches its scenario's expectation
 * (holds, or reaches the expected violation family) — or stopped
 * early under a user-requested budget/cap/Ctrl-C, reporting the
 * explored prefix as INCOMPLETE — 1 on a mismatch, 2 on usage
 * errors.
 */

#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "api/check.hh"
#include "api/options.hh"
#include "serve/client.hh"
#include "support/json.hh"
#include "support/json_parse.hh"

using namespace cxl;

namespace
{

/**
 * True when an Incomplete verdict is the outcome the user signed up
 * for: an explicit --max-states cap, a wall-clock/memory budget, or
 * their own Ctrl-C.  Such runs report the explored prefix and exit 0.
 */
bool
requestedStop(const cxl::api::StandardOptions &opts,
              const CheckResult &res)
{
    if (res.verdict != CheckResult::Verdict::Incomplete)
        return false;
    return opts.userCapped || opts.userBudgeted ||
           res.stopReason == StopReason::Cancelled;
}

/** True when @p res is what the registry entry promises. */
bool
asExpected(const scenarios::Entry &entry, const CheckResult &res)
{
    if (!entry.expectViolation)
        return res.holds();
    if (res.verdict != CheckResult::Verdict::Violated)
        return false;
    return entry.expectedViolationFamily.empty() ||
           (res.violation &&
            res.violation->conjunctFamily ==
                entry.expectedViolationFamily);
}

/** requestedStop over a served result's parsed JSON. */
bool
remoteRequestedStop(const cxl::api::StandardOptions &opts,
                    const JsonValue &res)
{
    if (res.getStr("verdict") != "incomplete")
        return false;
    return opts.userCapped || opts.userBudgeted ||
           res.getStr("stop_reason") == "cancelled";
}

/** asExpected over a served result's parsed JSON. */
bool
remoteAsExpected(const scenarios::Entry &entry, const JsonValue &res)
{
    const std::string verdict = res.getStr("verdict");
    if (!entry.expectViolation)
        return verdict == "holds";
    if (verdict != "violation")
        return false;
    return entry.expectedViolationFamily.empty() ||
           res.getStr("violated_family") ==
               entry.expectedViolationFamily;
}

/**
 * The wire form of the already-parsed standard options for @p entry:
 * every resolved knob is sent explicitly, so the client's flags win
 * over the daemon's defaults and a served run is the same run the
 * offline path would have made.
 */
serve::Request
wireRequest(const cxl::api::StandardOptions &opts,
            const CliArgs &args, const scenarios::Entry &entry)
{
    serve::Request r;
    r.id = entry.name;
    r.scenario = entry.name;
    r.devices =
        entry.deviceScalable ? opts.devices : entry.fixedDevices;
    r.engine = serve::knobsOf(opts.engine);
    r.deterministic = args.has("deterministic");
    r.progress = args.has("progress");
    return r;
}

/** stderr progress printer for --connect --progress. */
void
printProgress(const ProgressSnapshot &p)
{
    std::fprintf(stderr,
                 "progress: %llu states, %llu transitions, depth "
                 "%u, %.1f s\n",
                 static_cast<unsigned long long>(p.states),
                 static_cast<unsigned long long>(p.transitions),
                 p.depth, p.seconds);
}

/** The offline model-cache reuse summary (`--all` text output). */
void
printModelCacheStats(const CheckSession &session)
{
    const std::vector<CheckSession::ModelCacheStat> stats =
        session.modelCacheStats();
    std::uint64_t reuses = 0;
    for (const CheckSession::ModelCacheStat &s : stats)
        reuses += s.hits;
    std::printf("model cache: %zu build(s), %llu reuse(s)\n",
                stats.size(),
                static_cast<unsigned long long>(reuses));
    for (const CheckSession::ModelCacheStat &s : stats) {
        std::printf("  devices %d, config 0x%02x: %llu hit(s)\n",
                    s.devices, s.configBits,
                    static_cast<unsigned long long>(s.hits));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    api::corpusOption(args);

    if (args.has("list")) {
        for (const scenarios::Entry &e : scenarios::all()) {
            std::printf("%-24s %s%s\n", e.name.c_str(),
                        e.expectViolation ? "[expects violation] " : "",
                        e.description.c_str());
        }
        return 0;
    }

    const std::string connect = args.get("connect", "");
    if (!connect.empty() && args.has("server-stats")) {
        std::string error;
        const std::string stats = serve::fetchStats(connect, error);
        if (stats.empty()) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        std::printf("%s\n", stats.c_str());
        return 0;
    }

    api::StandardOptions opts =
        api::standardOptions(args, "BENCH_check.json");
    const bool deterministic = args.has("deterministic");
    const std::function<void(const ProgressSnapshot &)> progress_fn =
        args.has("progress")
            ? std::function<void(const ProgressSnapshot &)>(
                  printProgress)
            : std::function<void(const ProgressSnapshot &)>();
    CheckSession session(opts.engine);

    if (args.has("all")) {
        const bool verdicts_only = args.has("verdicts");
        bool all_ok = true;
        std::vector<std::string> rows;
        for (const scenarios::Entry &e : scenarios::all()) {
            bool ok;
            std::string verdict_line, row;
            if (!connect.empty()) {
                const serve::ClientResult res = serve::requestCheck(
                    connect, wireRequest(opts, args, e),
                    progress_fn);
                if (!res.ok) {
                    std::printf("%s: ERROR %s\n", e.name.c_str(),
                                res.error.c_str());
                    all_ok = false;
                    continue;
                }
                const JsonValue v =
                    parseJson(res.payload.resultJson);
                ok = remoteAsExpected(e, v) ||
                     remoteRequestedStop(opts, v);
                verdict_line = res.payload.verdictLine;
                row = res.payload.resultJson;
                if (!verdicts_only && !ok)
                    std::printf("%s\n", res.payload.text.c_str());
            } else {
                CheckRequest req;
                req.scenario = e.name;
                req.devices = e.deviceScalable ? opts.devices
                                               : e.fixedDevices;
                CheckResult res = session.run(req);
                ok = asExpected(e, res) || requestedStop(opts, res);
                verdict_line = res.verdictText();
                row = res.renderJson(deterministic);
                if (!verdicts_only && !ok)
                    std::printf("%s\n", res.renderText().c_str());
            }
            all_ok &= ok;
            std::printf("%s: %s%s\n", e.name.c_str(),
                        verdict_line.c_str(),
                        ok ? "" : "  ** UNEXPECTED **");
            rows.push_back(std::move(row));
        }
        if (connect.empty() && !verdicts_only)
            printModelCacheStats(session);
        if (opts.json) {
            JsonObject json;
            json.str("bench", "cxl_check")
                .num("devices",
                     static_cast<std::uint64_t>(opts.devices))
                .boolean("all_ok", all_ok)
                .raw("results", JsonObject::array(rows));
            writeJsonFile(opts.jsonPath, json);
        }
        return all_ok ? 0 : 1;
    }

    std::string name = args.get("scenario", "");
    if (name.empty() && !args.positional().empty())
        name = args.positional().front();
    if (name.empty()) {
        std::fprintf(stderr,
                     "usage: cxl_check --list | --scenario NAME | "
                     "--all [--verdicts] [--connect SOCK]\n");
        return 2;
    }
    const scenarios::Entry *entry = scenarios::byName(name);
    if (!entry) {
        std::fprintf(stderr,
                     "unknown scenario '%s' (try --list)\n",
                     name.c_str());
        return 2;
    }

    bool ok;
    if (!connect.empty()) {
        const serve::ClientResult res = serve::requestCheck(
            connect, wireRequest(opts, args, *entry),
            progress_fn);
        if (!res.ok) {
            std::fprintf(stderr, "%s\n", res.error.c_str());
            return 2;
        }
        std::printf("%s", res.payload.text.c_str());
        if (res.cached)
            std::printf("(served from the result cache)\n");
        if (opts.json) {
            JsonObject json;
            json.str("bench", "cxl_check")
                .raw("result", res.payload.resultJson);
            writeJsonFile(opts.jsonPath, json);
        }
        const JsonValue v = parseJson(res.payload.resultJson);
        ok = remoteAsExpected(*entry, v) ||
             remoteRequestedStop(opts, v);
    } else {
        CheckRequest req;
        req.scenario = entry->name;
        req.devices =
            entry->deviceScalable ? opts.devices : entry->fixedDevices;
        CheckResult res = session.run(req);
        std::printf("%s", res.renderText().c_str());
        if (opts.json) {
            JsonObject json;
            json.str("bench", "cxl_check")
                .raw("result", res.renderJson(deterministic));
            writeJsonFile(opts.jsonPath, json);
        }
        ok = asExpected(*entry, res) || requestedStop(opts, res);
    }

    if (entry->expectViolation) {
        std::printf("expected violation in family '%s': %s\n",
                    entry->expectedViolationFamily.c_str(),
                    ok ? "reached" : "NOT REACHED");
    }
    return ok ? 0 : 1;
}
