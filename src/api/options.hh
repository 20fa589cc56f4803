/**
 * @file
 * Shared command-line surface of the bench/example front-ends: one
 * helper resolves the flags every binary used to re-plumb by hand —
 * `--devices`, `--threads`, `--sym`/`--no-sym`,
 * `--store=ram|ram-compact|mmap`, `--store-dir` (mmap only),
 * `--compact` (ram-compact over ram; a no-op on mmap),
 * `--por`/`--no-por`, `--ws`/`--bfs`, `--max-states`,
 * `--expect-states`, `--max-seconds`, `--max-rss-mb`, `--json` —
 * into a device count plus the EngineOptions a CheckSession is
 * constructed with.  It also arms the process-wide SIGINT/SIGTERM →
 * CancelToken bridge, so every front-end gets graceful Ctrl-C for
 * free: the run ends as Incomplete (stop_reason "cancelled") with
 * its explored-prefix counts instead of dying mid-print.
 */

#ifndef CXL_API_OPTIONS_HH
#define CXL_API_OPTIONS_HH

#include <string>

#include "api/check.hh"
#include "support/cli.hh"

namespace cxl::api
{

/** The resolved standard flag set. */
struct StandardOptions {
    int devices = kDefaultNumDevices;
    EngineOptions engine;

    /**
     * True when the user passed an explicit `--max-states`: capped
     * runs then report the verdict for the explored prefix rather
     * than failing for not finishing (swmr_statespace semantics).
     */
    bool userCapped = false;

    /**
     * True when the user passed `--max-seconds` or `--max-rss-mb`:
     * like userCapped, a budget-stopped Incomplete verdict is then
     * the requested behaviour, not a failure.  Kept separate from
     * userCapped because harnesses use that flag to substitute the
     * explicit cap into engine defaults (cxl_fuzz's freeRunCap).
     */
    bool userBudgeted = false;

    /** `--json [PATH]` given; path defaults per harness. */
    bool json = false;
    std::string jsonPath;
};

/**
 * Parse the standard flags from @p args.  Prints a diagnostic and
 * exits with status 2 on out-of-range values — the front-ends treat
 * flag errors as usage errors, not verification results.
 *
 * @param defaultJsonPath the BENCH_*.json path used when `--json`
 *        appears without a value (nullptr: harness has no JSON drop).
 */
StandardOptions standardOptions(const CliArgs &args,
                                const char *defaultJsonPath = nullptr);

/**
 * Handle the shared `--corpus DIR` flag: promote every fuzz case in
 * DIR into the scenario registry, so --list/--all/--scenario (and a
 * daemon's request resolution) cover the auto-discovered scenarios
 * too.  No-op when the flag is absent.  A malformed case file prints
 * the loader's filename-naming diagnostic and exits 2 — the same
 * usage-error path as a bad flag, shared by every front-end instead
 * of re-implemented per binary.
 */
void corpusOption(const CliArgs &args);

} // namespace cxl::api

#endif // CXL_API_OPTIONS_HH
