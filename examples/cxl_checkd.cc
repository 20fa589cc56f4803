/**
 * @file
 * cxl_checkd: the long-lived checker daemon — a warm CheckSession
 * pool plus a memoized result cache behind a Unix-domain socket, so
 * a farm of protocol-variant queries never cold-starts a model (or
 * re-explores a space it already answered).
 *
 * Usage:
 *   cxl_checkd --socket PATH [--workers N] [--cache-entries N]
 *              [--queue-depth N] [--default-max-seconds S]
 *              [--corpus DIR] [--stats]
 *              [standard engine flags]
 *
 * The standard flags (--threads, --sym/--no-sym, --store,
 * --por/--no-por, --max-states, --max-seconds, ...) set
 * the per-request engine *defaults*; each request may override any
 * knob (see src/serve/protocol.hh); `--ws` and `--bfs` are accepted
 * as no-op shims.  `--default-max-seconds` is the
 * safety net applied to requests that carry no wall-clock budget of
 * their own.  `--corpus DIR` promotes fuzz-discovered scenarios into
 * the registry first, exactly like `cxl_check --corpus`.
 *
 * Signals: SIGINT/SIGTERM begin a graceful drain — in-flight runs
 * are cancelled and answered as governed Incompletes, queued
 * connections are turned away, then the daemon exits 0.  SIGUSR1
 * dumps the stats counters to stderr; `--stats` also dumps them at
 * shutdown.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "api/options.hh"
#include "serve/server.hh"

using namespace cxl;

namespace
{

volatile std::sig_atomic_t g_usr1 = 0;

extern "C" void
usr1Handler(int)
{
    g_usr1 = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    api::corpusOption(args);

    const std::string socket_path = args.get("socket", "");
    if (socket_path.empty()) {
        std::fprintf(
            stderr,
            "usage: cxl_checkd --socket PATH [--workers N] "
            "[--cache-entries N] [--queue-depth N] "
            "[--default-max-seconds S] [--corpus DIR] [--stats] "
            "[engine flags]\n");
        return 2;
    }

    // Claim the signal bridge *before* standardOptions arms the
    // every-CLI one: first-install-wins hands both call sites the
    // same token, and the daemon uses it as its drain trigger.
    const CancelToken drain_token =
        installSignalCancel(CancelToken::create());

    api::StandardOptions opts = api::standardOptions(args);

    serve::ServerOptions sopts;
    sopts.socketPath = socket_path;
    sopts.engine = opts.engine;

    const std::int64_t workers = args.getInt("workers", 2);
    if (workers < 1) {
        std::fprintf(stderr,
                     "--workers %lld out of range (want >= 1)\n",
                     static_cast<long long>(workers));
        return 2;
    }
    sopts.workers = static_cast<std::size_t>(workers);

    const std::int64_t cache_entries =
        args.getInt("cache-entries", 256);
    if (cache_entries < 0) {
        std::fprintf(
            stderr,
            "--cache-entries %lld out of range (want >= 0)\n",
            static_cast<long long>(cache_entries));
        return 2;
    }
    sopts.cacheEntries = static_cast<std::size_t>(cache_entries);

    const std::int64_t queue_depth = args.getInt("queue-depth", 64);
    if (queue_depth < 1) {
        std::fprintf(stderr,
                     "--queue-depth %lld out of range (want >= 1)\n",
                     static_cast<long long>(queue_depth));
        return 2;
    }
    sopts.queueDepth = static_cast<std::size_t>(queue_depth);

    if (args.has("default-max-seconds")) {
        const std::string raw = args.get("default-max-seconds", "");
        char *end = nullptr;
        const double secs = std::strtod(raw.c_str(), &end);
        if (raw.empty() || end == raw.c_str() || *end != '\0' ||
            !(secs > 0)) {
            std::fprintf(stderr,
                         "--default-max-seconds '%s' out of range "
                         "(want a positive number of seconds)\n",
                         raw.c_str());
            return 2;
        }
        sopts.defaultMaxSeconds = secs;
    }

    serve::Server server(std::move(sopts));
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cxl_checkd: %s\n", e.what());
        return 2;
    }
    std::fprintf(stderr,
                 "cxl_checkd: serving on %s (%lld workers, cache "
                 "%lld entries)\n",
                 server.socketPath().c_str(),
                 static_cast<long long>(workers),
                 static_cast<long long>(cache_entries));

    std::signal(SIGUSR1, usr1Handler);

    while (!drain_token.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (g_usr1) {
            g_usr1 = 0;
            std::fputs(server.stats().renderText().c_str(), stderr);
        }
    }

    std::fprintf(stderr, "cxl_checkd: draining...\n");
    server.drain();
    if (args.has("stats"))
        std::fputs(server.stats().renderText().c_str(), stderr);
    std::fprintf(stderr, "cxl_checkd: bye\n");
    return 0;
}
