/**
 * @file
 * The `serve` workload: an in-process serve::Server driven by a
 * closed loop of client connections over a fixed request set.
 *
 * The request set is frozen in data/: the 17 registry scenarios at
 * two devices (with their golden verdict lines) and the 49 corpus
 * cases whose stored verdict is not incomplete.  Every request asks
 * for deterministic rendering, so each served result must equal the
 * offline CheckResult::renderJson(true) byte for byte.
 */

#ifndef CXL_BENCH_SERVE_LOAD_HH
#define CXL_BENCH_SERVE_LOAD_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/check.hh"
#include "fuzz/corpus.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "memory.hh"
#include "report.hh"
#include "stats.hh"
#include "support/hash.hh"
#include "support/json_parse.hh"
#include "trace.hh"
#include "workloads.hh"

namespace cxl::bench
{

/** One request of the set, with its offline truth. */
struct ServeRequest {
    std::string name;
    serve::Request wire;
    std::string frame; ///< rendered request line

    /** Registry requests: the golden "name: verdict" line. */
    std::string goldenVerdictLine;
    /** Corpus requests: the stored reference signature. */
    std::optional<fuzz::VerdictSignature> storedSignature;
    bool capped = false;

    // Offline truth, filled by computeOffline().
    std::string expectedJson;
    std::string expectedVerdictLine;
    double offlineSeconds = 0;
    std::uint64_t offlineStates = 0;
};

/** Timings and outcome of one served request. */
struct ServedRecord {
    bool ok = false; ///< result frame, right bytes, right cached flag
    bool cached = false;
    std::int64_t connectNs = 0;
    std::int64_t sendNs = 0;
    std::int64_t firstFrameNs = 0; ///< send done -> first frame
    std::int64_t restNs = 0;       ///< first frame -> terminal frame
    std::int64_t latencyNs = 0;    ///< connect -> terminal frame
    std::string error;
};

inline std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/**
 * Load the request set from @p dataDir; @p registryOnly keeps just the
 * 17 registry scenarios (the smoke round).
 */
inline std::vector<ServeRequest>
loadServeRequests(const std::string &dataDir, bool registryOnly)
{
    std::vector<ServeRequest> out;
    for (const std::string &line :
         readLines(dataDir + "/registry_verdicts_2dev.txt")) {
        ServeRequest r;
        r.name = line.substr(0, line.find(':'));
        r.goldenVerdictLine = line;
        r.wire.scenario = r.name;
        out.push_back(std::move(r));
    }
    if (!registryOnly) {
        for (const std::string &line :
             readLines(dataDir + "/serve_cases.jsonl")) {
            const fuzz::CorpusEntry entry = fuzz::corpusEntryFromJson(line);
            ServeRequest r;
            r.name = entry.fuzzCase.name();
            r.wire.inlineCase = entry.fuzzCase;
            r.wire.devices = entry.fuzzCase.devices;
            r.storedSignature = entry.signature;
            r.capped = entry.fuzzCase.maxStates != 0;
            out.push_back(std::move(r));
        }
    }
    for (ServeRequest &r : out) {
        r.wire.id = r.name;
        r.wire.deterministic = true;
        r.frame = serve::renderRequestJson(r.wire);
    }
    return out;
}

/**
 * Run every request offline through one CheckSession with the
 * server's resolved engine knobs, recording the bytes the server must
 * reproduce, and check each result against its golden.
 */
inline void
computeOffline(std::vector<ServeRequest> &requests,
               const EngineOptions &serverEngine, Report &report)
{
    CheckSession session(serverEngine);
    for (ServeRequest &r : requests) {
        serve::ResolvedRequest rr =
            serve::resolveRequest(r.wire, serverEngine, 0);
        rr.check.engine = rr.engine;
        const CheckResult res = session.run(rr.check);
        r.expectedJson = res.renderJson(true);
        r.expectedVerdictLine = res.verdictText();
        r.offlineSeconds = res.seconds;
        r.offlineStates = res.states;
        bool good = true;
        if (!r.goldenVerdictLine.empty())
            good = r.name + ": " + r.expectedVerdictLine ==
                   r.goldenVerdictLine;
        if (r.storedSignature) {
            // Stored signatures come from the fuzz oracle's unreduced
            // reference run.  The server reduces symmetric free runs
            // of 3+ devices, which may name another device's conjunct
            // and count other states; compare only what symmetry
            // preserves there.
            const fuzz::VerdictSignature got =
                fuzz::signatureOf(res, r.capped);
            const fuzz::VerdictSignature &want = *r.storedSignature;
            good = res.symmetryReduction
                       ? got.verdict == want.verdict &&
                             got.kind == want.kind &&
                             got.family == want.family &&
                             got.depth == want.depth
                       : got.key() == want.key();
        }
        report.check(good, "offline " + r.name + ": " +
                               r.expectedVerdictLine);
    }
}

/** Send one request and read its stream to the terminal frame. */
inline ServedRecord
serveOne(const std::string &socketPath, const ServeRequest &req,
         bool expectCached)
{
    ServedRecord rec;
    const std::int64_t t0 = nowNs();
    const int fd = serve::connectUnixSocket(socketPath);
    const std::int64_t t1 = nowNs();
    rec.connectNs = t1 - t0;
    if (fd < 0) {
        rec.error = "connect failed";
        return rec;
    }
    const bool sent = serve::sendFrame(fd, req.frame);
    const std::int64_t t2 = nowNs();
    rec.sendNs = t2 - t1;
    serve::FrameReader reader;
    std::string line;
    std::int64_t first = 0;
    bool terminal = false;
    while (sent && serve::recvFrame(fd, reader, line)) {
        if (first == 0)
            first = nowNs();
        JsonValue frame;
        try {
            frame = parseJson(line);
        } catch (const std::exception &e) {
            rec.error = std::string("bad frame: ") + e.what();
            break;
        }
        const std::string type = frame.getStr("type");
        if (type == "progress")
            continue;
        terminal = true;
        if (type != "result") {
            rec.error = type + ": " + frame.getStr("message");
            break;
        }
        rec.cached = frame.getBool("cached");
        // The result object is the frame's last member; compare its
        // raw bytes, as cxl_check --connect relays them.
        const std::string marker = "\"result\": ";
        const std::size_t at = line.rfind(marker);
        const std::string body =
            at == std::string::npos
                ? std::string()
                : line.substr(at + marker.size(),
                              line.size() - at - marker.size() - 1);
        if (body != req.expectedJson)
            rec.error = "result differs from offline renderJson(true)";
        else if (rec.cached != expectCached)
            rec.error = expectCached ? "hit pass answered uncached"
                                     : "cold pass answered from cache";
        else if (!req.goldenVerdictLine.empty() &&
                 req.name + ": " + frame.getStr("verdict_line") !=
                     req.goldenVerdictLine)
            rec.error = "verdict line differs from golden";
        else
            rec.ok = true;
        break;
    }
    const std::int64_t t3 = nowNs();
    ::close(fd);
    if (!terminal && rec.error.empty())
        rec.error = "no terminal frame";
    rec.firstFrameNs = (first ? first : t3) - t2;
    rec.restNs = t3 - (first ? first : t3);
    rec.latencyNs = t3 - t0;
    return rec;
}

/**
 * One closed-loop pass: @p clients connections each take the next
 * request of @p order until it is exhausted.  Returns the records in
 * @p order's positions and the pass wall time, which starts once every
 * client thread is up and ends with the last answer.
 */
inline double
runPass(const std::string &socketPath,
        const std::vector<ServeRequest> &requests,
        const std::vector<std::size_t> &order, std::size_t clients,
        bool expectCached, std::vector<ServedRecord> &records)
{
    records.assign(order.size(), ServedRecord{});
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::int64_t> end{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            for (;;) {
                const std::size_t k = next.fetch_add(1);
                if (k >= order.size())
                    break;
                records[k] = serveOne(socketPath, requests[order[k]],
                                      expectCached);
            }
            const std::int64_t now = nowNs();
            std::int64_t prev = end.load();
            while (now > prev && !end.compare_exchange_weak(prev, now)) {
            }
        });
    }
    while (ready.load() < clients)
        std::this_thread::yield();
    const std::int64_t t0 = nowNs();
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    return static_cast<double>(end.load() - t0) * 1e-9;
}

/** Fold a pass's per-request timings into one span's children. */
inline void
recordPassSpan(Trace &trace, std::uint32_t span,
               const std::vector<ServedRecord> &records)
{
    LayerAcc connect, send, first, rest;
    for (const ServedRecord &r : records) {
        connect.add(1, r.connectNs);
        send.add(1, r.sendNs);
        first.add(1, r.firstFrameNs);
        rest.add(1, r.restNs);
    }
    Span &s = trace.at(span);
    s.attrs = {{"requests", records.size()}};
    s.children = {{"serve.connect", connect},
                  {"serve.send", send},
                  {"serve.first_frame", first},
                  {"serve.rest", rest}};
}

/** How a serve child runs. */
struct ServeRun {
    std::string dataDir;
    std::string socketDir;
    bool registryOnly = false; ///< the 17 registry requests only
    int hitPasses = 10;        ///< hit passes per round
    double seconds = 0;        ///< window; as many rounds as fit, >= 1
    std::uint64_t seed = 1;
    bool traced = false;
    std::string traceOut;
};

/**
 * The serve workload.  Each round starts a fresh server (2 workers,
 * engine threads 1, 1024 cache entries) and sends one cold pass from
 * T connections, then hitPasses passes of the same set, all answered
 * from the cache; then a second fresh server takes one cold pass from
 * a single connection.  Cold passes send the heaviest request first
 * and the rest in seeded order, so neither their wall nor their
 * memory peak depends on where the seed put it; hit passes are in
 * seeded order.  The per-layer run_s is the median T-connection
 * cold-pass wall (a CI job submitting its matrix concurrently to a
 * fresh daemon); run_1t_s the median single-connection cold-pass wall
 * (`cxl_check --connect --all`).  Hit passes feed only latencies: a
 * hit pass is a few milliseconds of thread wake-ups, whose cost swings
 * with host load far more than any bound allows.
 */
inline Report
runServeChild(const ServeRun &run)
{
    PeakSampler mem;
    Report report;
    const std::size_t clients = loadThreads();
    unsigned sockets = 0;
    auto options = [&] {
        serve::ServerOptions o;
        o.socketPath = run.socketDir + "/cxl_bench." +
                       std::to_string(::getpid()) + "." +
                       std::to_string(sockets++) + ".sock";
        o.workers = std::min<std::size_t>(2, clients);
        o.cacheEntries = 1024;
        o.engine.threads = 1;
        return o;
    };

    // Set-up: Server::start until the first stats request is answered,
    // on throwaway servers between the hit passes, so that set-ups are
    // sampled across the whole window.  One sample is the mean of a
    // batch of kSetupBatch starts.
    std::vector<double> setups, builds;
    auto timeSetUps = [&] {
        double total = 0;
        for (int k = 0; k < kSetupBatch; ++k) {
            serve::Server server(options());
            const std::int64_t t0 = nowNs();
            server.start();
            std::string error;
            const bool answered =
                !serve::fetchStats(server.socketPath(), error).empty();
            total += secondsSince(t0);
            report.check(answered, "stats request: " + error);
            server.drain();
        }
        setups.push_back(total / kSetupBatch);
    };
    auto timeModelBuild = [&] {
        const std::int64_t t0 = nowNs();
        CheckSession session;
        session.ruleSet(ProtocolConfig::correct(), kDefaultNumDevices);
        session.invariantSet(ProtocolConfig::correct(),
                             kDefaultNumDevices);
        builds.push_back(secondsSince(t0));
    };

    std::vector<ServeRequest> requests =
        loadServeRequests(run.dataDir, run.registryOnly);
    computeOffline(requests, options().engine, report);
    std::size_t heavy = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].offlineStates > requests[heavy].offlineStates)
            heavy = i;
    }

    Trace trace;
    std::vector<double> coldT, cold1, peakMb, coldMs, hitMs, connectUs,
        firstFrameMs, overheadMs;
    double passSeconds = 0;
    std::uint64_t completed = 0;
    std::uint64_t hits = 0, lookups = 0, reuses = 0, modelUses = 0;

    auto pass = [&](serve::Server &server, const std::string &name,
                    const std::vector<std::size_t> &order,
                    std::size_t conns, bool cached,
                    std::uint32_t parent) {
        const std::uint32_t span =
            run.traced ? trace.open(name, parent) : 0;
        std::vector<ServedRecord> recs;
        const double wall = runPass(server.socketPath(), requests, order,
                                    conns, cached, recs);
        if (run.traced) {
            trace.close(span);
            recordPassSpan(trace, span, recs);
        }
        passSeconds += wall;
        for (std::size_t k = 0; k < recs.size(); ++k) {
            report.check(recs[k].ok, name + " " +
                                         requests[order[k]].name + ": " +
                                         recs[k].error);
            completed += recs[k].ok;
        }
        return std::make_pair(wall, recs);
    };
    auto checkStats = [&](const serve::ServerStats &s) {
        report.check(s.errors == 0 && s.rejected == 0,
                     "server counted errors or turn-aways");
    };

    const std::int64_t t0 = nowNs();
    for (int round = 0; round == 0 || fitsAnother(t0, round, run.seconds);
         ++round) {
        SplitMix64 rng(mix64(run.seed) + static_cast<std::uint64_t>(round));
        auto shuffled = [&](bool heavyFirst) {
            std::vector<std::size_t> order;
            if (heavyFirst)
                order.push_back(heavy);
            for (std::size_t i = 0; i < requests.size(); ++i) {
                if (!heavyFirst || i != heavy)
                    order.push_back(i);
            }
            const std::size_t lo = heavyFirst ? 1 : 0;
            for (std::size_t i = order.size(); i > lo + 1; --i) {
                const std::size_t j =
                    lo + rng.below(static_cast<std::uint32_t>(i - lo));
                std::swap(order[i - 1], order[j]);
            }
            return order;
        };
        const std::uint32_t roundSpan =
            run.traced ? trace.open("serve.round", 0) : 0;
        timeModelBuild();
        {
            serve::Server server(options());
            server.start();
            const std::vector<std::size_t> order = shuffled(true);
            const auto [wall, recs] =
                pass(server, "serve.cold_pass", order, clients, false,
                     roundSpan);
            coldT.push_back(wall);
            for (std::size_t k = 0; k < recs.size(); ++k) {
                const double ms = static_cast<double>(recs[k].latencyNs) / 1e6;
                coldMs.push_back(ms);
                connectUs.push_back(
                    static_cast<double>(recs[k].connectNs) / 1e3);
                firstFrameMs.push_back(
                    static_cast<double>(recs[k].firstFrameNs) / 1e6);
                overheadMs.push_back(
                    ms - requests[order[k]].offlineSeconds * 1e3);
            }
            for (int h = 0; h < run.hitPasses; ++h) {
                timeSetUps();
                const auto hit =
                    pass(server, "serve.hit_pass", shuffled(false),
                         clients, true, roundSpan);
                for (const ServedRecord &r : hit.second)
                    hitMs.push_back(static_cast<double>(r.latencyNs) / 1e6);
            }
            const serve::ServerStats s = server.stats();
            checkStats(s);
            hits += s.cache.hits;
            lookups += s.cache.hits + s.cache.misses;
            reuses += s.modelReuses;
            modelUses += s.modelReuses + s.modelBuilds;
            server.drain();
        }
        // Peak memory is taken over the single-connection pass only:
        // its requests run one at a time, so the peak does not depend
        // on which requests happened to overlap.
        releaseFreeHeap();
        mem.takePeak();
        {
            serve::Server server(options());
            server.start();
            cold1.push_back(pass(server, "serve.cold_pass_1c",
                                 shuffled(true), 1, false, roundSpan)
                                .first);
            checkStats(server.stats());
            server.drain();
        }
        peakMb.push_back(static_cast<double>(mem.takePeak()) / 1e6);
        if (run.traced)
            trace.close(roundSpan);
    }

    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    report.samples["setup_s"] = setups;
    report.samples["peak_mem_mb"] = peakMb;
    report.set("setup_s", median(setups));
    report.set("run_s", median(coldT));
    report.set("run_1t_s", median(cold1));
    report.set("peak_mem_mb", median(peakMb));
    report.set("api.model_build_ms", median(builds) * 1e3);
    report.set("serve.connect_us", median(connectUs));
    report.set("serve.first_frame_ms", median(firstFrameMs));
    report.set("serve.overhead_ms", median(overheadMs));
    report.set("serve.hit_ratio", ratio(hits, lookups));
    report.set("serve.model_reuse_ratio", ratio(reuses, modelUses));
    report.set("serve.cold_p50_ms", percentile(coldMs, 50));
    report.set("serve.cold_p90_ms", percentile(coldMs, 90));
    report.set("serve.hit_p50_ms", percentile(hitMs, 50));
    report.set("serve.hit_p99_ms", percentile(hitMs, 99));
    report.set("serve.req_per_s",
               passSeconds > 0 ? static_cast<double>(completed) / passSeconds
                               : 0.0);

    if (run.traced && !run.traceOut.empty())
        report.check(trace.write(run.traceOut, "serve"),
                     "cannot write " + run.traceOut);
    return report;
}

} // namespace cxl::bench

#endif // CXL_BENCH_SERVE_LOAD_HH
