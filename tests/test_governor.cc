/**
 * @file
 * Tests for the run governor: wall-clock deadlines, memory ceilings,
 * cooperative cancellation (including the SIGINT bridge), graceful
 * shard-full stops, and the quarantine of budget-stopped oracle
 * arms — every stop cause must land as a well-formed Incomplete
 * verdict with an exact explored prefix and an honest deepest
 * complete level, never as an exception.  A worker's own exception,
 * by contrast, must reach run()'s caller.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/check.hh"
#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "fuzz/corpus.hh"
#include "fuzz/oracle.hh"
#include "support/governor.hh"
#include "support/json_parse.hh"
#include "support/resource.hh"

namespace cxl
{
namespace
{

/** Uncapped 2-device free-run size (see test_api.cc). */
constexpr std::uint64_t kTwoDevFreeRunStates = 5218;

CheckRequest
freeRunRequest(int devices, const EngineOptions &engine)
{
    CheckRequest req;
    req.scenario = "free-run";
    req.devices = devices;
    EngineOptions opt = engine;
    if (devices > 2)
        opt.symmetry = SymmetryMode::Off; // keep the space big
    req.engine = opt;
    return req;
}

/**
 * The invariants every governed stop must satisfy, whatever the
 * cause: Incomplete verdict, the expected stop reason, a non-empty
 * explored prefix, a consistent deepest-complete level, and JSON
 * that parses with the matching "stop_reason" word.
 */
void
expectGovernedStop(const CheckResult &res, StopReason reason,
                   const char *jsonWord)
{
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Incomplete);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.stopReason, reason);
    EXPECT_GE(res.states, 1u); // the initial state at least
    EXPECT_LE(res.deepestCompleteLevel, res.diameter);
    EXPECT_NE(res.renderText().find(stopReasonPhrase(reason)),
              std::string::npos);

    const JsonValue doc = parseJson(res.renderJson());
    ASSERT_EQ(doc.kind(), JsonValue::Kind::Object);
    EXPECT_EQ(doc.getStr("verdict"), "incomplete");
    EXPECT_FALSE(doc.getBool("completed"));
    EXPECT_EQ(doc.getStr("stop_reason"), jsonWord);
    ASSERT_NE(doc.get("deepest_complete_level"), nullptr);
    EXPECT_LE(doc.getNum("deepest_complete_level"),
              doc.getNum("diameter"));
}

// ------------------------------------------------------- deadlines

TEST(Governor, DeadlineStopsEveryScheduleAndThreadCount)
{
    // A microscopic budget trips at the very first poll, so the run
    // reports the smallest possible prefix — at any thread count,
    // under both schedules, without an exception in sight.
    CheckSession session;
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        for (std::size_t threads : {1u, 4u, 8u}) {
            EngineOptions engine;
            engine.schedule = sched;
            engine.threads = threads;
            engine.maxSeconds = 1e-6;
            CheckResult res;
            ASSERT_NO_THROW(
                res = session.run(freeRunRequest(2, engine)))
                << "schedule " << static_cast<int>(sched)
                << " threads " << threads;
            expectGovernedStop(res, StopReason::Deadline, "deadline");
            EXPECT_LE(res.states, kTwoDevFreeRunStates);
        }
    }
}

TEST(Governor, DeadlineTruncatesABigSpaceMidFlight)
{
    // 3-device unreduced free-run is ~861k states — far more than
    // 20 ms of exploration.  The run must stop with a strict prefix
    // under every schedule x thread-count combination.
    CheckSession session;
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        for (std::size_t threads : {1u, 4u, 8u}) {
            EngineOptions engine;
            engine.schedule = sched;
            engine.threads = threads;
            engine.maxSeconds = 0.02;
            const CheckResult res =
                session.run(freeRunRequest(3, engine));
            expectGovernedStop(res, StopReason::Deadline, "deadline");
            EXPECT_LT(res.states, 860925u);
        }
    }
}

// -------------------------------------------------- memory ceiling

TEST(Governor, MemoryCeilingStopsBothSchedules)
{
    // A 1-byte ceiling is below any process's resident set, so the
    // governor's very first RSS sample trips it.
    CheckSession session;
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        EngineOptions engine;
        engine.schedule = sched;
        engine.threads = 4;
        engine.maxRssBytes = 1;
        const CheckResult res =
            session.run(freeRunRequest(2, engine));
        expectGovernedStop(res, StopReason::Memory, "memory");
        // The sample that tripped the ceiling is the metered peak.
        EXPECT_GT(res.meteredPeakBytes, engine.maxRssBytes);
    }
}

TEST(Governor, AHeldCeilingReportsAMeteredPeakWithinIt)
{
    // The metered peak is the largest sample the ceiling was checked
    // against, so a run that held its ceiling reports at most the
    // ceiling — unlike peak_rss_bytes, the process-lifetime maximum
    // of a different measure.  It is observation only: zeroed in
    // deterministic JSON, and 0 when no ceiling asked for samples.
    CheckSession session;
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        EngineOptions engine;
        engine.schedule = sched;
        engine.threads = 4;
        engine.symmetry = SymmetryMode::On;
        engine.maxRssBytes = meteredMemoryBytes() + 256ull * 1024 * 1024;
        CheckRequest req = freeRunRequest(2, engine);
        req.devices = 3; // the 144,294-state symmetric space
        const CheckResult res = session.run(req);
        ASSERT_EQ(res.verdict, CheckResult::Verdict::Holds);
        EXPECT_GT(res.meteredPeakBytes, 0u);
        EXPECT_LE(res.meteredPeakBytes, engine.maxRssBytes);
        const JsonValue doc = parseJson(res.renderJson());
        EXPECT_EQ(doc.getNum("metered_peak_bytes"),
                  static_cast<double>(res.meteredPeakBytes));
        EXPECT_LE(doc.getNum("metered_peak_bytes"),
                  static_cast<double>(engine.maxRssBytes));
        EXPECT_EQ(parseJson(res.renderJson(true))
                      .getNum("metered_peak_bytes"),
                  0.0);
        EXPECT_NE(res.renderText().find("metered peak"), std::string::npos)
            << res.renderText();
        EXPECT_NE(res.renderText().find("peak RSS"), std::string::npos);

        engine.maxRssBytes = 0;
        req.engine = engine;
        EXPECT_EQ(session.run(req).meteredPeakBytes, 0u);
    }
}

#if defined(__linux__)
TEST(Governor, MemoryCeilingSkipsFilesUnderAStoreDir)
{
    // Pages of backing files under --store-dir are reclaimable by
    // writeback, so they do not count: an mmap-store run whose
    // mappings dwarf the ceiling's headroom still completes.  The
    // ceiling is the current metered footprint plus generous slack
    // for the run's heap.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cxl_governor_store_dir";
    fs::create_directories(dir);
    CheckSession session;
    EngineOptions engine;
    engine.threads = 4;
    engine.store = StoreKind::Mmap;
    engine.storeDir = dir.string();
    engine.maxRssBytes = meteredMemoryBytes() + 256ull * 1024 * 1024;
    const CheckResult res = session.run(freeRunRequest(2, engine));
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Holds);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.states, kTwoDevFreeRunStates);
    // The run reports its file-backed footprint separately.
    EXPECT_GT(res.mappedFileBytes, 0u);
    EXPECT_GT(res.storeFileBytes, 0u);
    const JsonValue doc = parseJson(res.renderJson());
    EXPECT_GT(doc.getNum("mapped_file_bytes"), 0.0);
    EXPECT_GT(doc.getNum("store_file_bytes"), 0.0);
    // Deterministic rendering zeroes both, like the other
    // wall-clock/allocator keys.
    const JsonValue det = parseJson(res.renderJson(true));
    EXPECT_EQ(det.getNum("mapped_file_bytes"), 0.0);
    EXPECT_EQ(det.getNum("store_file_bytes"), 0.0);
    fs::remove_all(dir);
}

TEST(Governor, MemoryCeilingCountsMemfdBacking)
{
    // Without --store-dir the mmap store lives in memfd, which is RAM
    // whether mapped or not: the ceiling must see it.  The unreduced
    // 3-device space needs ~23.6 MB of memfd store (and ~2 MB of
    // anonymous memory besides), so a ceiling 16 MB above the current
    // footprint has to trip mid-run, and would not if memfd went
    // unmetered.
    const std::uint64_t before = meteredMemoryBytes();
    CheckSession session;
    EngineOptions engine;
    engine.threads = 4;
    engine.store = StoreKind::Mmap;
    engine.maxRssBytes = before + 16ull * 1000 * 1000;
    const CheckResult res = session.run(freeRunRequest(3, engine));
    expectGovernedStop(res, StopReason::Memory, "memory");
    EXPECT_LT(res.states, 860925u);
    EXPECT_GT(res.storeFileBytes, 0u);
}
#endif // __linux__

// ----------------------------------------------------- cancellation

TEST(Governor, PreCancelledTokenStopsBeforeExpansion)
{
    const CancelToken token = CancelToken::create();
    token.cancel();
    CheckSession session;
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        for (std::size_t threads : {1u, 4u}) {
            EngineOptions engine;
            engine.schedule = sched;
            engine.threads = threads;
            engine.cancel = token;
            const CheckResult res =
                session.run(freeRunRequest(2, engine));
            expectGovernedStop(res, StopReason::Cancelled,
                               "cancelled");
        }
    }
}

TEST(Governor, AsyncCancelStopsARunningExploration)
{
    // Cancel from another thread mid-run: the 3-device space takes
    // seconds, the cancel lands after ~30 ms, and the run must come
    // back promptly with the explored prefix.
    const CancelToken token = CancelToken::create();
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        token.cancel();
    });
    EngineOptions engine;
    engine.schedule = Schedule::WorkSteal;
    engine.threads = 4;
    engine.cancel = token;
    CheckSession session;
    const CheckResult res = session.run(freeRunRequest(3, engine));
    canceller.join();
    expectGovernedStop(res, StopReason::Cancelled, "cancelled");
    EXPECT_LT(res.states, 860925u);
}

TEST(Governor, InvalidTokenMeansNotCancellable)
{
    // A default-constructed (invalid) token never reads cancelled,
    // so an unbudgeted run completes exactly as before.
    const CancelToken none;
    EXPECT_FALSE(none.valid());
    EXPECT_FALSE(none.cancelled());
}

TEST(Governor, SigintTripsTheInstalledToken)
{
    // The CLI bridge: installSignalCancel binds the token, raise()
    // stands in for a user's Ctrl-C, and the next run ends as a
    // graceful cancelled Incomplete — same shape as the token API.
    const CancelToken token = CancelToken::create();
    installSignalCancel(token);
    ASSERT_FALSE(token.cancelled());
    std::raise(SIGINT);
    EXPECT_TRUE(token.cancelled());
    uninstallSignalCancel();

    EngineOptions engine;
    engine.cancel = token;
    engine.threads = 2;
    CheckSession session;
    const CheckResult res = session.run(freeRunRequest(2, engine));
    expectGovernedStop(res, StopReason::Cancelled, "cancelled");
}

TEST(Governor, SignalBridgeInstallIsFirstWins)
{
    // Layered installs (the daemon claims the bridge before
    // standardOptions arms the every-CLI one): the first token stays
    // bound and every later call is handed that same token back —
    // observable as flag aliasing.
    const CancelToken first = CancelToken::create();
    installSignalCancel(first);

    const CancelToken second = CancelToken::create();
    const CancelToken bound = installSignalCancel(second);
    ASSERT_TRUE(bound.valid());

    std::raise(SIGTERM);
    EXPECT_TRUE(first.cancelled());
    EXPECT_TRUE(bound.cancelled()); // bound aliases first, ...
    EXPECT_FALSE(second.cancelled()); // ... not the late-comer
    uninstallSignalCancel();

    // After uninstall the bridge is free for a fresh token.
    const CancelToken fresh = CancelToken::create();
    const CancelToken rebound = installSignalCancel(fresh);
    EXPECT_FALSE(rebound.cancelled());
    std::raise(SIGINT);
    EXPECT_TRUE(fresh.cancelled());
    EXPECT_TRUE(rebound.cancelled());
    uninstallSignalCancel();
}

TEST(Governor, SignalBridgeIgnoresInvalidTokens)
{
    // An invalid token installs nothing: no handler is armed, and
    // the invalid token is just echoed back.
    const CancelToken none;
    EXPECT_FALSE(installSignalCancel(none).valid());

    // A real install still works afterwards, and an invalid-token
    // call then returns the bound token (flag-aliased).
    const CancelToken token = CancelToken::create();
    installSignalCancel(token);
    const CancelToken bound = installSignalCancel(none);
    ASSERT_TRUE(bound.valid());
    token.cancel();
    EXPECT_TRUE(bound.cancelled());
    uninstallSignalCancel();
}

TEST(Governor, SignalBridgeInstallIsThreadSafe)
{
    // Concurrent installs agree on a single winner; every caller is
    // handed the same token, so layered front-ends can't split the
    // bridge.
    constexpr int kThreads = 8;
    std::vector<CancelToken> returned(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&returned, i] {
            returned[i] = installSignalCancel(CancelToken::create());
        });
    }
    for (std::thread &t : threads)
        t.join();
    returned[0].cancel();
    for (int i = 1; i < kThreads; ++i) {
        ASSERT_TRUE(returned[i].valid()) << i;
        EXPECT_TRUE(returned[i].cancelled()) << i;
    }
    uninstallSignalCancel();
}

// ------------------------------------------------------ shard full

TEST(Governor, ShardFullStopsGracefullyAtToyCapacity)
{
    // A 64-entry store cannot hold the 5218-state space; the
    // StoreFullError must be converted into a graceful Incomplete,
    // not escape as an exception.
    CheckSession session;
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        for (std::size_t threads : {1u, 4u}) {
            EngineOptions engine;
            engine.schedule = sched;
            engine.threads = threads;
            engine.storeCapacity = 64;
            CheckResult res;
            ASSERT_NO_THROW(
                res = session.run(freeRunRequest(2, engine)))
                << "schedule " << static_cast<int>(sched)
                << " threads " << threads;
            expectGovernedStop(res, StopReason::ShardFull,
                               "shard_full");
            EXPECT_LT(res.states, kTwoDevFreeRunStates);
        }
    }
}

TEST(Governor, StoreFullErrorNamesShardAndRemedies)
{
    // The raw store-level throw (what the explorers catch) must tell
    // a user which shard filled and which flags raise the ceiling.
    StateStore store(16, /*capacity_limit=*/16); // 1 entry per shard
    SystemState parent = initialAllInvalid();
    auto [pid, fresh] = store.insert(parent, 0);
    ASSERT_TRUE(fresh);
    try {
        // Distinct states eventually revisit pid's shard and overflow
        // its single slot.
        for (Val v = 1; v < 64; ++v)
            store.insert(initialBothShared(v), 1);
        FAIL() << "expected StoreFullError";
    } catch (const StoreFullError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shard"), std::string::npos) << what;
        // The message names the computed per-shard ceiling (16
        // states across 16 shards -> 1 entry) ...
        EXPECT_NE(what.find("per-shard limit 1 entries"),
                  std::string::npos)
            << what;
        // ... and every store kind a user could switch to.
        EXPECT_NE(what.find("--expect-states"), std::string::npos)
            << what;
        EXPECT_NE(what.find("--store=ram|mmap;"), std::string::npos)
            << what;
        EXPECT_LT(e.shard(), StateStore::kNumShards);
    }
}

// ------------------------------------------ deepest complete level

/**
 * States of the 2-device free run at depth <= d, from a plain
 * level-by-level walk of the whole space (states canonical as the
 * explorer stores them: tids relabelled, no symmetry reduction).
 */
std::uint64_t
statesUpToDepth(std::uint32_t d)
{
    static const std::vector<std::uint64_t> up_to = [] {
        const RuleSet rules(ProtocolConfig::correct());
        const Scenario sc = Scenario::freeRunScenario();
        StateStore store;
        SystemState s = sc.initial;
        s.canonicaliseTids();
        std::vector<std::uint32_t> level{store.insert(s, 0).first};
        std::vector<std::uint32_t> next;
        std::vector<RuleSet::Successor> succs;
        std::vector<std::uint64_t> counts;
        while (!level.empty()) {
            counts.push_back(store.size());
            const auto depth = static_cast<std::uint32_t>(counts.size());
            next.clear();
            for (std::uint32_t id : level) {
                store.stateInto(id, s);
                rules.successorsInto(s, sc, true, succs);
                for (const RuleSet::Successor &succ : succs) {
                    const auto [sid, fresh] = store.insert(succ.state, depth);
                    if (fresh)
                        next.push_back(sid);
                }
            }
            level.swap(next);
        }
        return counts;
    }();
    return up_to[std::min<std::size_t>(d, up_to.size() - 1)];
}

TEST(Governor, DeepestCompleteLevelIsReallyComplete)
{
    // deepestCompleteLevel = L promises every successor of every
    // state at depth <= L was generated, so the run must hold at
    // least every state at depth <= L + 1.  Sweep the stopping point
    // through the early levels with both stop causes that drop
    // staged successors (the state cap and a full shard), under both
    // schedules.  A stop during level 0 reports 0 and promises
    // nothing, so only L > 0 is checked.
    const ProtocolConfig config = ProtocolConfig::correct();
    const RuleSet rules(config);
    const Scenario sc = Scenario::freeRunScenario();
    const InvariantSet inv = InvariantSet::full(config);
    auto check = [&](const ExploreOptions &opt, const char *what) {
        const ExploreResult res = Explorer(rules, sc, inv).run(opt);
        const std::string tag =
            std::string(what) + " sched " +
            std::to_string(static_cast<int>(opt.schedule)) +
            " threads " + std::to_string(opt.threads) +
            " maxStates " + std::to_string(opt.maxStates) +
            " capacity " + std::to_string(opt.storeCapacity);
        ASSERT_FALSE(res.completed) << tag;
        EXPECT_LE(res.deepestCompleteLevel, res.maxDepth) << tag;
        if (res.deepestCompleteLevel > 0) {
            EXPECT_GE(res.numStates,
                      statesUpToDepth(res.deepestCompleteLevel + 1))
                << tag << ": level " << res.deepestCompleteLevel
                << " reported complete with " << res.numStates
                << " states";
        }
    };
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        for (std::size_t threads : {1u, 4u}) {
            ExploreOptions opt;
            opt.schedule = sched;
            opt.threads = threads;
            const std::uint64_t step = threads == 1 ? 1 : 13;
            for (std::uint64_t cap = 2; cap <= 600; cap += step) {
                opt.maxStates = cap;
                check(opt, "state cap");
            }
            opt.maxStates = 0; // uncapped: kDefaultMaxStates
            for (std::uint64_t capacity = 16; capacity <= 4096;
                 capacity *= 2) {
                opt.storeCapacity = capacity;
                check(opt, "shard full");
            }
        }
    }
}

// ------------------------------------------------ worker exceptions

TEST(Governor, WorkerExceptionPropagatesFromRun)
{
    // A guard that throws mid-run (here: after a few hundred calls,
    // inside a worker under both schedules) is not a governed stop:
    // the worker guard must hand the exception itself to run()'s
    // caller, at any thread count.
    const ProtocolConfig config = ProtocolConfig::correct();
    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        for (std::size_t threads : {1u, 4u}) {
            std::atomic<int> calls{0};
            RuleSet rules(config);
            rules.addRule(
                {"planted_thrower",
                 [](const Rule &r, const SystemState &,
                    const Context &) -> bool {
                     auto &n = *static_cast<std::atomic<int> *>(r.env());
                     if (n.fetch_add(1) >= 500)
                         throw std::runtime_error("planted guard failure");
                     return false; // never fires before the throw
                 },
                 [](const Rule &, SystemState &, const Context &) {
                     return true;
                 },
                 &calls});

            ExploreOptions opt;
            opt.schedule = sched;
            opt.threads = threads;
            const Scenario sc = Scenario::freeRunScenario();
            const InvariantSet inv = InvariantSet::full(config);
            Explorer ex(rules, sc, inv);
            try {
                ex.run(opt);
                ADD_FAILURE() << "no exception: schedule "
                              << static_cast<int>(sched) << " threads "
                              << threads;
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "planted guard failure");
            }
        }
    }
}

// ------------------------------------------- completed-run baseline

TEST(Governor, CompletedRunsCarryNoStopReason)
{
    CheckSession session;
    const CheckResult res =
        session.run(freeRunRequest(2, EngineOptions{}));
    EXPECT_TRUE(res.holds());
    EXPECT_EQ(res.stopReason, StopReason::None);
    EXPECT_EQ(res.deepestCompleteLevel, res.diameter);

    const JsonValue doc = parseJson(res.renderJson());
    ASSERT_NE(doc.get("stop_reason"), nullptr);
    EXPECT_TRUE(doc.get("stop_reason")->isNull());
    EXPECT_EQ(doc.getNum("deepest_complete_level"),
              doc.getNum("diameter"));
}

// -------------------------------------------------- oracle quarantine

TEST(Oracle, PlantedSlowArmIsQuarantinedNotCompared)
{
    // Plant a guard that naps on every evaluation into exactly one
    // portfolio arm: that arm blows the per-arm budget and must be
    // quarantined (reported, excluded from the cross-checks) while
    // the untouched reference still decides the case.
    fuzz::FuzzCase c;
    c.devices = 2;
    c.init = fuzz::InitKind::BothShared;
    c.programs = {{Instr::Store}, {Instr::Load}};

    fuzz::OracleOptions oopt;
    oopt.portfolio = {
        fuzz::ComboDesc{Schedule::WorkSteal, false, false,
                        StoreKind::InRam, 1}};
    oopt.randomWalkProbe = false;
    oopt.armMaxSeconds = 0.2;
    oopt.sessionHook = [&](CheckSession &session,
                           const fuzz::ComboDesc &combo) {
        if (combo.schedule != Schedule::WorkSteal)
            return;
        session.mutableRuleSet(c.config, c.devices)
            .addRule({"planted_sleeper",
                      [](const Rule &, const SystemState &,
                         const Context &) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                          return false; // never fires: just slow
                      },
                      [](const Rule &, SystemState &, const Context &) {
                          return true;
                      }});
    };
    const fuzz::Oracle oracle(std::move(oopt));
    const fuzz::OracleReport report = oracle.check(c);

    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_NE(report.quarantined[0].find("ws/"), std::string::npos)
        << report.quarantined[0];
    EXPECT_NE(report.quarantined[0].find(
                  stopReasonPhrase(StopReason::Deadline)),
              std::string::npos)
        << report.quarantined[0];
    EXPECT_FALSE(report.diverged())
        << "a quarantined arm must not be compared";
    EXPECT_NE(report.reference.verdict, "incomplete")
        << "the unbudgeted-in-practice reference still decides";
}

// ------------------------------------------------- corpus handling

TEST(Corpus, MalformedEntryNamesTheOffendingFile)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cxl_governor_corpus_test";
    fs::create_directories(dir);
    const fs::path bad = dir / "broken.json";
    {
        std::ofstream out(bad);
        out << "{ this is not json";
    }
    try {
        fuzz::loadCorpus(dir.string());
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("broken.json"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace cxl
