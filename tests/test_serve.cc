/**
 * @file
 * Unit and end-to-end tests for the cxl_checkd serve layer: the
 * cxl-checkd/v1 wire protocol (round-trip, goldens, framing over a
 * real socketpair), cache-key canonicalization (aliases and knob
 * spellings collapse, distinct semantics never alias, Incomplete is
 * never cacheable), the bounded LRU result cache, and a live server
 * on a tmp socket — concurrent clients, served-vs-offline byte
 * identity, cache replay, client-disconnect cancellation and drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "api/check.hh"
#include "api/scenarios.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/json_parse.hh"

namespace cxl::serve
{
namespace
{

// --------------------------------------------------- wire protocol

Request
fullRequest()
{
    Request r;
    r.id = "req-7";
    r.scenario = "clean_evict_test";
    r.devices = 2;
    r.checks = CheckKind::Invariants;
    r.families = std::vector<std::string>{"swmr", "dir"};
    r.engine.threads = 3;
    r.engine.symmetry = SymmetryMode::Off;
    r.engine.store = StoreKind::Mmap;
    r.engine.por = true;
    r.engine.maxStates = 12345;
    r.engine.expectStates = 99;
    r.engine.maxSeconds = 1.5;
    r.engine.maxRssMb = 512;
    r.deterministic = true;
    r.progress = false;
    r.progressInterval = 0.5;
    return r;
}

TEST(ServeProtocol, RequestRoundTripsThroughJson)
{
    const Request r = fullRequest();
    const Request p = requestFromJson(renderRequestJson(r));
    EXPECT_EQ(p.type, Request::Type::Check);
    EXPECT_EQ(p.id, r.id);
    EXPECT_EQ(p.scenario, r.scenario);
    EXPECT_FALSE(p.inlineCase.has_value());
    EXPECT_EQ(p.devices, r.devices);
    EXPECT_EQ(p.checks, CheckKind::Invariants);
    ASSERT_TRUE(p.families.has_value());
    EXPECT_EQ(*p.families, *r.families);
    EXPECT_EQ(p.engine.threads, r.engine.threads);
    EXPECT_EQ(p.engine.symmetry, r.engine.symmetry);
    EXPECT_EQ(p.engine.store, r.engine.store);
    EXPECT_EQ(p.engine.por, r.engine.por);
    EXPECT_EQ(p.engine.maxStates, r.engine.maxStates);
    EXPECT_EQ(p.engine.expectStates, r.engine.expectStates);
    EXPECT_EQ(p.engine.maxSeconds, r.engine.maxSeconds);
    EXPECT_EQ(p.engine.maxRssMb, r.engine.maxRssMb);
    EXPECT_TRUE(p.deterministic);
    EXPECT_FALSE(p.progress);
    EXPECT_EQ(p.progressInterval, 0.5);
}

TEST(ServeProtocol, InlineCaseRoundTripsThroughJson)
{
    fuzz::FuzzCase c;
    c.devices = 2;
    c.freeRun = true;
    c.maxStates = 500;
    c.config.relaxSnoopPushesGo = true;

    Request r;
    r.id = "inline-1";
    r.inlineCase = c;
    const Request p = requestFromJson(renderRequestJson(r));
    ASSERT_TRUE(p.inlineCase.has_value());
    EXPECT_TRUE(*p.inlineCase == c);
    EXPECT_TRUE(p.scenario.empty());
}

TEST(ServeProtocol, MinimalRequestKeepsDefaults)
{
    const std::string text = "{\"schema\": \"cxl-checkd/v1\", "
                             "\"type\": \"check\", \"id\": \"x\", "
                             "\"scenario\": \"free-run\"}";
    const Request p = requestFromJson(text);
    EXPECT_EQ(p.id, "x");
    EXPECT_EQ(p.scenario, "free-run");
    EXPECT_EQ(p.devices, kDefaultNumDevices);
    EXPECT_EQ(p.checks, CheckKind::Both);
    EXPECT_FALSE(p.config.has_value());
    EXPECT_FALSE(p.families.has_value());
    EXPECT_FALSE(p.engine.threads.has_value());
    EXPECT_FALSE(p.engine.maxSeconds.has_value());
    EXPECT_FALSE(p.deterministic);
    EXPECT_TRUE(p.progress);
    EXPECT_EQ(p.progressInterval, 0.25);
}

TEST(ServeProtocol, MalformedRequestsThrow)
{
    // Junk, wrong schema, wrong type.
    EXPECT_THROW(requestFromJson("not json"), std::exception);
    EXPECT_THROW(requestFromJson("{\"schema\": \"other/v1\", "
                                 "\"type\": \"check\", \"id\": \"x\", "
                                 "\"scenario\": \"free-run\"}"),
                 std::runtime_error);
    EXPECT_THROW(requestFromJson("{\"schema\": \"cxl-checkd/v1\", "
                                 "\"type\": \"frobnicate\", "
                                 "\"id\": \"x\"}"),
                 std::runtime_error);

    // A check must carry exactly one of scenario|case.
    EXPECT_THROW(requestFromJson("{\"schema\": \"cxl-checkd/v1\", "
                                 "\"type\": \"check\", \"id\": \"x\"}"),
                 std::runtime_error);
    const std::string both =
        "{\"schema\": \"cxl-checkd/v1\", \"type\": \"check\", "
        "\"id\": \"x\", \"scenario\": \"free-run\", \"case\": " +
        fuzz::FuzzCase{}.renderJson() + "}";
    EXPECT_THROW(requestFromJson(both), std::runtime_error);

    // Junk knob words.
    EXPECT_THROW(
        requestFromJson("{\"schema\": \"cxl-checkd/v1\", "
                        "\"type\": \"check\", \"id\": \"x\", "
                        "\"scenario\": \"free-run\", "
                        "\"engine\": {\"sym\": \"sometimes\"}}"),
        std::runtime_error);
    EXPECT_THROW(
        requestFromJson("{\"schema\": \"cxl-checkd/v1\", "
                        "\"type\": \"check\", \"id\": \"x\", "
                        "\"scenario\": \"free-run\", "
                        "\"engine\": {\"store\": \"floppy\"}}"),
        std::runtime_error);
}

TEST(ServeProtocol, FramingSurvivesSplitsAndCoalescing)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // Two frames coalesced into one send, one frame split over
    // several sends: recvFrame must recover all three in order.
    const std::string a = "{\"n\": 1}";
    const std::string b = "{\"n\": 2}";
    const std::string c = "{\"n\": 3}";
    ASSERT_TRUE(sendFrame(fds[0], a + "\n" + b));
    const std::string half = c + "\n";
    ASSERT_EQ(::send(fds[0], half.data(), 3, 0), 3);
    ASSERT_EQ(::send(fds[0], half.data() + 3,
                     static_cast<int>(half.size()) - 3, 0),
              static_cast<long>(half.size()) - 3);
    ::close(fds[0]);

    FrameReader reader;
    std::string line;
    ASSERT_TRUE(recvFrame(fds[1], reader, line));
    EXPECT_EQ(line, a);
    ASSERT_TRUE(recvFrame(fds[1], reader, line));
    EXPECT_EQ(line, b);
    ASSERT_TRUE(recvFrame(fds[1], reader, line));
    EXPECT_EQ(line, c);
    EXPECT_FALSE(recvFrame(fds[1], reader, line)); // EOF
    ::close(fds[1]);
}

TEST(ServeProtocol, ResponseFramesParse)
{
    ProgressSnapshot p;
    p.states = 10;
    p.transitions = 20;
    p.depth = 3;
    p.rssBytes = 4096;
    p.seconds = 0.5;
    const JsonValue prog = parseJson(renderProgressFrame("id1", p));
    EXPECT_EQ(prog.getStr("schema"), kSchema);
    EXPECT_EQ(prog.getStr("type"), "progress");
    EXPECT_EQ(prog.getStr("id"), "id1");
    EXPECT_EQ(prog.getNum("states"), 10);
    EXPECT_EQ(prog.getNum("depth"), 3);

    ResultPayload payload;
    payload.verdictLine = "HOLDS (7 states)";
    payload.text = "line1\nline2\n";
    payload.resultJson = "{\"schema\": \"cxl-check-result/v1\"}";
    const JsonValue res =
        parseJson(renderResultFrame("id2", true, payload));
    EXPECT_EQ(res.getStr("type"), "result");
    EXPECT_TRUE(res.getBool("cached"));
    EXPECT_EQ(res.getStr("verdict_line"), payload.verdictLine);
    EXPECT_EQ(res.getStr("text"), payload.text);
    ASSERT_NE(res.get("result"), nullptr);
    EXPECT_EQ(res.get("result")->getStr("schema"),
              "cxl-check-result/v1");

    const JsonValue err =
        parseJson(renderErrorFrame("id3", "bad \"thing\""));
    EXPECT_EQ(err.getStr("type"), "error");
    EXPECT_EQ(err.getStr("message"), "bad \"thing\"");
}

// ------------------------------------------------------ result cache

ResultPayload
payloadNamed(const std::string &tag)
{
    ResultPayload p;
    p.verdictLine = tag;
    p.text = tag + "\n";
    p.resultJson = "{\"tag\": \"" + tag + "\"}";
    return p;
}

TEST(ResultCache, CountsHitsMissesAndEvictsLru)
{
    ResultCache cache(2);
    EXPECT_FALSE(cache.lookup("a").has_value()); // miss
    cache.insert("a", payloadNamed("a"));
    cache.insert("b", payloadNamed("b"));

    const auto hit = cache.lookup("a"); // refreshes a over b
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->verdictLine, "a");

    cache.insert("c", payloadNamed("c")); // evicts b, the LRU
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(ResultCache, DuplicateInsertKeepsTheIncumbent)
{
    // Two workers may race the same uncached request; determinism
    // makes their payloads byte-identical, so first-in wins and the
    // population never double-counts.
    ResultCache cache(4);
    cache.insert("k", payloadNamed("first"));
    cache.insert("k", payloadNamed("second"));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.lookup("k")->verdictLine, "first");
}

TEST(ResultCache, ZeroCapacityDisablesCaching)
{
    ResultCache cache(0);
    cache.insert("k", payloadNamed("k"));
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, IncompleteVerdictsAreNeverCacheable)
{
    CheckResult r;
    r.verdict = CheckResult::Verdict::Incomplete;
    EXPECT_FALSE(cacheable(r));
    r.verdict = CheckResult::Verdict::Holds;
    EXPECT_TRUE(cacheable(r));
    r.verdict = CheckResult::Verdict::Violated;
    EXPECT_TRUE(cacheable(r));
    r.verdict = CheckResult::Verdict::Deadlocked;
    EXPECT_TRUE(cacheable(r));
}

// ------------------------------------------- cache-key canonicalizer

Request
namedRequest(const std::string &scenario)
{
    Request r;
    r.id = "t";
    r.scenario = scenario;
    return r;
}

std::string
keyOf(const Request &r, const EngineOptions &defaults = {},
      double defaultMaxSeconds = 0)
{
    return resolveRequest(r, defaults, defaultMaxSeconds).cacheKey;
}

TEST(ResolveRequest, ScenarioAliasesCollapseToOneKey)
{
    // byName folds '-' to '_' and accepts the "_test"-suffix-less
    // spelling; the key is built from the registry-canonical name,
    // so all spellings share one cache entry.
    const std::string canon = keyOf(namedRequest("clean_evict_test"));
    EXPECT_EQ(keyOf(namedRequest("clean-evict-test")), canon);
    EXPECT_EQ(keyOf(namedRequest("clean_evict")), canon);
    EXPECT_NE(keyOf(namedRequest("dirty_evict_test")), canon);
}

TEST(ResolveRequest, KnobSpellingsThatMeanTheSameRunCollapse)
{
    // An absent knob resolves to the daemon default; spelling the
    // same value explicitly must not fork the cache.
    EngineOptions defaults;
    defaults.threads = 2;
    defaults.por = true;

    Request implicit = namedRequest("free-run");
    Request explicitly = namedRequest("free-run");
    explicitly.engine.threads = 2;
    explicitly.engine.por = true;
    EXPECT_EQ(keyOf(implicit, defaults), keyOf(explicitly, defaults));

    // Worker counts past the clamp run kMaxWorkers workers, and the
    // key names the resolved count (no engine runs here).
    Request many = namedRequest("free-run");
    many.engine.threads = 5000;
    Request clamp = namedRequest("free-run");
    clamp.engine.threads = kMaxWorkers;
    EXPECT_EQ(keyOf(many), keyOf(clamp));
    EXPECT_NE(keyOf(many).find("|t1024|"), std::string::npos)
        << keyOf(many);

    // Auto resolves to on for the 3-device free run.
    Request autoSym = namedRequest("free-run");
    autoSym.devices = 3;
    autoSym.engine.symmetry = SymmetryMode::Auto;
    Request onSym = autoSym;
    onSym.engine.symmetry = SymmetryMode::On;
    EXPECT_EQ(keyOf(autoSym), keyOf(onSym));

    // Family restriction: order and duplicates are not semantics.
    Request fam1 = namedRequest("free-run");
    fam1.families = std::vector<std::string>{"swmr", "dir", "swmr"};
    Request fam2 = namedRequest("free-run");
    fam2.families = std::vector<std::string>{"dir", "swmr"};
    EXPECT_EQ(keyOf(fam1), keyOf(fam2));
    EXPECT_NE(keyOf(fam1), keyOf(implicit));
}

TEST(ResolveRequest, DistinctSemanticsNeverAlias)
{
    const std::string base = keyOf(namedRequest("free-run"));

    Request dev = namedRequest("free-run");
    dev.devices = 3;
    EXPECT_NE(keyOf(dev), base);

    Request det = namedRequest("free-run");
    det.deterministic = true;
    EXPECT_NE(keyOf(det), base);

    Request threads = namedRequest("free-run");
    threads.engine.threads = 1;
    Request threads2 = namedRequest("free-run");
    threads2.engine.threads = 2;
    EXPECT_NE(keyOf(threads), keyOf(threads2));

    Request capped = namedRequest("free-run");
    capped.engine.maxStates = 1000;
    EXPECT_NE(keyOf(capped), base);

    Request cfg = namedRequest("free-run");
    ProtocolConfig relaxed;
    relaxed.relaxSnoopPushesGo = true;
    cfg.config = relaxed;
    EXPECT_NE(keyOf(cfg), base);
}

TEST(ResolveRequest, StoreKindsCollapseToOneKey)
{
    // The backend is below the probe algorithm: verdicts, counts and
    // the rendered JSON are store-independent, so ram and mmap share
    // one cache entry and a ram-warmed cache answers mmap requests.
    const std::string base = keyOf(namedRequest("free-run"));
    for (StoreKind kind : {StoreKind::InRam, StoreKind::Mmap}) {
        Request r = namedRequest("free-run");
        r.engine.store = kind;
        EXPECT_EQ(keyOf(r), base) << storeKindWord(kind);
    }

    // On the wire, "store" takes the two kind words; the retired
    // compaction words are errors, and the retired "compact" knob is
    // an unknown key like any other, which resolves nothing.
    const std::string head =
        R"({"schema":"cxl-checkd/v1","type":"check","id":"t",)"
        R"("scenario":"free-run","engine":)";
    const Request mmap = requestFromJson(head + R"({"store":"mmap"}})");
    EXPECT_EQ(resolveRequest(mmap, {}, 0).engine.store, StoreKind::Mmap);
    for (const char *word : {"ram-compact", "mmap-compact"}) {
        try {
            requestFromJson(head + R"({"store":")" + word + R"("}})");
            ADD_FAILURE() << word << " accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("(want ram|mmap)"),
                      std::string::npos)
                << e.what();
        }
    }
    const Request knob = requestFromJson(head + R"({"compact":true}})");
    EXPECT_EQ(resolveRequest(knob, {}, 0).engine.store, StoreKind::InRam);
    EXPECT_EQ(keyOf(knob), base);
    EXPECT_EQ(renderRequestJson(knob).find("compact"), std::string::npos);
}

TEST(ResolveRequest, RetiredScheduleKnobIsAnUnknownKey)
{
    // Every run uses the one level schedule: "schedule" is ignored
    // like any other unknown engine key, whatever its word, so it
    // neither forks the cache nor fails the request.
    const std::string base = keyOf(namedRequest("free-run"));
    const std::string head =
        R"({"schema":"cxl-checkd/v1","type":"check","id":"t",)"
        R"("scenario":"free-run","engine":)";
    for (const char *word : {"bfs", "ws", "dfs"}) {
        const Request r =
            requestFromJson(head + R"({"schedule":")" + word + R"("}})");
        EXPECT_EQ(keyOf(r), base) << word;
        EXPECT_EQ(renderRequestJson(r).find("schedule"), std::string::npos)
            << word;
    }
}

TEST(ResolveRequest, WallClockBudgetsStayOutOfTheKey)
{
    // Budgets only change *whether* a run finishes (Incomplete is
    // never cached), not what a finished run returns — a budgeted
    // request must still be answerable by an unbudgeted run's entry.
    const std::string base = keyOf(namedRequest("free-run"));
    Request budgeted = namedRequest("free-run");
    budgeted.engine.maxSeconds = 5.0;
    budgeted.engine.maxRssMb = 4096;
    budgeted.engine.expectStates = 1000;
    EXPECT_EQ(keyOf(budgeted), base);
    EXPECT_EQ(keyOf(namedRequest("free-run"), {}, 30.0), base);
}

TEST(ResolveRequest, InlineCasesKeyByContentHash)
{
    fuzz::FuzzCase c;
    c.freeRun = true;
    c.maxStates = 500;

    Request r1;
    r1.id = "a";
    r1.inlineCase = c;
    Request r2;
    r2.id = "b"; // the client-chosen id is not semantics
    r2.inlineCase = c;
    EXPECT_EQ(keyOf(r1), keyOf(r2));
    EXPECT_EQ(keyOf(r1).rfind("g:", 0), 0u) << keyOf(r1);

    c.maxStates = 600;
    Request r3;
    r3.id = "a";
    r3.inlineCase = c;
    EXPECT_NE(keyOf(r3), keyOf(r1));
}

TEST(ResolveRequest, RejectsUnknownScenarioAndBadDevices)
{
    EXPECT_THROW(keyOf(namedRequest("no_such_scenario")),
                 std::runtime_error);
    Request pinned = namedRequest("clean_evict_test");
    pinned.devices = 3; // pinned 2-device litmus scenario
    EXPECT_THROW(keyOf(pinned), std::runtime_error);
}

TEST(ResolveRequest, AppliesTheDefaultWallClockSafetyNet)
{
    // No budget anywhere -> the daemon's net; request's own wins.
    EXPECT_EQ(resolveRequest(namedRequest("free-run"), {}, 12.0)
                  .engine.maxSeconds,
              12.0);
    Request own = namedRequest("free-run");
    own.engine.maxSeconds = 3.0;
    EXPECT_EQ(resolveRequest(own, {}, 12.0).engine.maxSeconds, 3.0);
}

// ------------------------------------------------------- live server

class ServeEndToEnd : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char path[96];
        std::snprintf(path, sizeof path, "/tmp/cxl_serve_%d_%u.sock",
                      static_cast<int>(::getpid()), ++instances_);
        ServerOptions opt;
        opt.socketPath = path;
        opt.workers = 3;
        opt.cacheEntries = 64;
        server_ = std::make_unique<Server>(std::move(opt));
        server_->start();
    }

    void
    TearDown() override
    {
        server_->drain();
        server_.reset();
    }

    Request
    deterministicRequest(const std::string &scenario) const
    {
        Request r = namedRequest(scenario);
        r.id = scenario;
        r.engine.threads = 2;
        r.deterministic = true;
        r.progress = false;
        return r;
    }

    std::unique_ptr<Server> server_;
    static unsigned instances_;
};

unsigned ServeEndToEnd::instances_ = 0;

TEST_F(ServeEndToEnd, ConcurrentClientsMatchOfflineByteForByte)
{
    const std::vector<std::string> scenarios = {
        "clean_evict_test",    "dirty_evict_test",
        "multiple_reads",      "upgrade_race",
        "snoop_pushes_go_test"};

    // The offline truth: same resolved knobs, deterministic render.
    EngineOptions offline;
    offline.threads = 2;
    CheckSession session(offline);
    std::vector<std::string> expected;
    for (const std::string &s : scenarios) {
        CheckRequest req;
        req.scenario = s;
        expected.push_back(session.run(req).renderJson(true));
    }

    std::vector<ClientResult> served(scenarios.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        clients.emplace_back([&, i] {
            served[i] = requestCheck(
                server_->socketPath(),
                deterministicRequest(scenarios[i]));
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        ASSERT_TRUE(served[i].ok) << served[i].error;
        EXPECT_FALSE(served[i].cached);
        EXPECT_EQ(served[i].payload.resultJson, expected[i])
            << scenarios[i];
    }

    // Same requests again: answered from the cache, byte-identical.
    const CacheStats before = server_->stats().cache;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ClientResult again = requestCheck(
            server_->socketPath(),
            deterministicRequest(scenarios[i]));
        ASSERT_TRUE(again.ok) << again.error;
        EXPECT_TRUE(again.cached) << scenarios[i];
        EXPECT_EQ(again.payload.resultJson, expected[i]);
    }
    // The served counter is bumped after the result frame is on the
    // wire, so a client can observe its answer a beat before the
    // increment lands: poll briefly instead of racing it.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (server_->stats().checksServed < 2 * scenarios.size() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const ServerStats after = server_->stats();
    EXPECT_EQ(after.cache.hits, before.hits + scenarios.size());
    EXPECT_EQ(after.cache.misses, before.misses);
    EXPECT_EQ(after.checksServed, 2 * scenarios.size())
        << after.renderJson();
}

TEST_F(ServeEndToEnd, MmapStoreServesOfflineBytesForEveryScenario)
{
    // Every registry scenario served under the mmap store must
    // return the exact bytes an offline ram run renders: the backend
    // may not leak into the result, and the file-backed path must
    // not perturb a single count or verdict.
    EngineOptions offline;
    offline.threads = 2;
    offline.store = StoreKind::InRam;
    CheckSession session(offline);
    for (const scenarios::Entry &entry : scenarios::all()) {
        const int devices = entry.deviceScalable
                                ? kDefaultNumDevices
                                : entry.fixedDevices;
        CheckRequest req;
        req.scenario = entry.name;
        req.devices = devices;
        const std::string expected =
            session.run(req).renderJson(true);

        Request r = deterministicRequest(entry.name);
        r.devices = devices;
        r.engine.store = StoreKind::Mmap;
        const ClientResult served =
            requestCheck(server_->socketPath(), r);
        ASSERT_TRUE(served.ok) << entry.name << ": " << served.error;
        EXPECT_EQ(served.payload.resultJson, expected) << entry.name;
    }
}

TEST(ServeStoreText, CacheHitNamesTheRequestingStore)
{
    // ram and mmap share a cache key, so an mmap request is answered
    // from a ram run.  The replayed result JSON must
    // stay byte-identical, but the text's engine line names the
    // store the request asked for: memfd without a store directory,
    // the directory's files with one.
    char tmpl[] = "/tmp/cxl-serve-store-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    for (const std::string &store_dir : {std::string(), std::string(dir)}) {
        char path[96];
        std::snprintf(path, sizeof path, "/tmp/cxl_store_text_%d.sock",
                      static_cast<int>(::getpid()));
        ServerOptions opt;
        opt.socketPath = path;
        opt.engine.storeDir = store_dir;
        Server server(std::move(opt));
        server.start();

        Request warm = namedRequest("multiple_reads");
        warm.engine.threads = 2;
        warm.deterministic = true;
        warm.progress = false;
        warm.engine.store = StoreKind::InRam;
        const ClientResult first = requestCheck(server.socketPath(), warm);
        ASSERT_TRUE(first.ok) << first.error;
        EXPECT_FALSE(first.cached);
        EXPECT_NE(first.payload.text.find("ram store (anonymous memory)"),
                  std::string::npos)
            << first.payload.text;

        Request ask = warm;
        ask.engine.store = StoreKind::Mmap;
        const ClientResult hit = requestCheck(server.socketPath(), ask);
        ASSERT_TRUE(hit.ok) << hit.error;
        EXPECT_TRUE(hit.cached);
        EXPECT_EQ(hit.payload.resultJson, first.payload.resultJson);
        EXPECT_EQ(hit.payload.verdictLine, first.payload.verdictLine);
        const std::string want =
            store_dir.empty() ? "mmap store (memfd)"
                              : "mmap store (files under " + store_dir + ")";
        EXPECT_NE(hit.payload.text.find(want), std::string::npos)
            << hit.payload.text;
        EXPECT_EQ(hit.payload.text.find("ram store"), std::string::npos)
            << hit.payload.text;

        // And back: the cached entry itself is untouched.
        const ClientResult again = requestCheck(server.socketPath(), warm);
        ASSERT_TRUE(again.ok) << again.error;
        EXPECT_TRUE(again.cached);
        EXPECT_EQ(again.payload.text, first.payload.text);
        server.drain();
    }
    EXPECT_EQ(rmdir(dir), 0);
}

TEST_F(ServeEndToEnd, StatsRequestReportsTheCounters)
{
    const ClientResult first = requestCheck(
        server_->socketPath(), deterministicRequest("multiple_reads"));
    ASSERT_TRUE(first.ok) << first.error;

    // The served counter lands a beat after the client's answer.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (server_->stats().checksServed < 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    std::string error;
    const std::string stats =
        fetchStats(server_->socketPath(), error);
    ASSERT_FALSE(stats.empty()) << error;
    const JsonValue v = parseJson(stats);
    EXPECT_EQ(v.getStr("schema"), "cxl-checkd-stats/v1");
    EXPECT_EQ(v.getNum("checks_served"), 1);
    EXPECT_EQ(v.getNum("cache_misses"), 1);
    EXPECT_EQ(v.getNum("model_builds"), 1);
    EXPECT_FALSE(v.getBool("draining"));
}

TEST_F(ServeEndToEnd, BadRequestsGetAnErrorFrame)
{
    const ClientResult unknown = requestCheck(
        server_->socketPath(), namedRequest("no_such_scenario"));
    EXPECT_FALSE(unknown.ok);
    EXPECT_NE(unknown.error.find("unknown scenario"),
              std::string::npos)
        << unknown.error;

    // Raw garbage never crashes the worker; the server answers.
    const int fd = connectUnixSocket(server_->socketPath());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendFrame(fd, "this is not json"));
    FrameReader reader;
    std::string line;
    ASSERT_TRUE(recvFrame(fd, reader, line));
    EXPECT_EQ(parseJson(line).getStr("type"), "error");
    ::close(fd);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (server_->stats().errors < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server_->stats().errors, 2u);
}

TEST_F(ServeEndToEnd, ClientDisconnectCancelsTheRun)
{
    // An expensive free run with per-flush progress frames: drop the
    // connection after the first frame and the server must cancel the
    // exploration (and never cache the resulting Incomplete).
    Request r = namedRequest("free-run");
    r.id = "doomed";
    r.devices = 3;
    r.engine.threads = 1;
    r.engine.maxSeconds = 60.0; // safety net, not the mechanism
    r.progressInterval = 0.0;   // a frame per batch flush

    const int fd = connectUnixSocket(server_->socketPath());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendFrame(fd, renderRequestJson(r)));
    FrameReader reader;
    std::string line;
    ASSERT_TRUE(recvFrame(fd, reader, line));
    EXPECT_EQ(parseJson(line).getStr("type"), "progress");
    ::close(fd); // hang up mid-run

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (server_->stats().disconnectCancels == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const ServerStats s = server_->stats();
    EXPECT_EQ(s.disconnectCancels, 1u);
    EXPECT_EQ(s.cache.entries, 0u); // the Incomplete was not cached
}

TEST(ServeDrain, CancelsInFlightAndTurnsAwayQueuedConnections)
{
    char path[96];
    std::snprintf(path, sizeof path, "/tmp/cxl_drain_%d.sock",
                  static_cast<int>(::getpid()));
    ServerOptions opt;
    opt.socketPath = path;
    opt.workers = 1; // one worker: the second connection must queue
    Server server(std::move(opt));
    server.start();

    // Client A occupies the only worker with an expensive run.
    Request slow = namedRequest("free-run");
    slow.id = "slow";
    slow.devices = 3;
    slow.engine.threads = 1;
    slow.engine.maxSeconds = 60.0; // safety net, not the mechanism
    slow.progress = false;
    ClientResult a;
    std::thread client_a(
        [&] { a = requestCheck(server.socketPath(), slow); });

    // The worker has started A once its cache miss is counted.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (server.stats().cache.misses == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(server.stats().cache.misses, 1u);

    // Client B connects and queues behind A.
    const int fd = connectUnixSocket(server.socketPath());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(
        sendFrame(fd, renderRequestJson(
                          namedRequest("clean_evict_test"))));
    while (server.stats().accepted < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Drain: A finishes as a governed (uncached) Incomplete and is
    // still answered; B is turned away with an error frame.
    server.beginDrain();
    client_a.join();
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(parseJson(a.payload.resultJson).getStr("verdict"),
              "incomplete");
    EXPECT_EQ(parseJson(a.payload.resultJson).getStr("stop_reason"),
              "cancelled");

    FrameReader reader;
    std::string line;
    if (recvFrame(fd, reader, line)) {
        EXPECT_EQ(parseJson(line).getStr("type"), "error");
        EXPECT_NE(parseJson(line).getStr("message").find("server"),
                  std::string::npos)
            << line;
    } // else: B raced the accept loop's shutdown and was reset
    ::close(fd);

    server.drain();
    const ServerStats s = server.stats();
    EXPECT_EQ(s.cache.entries, 0u); // the Incomplete was not cached
    EXPECT_TRUE(s.draining);

    // A drained server's socket is gone: clients fail to connect.
    const ClientResult after =
        requestCheck(path, namedRequest("multiple_reads"));
    EXPECT_FALSE(after.ok);
    EXPECT_NE(after.error.find("cannot connect"), std::string::npos)
        << after.error;
}

} // namespace
} // namespace cxl::serve
