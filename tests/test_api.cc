/**
 * @file
 * Unit tests for the unified checker API: session reuse across
 * requests, registry lookup of every named scenario, the
 * CheckResult JSON schema, and bit-identical counts/verdicts
 * against the low-level RuleSet/Explorer path at 1/4/8 threads.
 */

#include <gtest/gtest.h>

#include "api/check.hh"
#include "api/options.hh"
#include "api/scenarios.hh"
#include "checker/explorer.hh"
#include "support/json_parse.hh"

namespace cxl
{
namespace
{

// ------------------------------------------------------ the registry

TEST(ScenarioRegistry, LooksUpEveryRegisteredScenarioByName)
{
    ASSERT_FALSE(scenarios::all().empty());
    for (const scenarios::Entry &e : scenarios::all()) {
        const scenarios::Entry *found = scenarios::byName(e.name);
        ASSERT_NE(found, nullptr) << e.name;
        EXPECT_EQ(found->name, e.name);
        const int ndev =
            e.deviceScalable ? kDefaultNumDevices : e.fixedDevices;
        Scenario sc = e.build(ndev);
        EXPECT_EQ(sc.numDevices(), ndev) << e.name;
    }
}

TEST(ScenarioRegistry, NormalisesDashesAndTestSuffix)
{
    EXPECT_NE(scenarios::byName("free-run"), nullptr);
    EXPECT_NE(scenarios::byName("free_run"), nullptr);
    const scenarios::Entry *clean = scenarios::byName("clean-evict");
    ASSERT_NE(clean, nullptr);
    EXPECT_EQ(clean->name, "clean_evict_test");
    EXPECT_EQ(scenarios::byName("clean_evict_test"), clean);
    EXPECT_EQ(scenarios::byName("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, RelaxationEntriesCarryTheirMutatedConfigs)
{
    const scenarios::Entry *e = scenarios::byName("snoop_pushes_go");
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->config.relaxSnoopPushesGo);
    EXPECT_TRUE(e->expectViolation);
    EXPECT_EQ(e->expectedViolationFamily, "swmr");
    EXPECT_EQ(e->families, std::vector<std::string>{"swmr"});
}

// ----------------------------------------------------- session runs

TEST(CheckSession, ReusesModelsAcrossRequests)
{
    // One session serves a free-run request, a litmus scenario, a
    // symmetry-reduced re-run and a repeat of the first request; the
    // repeat must reproduce the first run exactly.
    CheckSession session;

    CheckRequest free_run;
    free_run.scenario = "free-run";
    CheckResult first = session.run(free_run);
    EXPECT_EQ(first.states, 5218u);
    EXPECT_EQ(first.transitions, 13126u);
    EXPECT_TRUE(first.holds());
    EXPECT_EQ(first.numConjuncts, 88u);

    CheckRequest litmus;
    litmus.scenario = "clean-evict";
    CheckResult clean = session.run(litmus);
    EXPECT_TRUE(clean.holds());
    EXPECT_EQ(clean.devices, 2);

    CheckRequest sym = free_run;
    EngineOptions engine;
    engine.symmetry = SymmetryMode::On;
    sym.engine = engine;
    CheckResult reduced = session.run(sym);
    EXPECT_TRUE(reduced.symmetryReduction);
    EXPECT_EQ(reduced.states, 2615u);

    CheckResult repeat = session.run(free_run);
    EXPECT_EQ(repeat.states, first.states);
    EXPECT_EQ(repeat.transitions, first.transitions);
    EXPECT_EQ(repeat.diameter, first.diameter);
    EXPECT_EQ(repeat.verdict, first.verdict);
}

TEST(CheckSession, ExpectedViolationsReportConjunctAndDepth)
{
    CheckSession session;
    CheckRequest req;
    req.scenario = "snoop_pushes_go_test";
    CheckResult res = session.run(req);
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Violated);
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_EQ(res.violation->conjunctFamily, "swmr");
    EXPECT_EQ(res.violation->depth, 8u);
    EXPECT_GT(res.violation->trace.size(), 1u);

    // Exactly the violated conjunct is flagged in the per-conjunct
    // status list.
    std::size_t violated = 0;
    for (const ConjunctStatus &c : res.conjuncts)
        violated += c.held ? 0 : 1;
    EXPECT_EQ(violated, 1u);
}

TEST(CheckSession, InlineScenarioAndDeadlockKinds)
{
    // An inline program spec runs without registry involvement, and
    // CheckKind::Invariants disables the deadlock detector.
    Scenario sc;
    sc.name = "inline_store_race";
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Store};

    CheckSession session;
    CheckRequest req;
    req.inlineScenario = sc;
    CheckResult res = session.run(req);
    EXPECT_TRUE(res.holds());
    EXPECT_EQ(res.scenario, "inline_store_race");

    req.checks = CheckKind::Invariants;
    CheckResult inv_only = session.run(req);
    EXPECT_EQ(inv_only.states, res.states);
    EXPECT_TRUE(inv_only.holds());
}

TEST(CheckSession, RequestErrorsThrow)
{
    CheckSession session;
    CheckRequest unknown;
    unknown.scenario = "does-not-exist";
    EXPECT_THROW(session.run(unknown), std::runtime_error);

    CheckRequest empty;
    EXPECT_THROW(session.run(empty), std::runtime_error);

    CheckRequest pinned;
    pinned.scenario = "clean-evict";
    pinned.devices = 3; // litmus scenarios are pinned to 2 devices
    EXPECT_THROW(session.run(pinned), std::runtime_error);
}

TEST(CheckSession, GuidedWalkMatchesLitmusEngine)
{
    CheckSession session;
    CheckRequest req;
    req.scenario = "dirty-evict";
    GuidedRun walk = session.guided(
        req, {"ModifiedEvict1", "HostModifiedDirtyEvict1",
              "MIA_GO_WritePull1", "HostID_Data1"});
    ASSERT_EQ(walk.steps.size(), 5u);
    EXPECT_EQ(walk.steps.back().state.hval, 1);
    EXPECT_THROW(session.guided(req, {"NoSuchRule"}),
                 std::runtime_error);

    LitmusTest test;
    test.scenario = walk.scenario;
    LitmusOutcome out = session.litmus(test);
    EXPECT_TRUE(out.passed);
}

TEST(CheckSession, ObligationRunsShareTheCachedUniverse)
{
    CheckSession session;
    ObligationRequest req;
    req.families = {"swmr"};
    req.universe.maxReachable = 2000;
    req.universe.maxStates = 4000;
    ObligationResult first = session.obligations(req);
    EXPECT_GT(first.universeSize, 0u);
    // Bare SWMR is not inductive over the boundary universe (paper
    // Section 6).
    EXPECT_GT(first.matrix.failedCellCount(), 0u);

    req.matrix.threads = 2;
    ObligationResult again = session.obligations(req);
    EXPECT_EQ(again.universeSize, first.universeSize);
    EXPECT_EQ(again.matrix.failedCellCount(),
              first.matrix.failedCellCount());
}

// ------------------------------------------------------- the schema

TEST(CheckResult, JsonSchemaKeysArePresentInOrder)
{
    CheckSession session;
    CheckRequest req;
    req.scenario = "clean-evict";
    CheckResult res = session.run(req);
    const std::string json = res.renderJson();

    const char *const keys[] = {
        "\"schema\": \"cxl-check-result/v1\"",
        "\"scenario\"", "\"devices\"", "\"threads\"",
        "\"symmetry_reduction\"", "\"por\"",
        "\"schedule\"", "\"max_states\"",
        "\"rules\"", "\"conjuncts\"", "\"states\"", "\"transitions\"",
        "\"slept_transitions\"",
        "\"diameter\"", "\"completed\"", "\"seconds\"",
        "\"states_per_sec\"", "\"verdict\"", "\"violation_kind\"",
        "\"violated_conjunct\"", "\"violated_family\"",
        "\"violation_depth\"", "\"probe_hash_collisions\"",
        "\"peak_rss_bytes\"", "\"rss_delta_bytes\"",
        "\"metered_peak_bytes\"", "\"mapped_file_bytes\"",
        "\"store_file_bytes\"",
    };
    std::size_t at = 0;
    for (const char *key : keys) {
        const std::size_t pos = json.find(key, at);
        ASSERT_NE(pos, std::string::npos)
            << "missing or out of order: " << key << "\nin: " << json;
        at = pos;
    }
    EXPECT_NE(json.find("\"verdict\": \"holds\""), std::string::npos);
    // The retired hash-compaction bit is no key any more.
    EXPECT_EQ(json.find("\"compact\""), std::string::npos) << json;
    // A holding run nulls every violation field.
    EXPECT_NE(json.find("\"violation_kind\": null"),
              std::string::npos);
    EXPECT_NE(json.find("\"violated_conjunct\": null"),
              std::string::npos);
}

TEST(CheckResult, JsonReportsViolationsStructurally)
{
    CheckSession session;
    CheckRequest req;
    req.scenario = "one_snoop_test";
    CheckResult res = session.run(req);
    const std::string json = res.renderJson();
    EXPECT_NE(json.find("\"verdict\": \"violation\""),
              std::string::npos);
    EXPECT_NE(json.find("\"violation_kind\": \"conjunct\""),
              std::string::npos);
    EXPECT_NE(json.find("\"violated_family\": \"channel_singleton\""),
              std::string::npos);
}

TEST(CheckResult, CappedRunRendersThreadDependentQualifier)
{
    // A run stopped by --max-states ends at a thread-dependent point
    // (the soft cap can overshoot by up to one flush batch per
    // worker), so
    // the rendered report must say the counts are not exact instead
    // of presenting them as run properties.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    EngineOptions eng;
    eng.maxStates = 500;
    eng.threads = 4;
    req.engine = eng;
    const CheckResult res = session.run(req);
    ASSERT_EQ(res.verdict, CheckResult::Verdict::Incomplete);
    const std::string text = res.renderText(false);
    EXPECT_NE(text.find("counts are thread-dependent"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("one flush batch (512 states) per worker"),
              std::string::npos)
        << text;

    // A single-threaded capped run stops at an exact, reproducible
    // point, so it carries no qualifier; neither does an uncapped
    // run.
    eng.threads = 1;
    req.engine = eng;
    const std::string single = session.run(req).renderText(false);
    EXPECT_EQ(single.find("thread-dependent"), std::string::npos)
        << single;
    req.engine = std::nullopt;
    const std::string clean = session.run(req).renderText(false);
    EXPECT_EQ(clean.find("thread-dependent"), std::string::npos)
        << clean;
}

TEST(CheckResult, TextNamesTheStoreMedium)
{
    // The engine line says where the store lives: anonymous memory,
    // memfd, or files under --store-dir.  The JSON does not, so deterministic
    // bytes (and the serve cache key) stay medium-independent.
    CheckSession session;
    CheckRequest req;
    req.scenario = "go_tailgate_test";
    EngineOptions eng;
    eng.threads = 1;
    req.engine = eng;
    const CheckResult ram = session.run(req);
    EXPECT_NE(ram.renderText(false).find("ram store (anonymous memory)"),
              std::string::npos)
        << ram.renderText(false);

    eng.store = StoreKind::Mmap;
    req.engine = eng;
    const CheckResult memfd = session.run(req);
    EXPECT_NE(memfd.renderText(false).find("mmap store (memfd)"),
              std::string::npos)
        << memfd.renderText(false);
    EXPECT_EQ(memfd.renderJson(true), ram.renderJson(true));

    eng.storeDir = "/tmp";
    req.engine = eng;
    const CheckResult files = session.run(req);
    EXPECT_NE(files.renderText(false).find(
                  "mmap store (files under /tmp)"),
              std::string::npos)
        << files.renderText(false);
    EXPECT_EQ(files.renderJson(true), memfd.renderJson(true));
}

api::StandardOptions
optionsOf(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return api::standardOptions(
        CliArgs(static_cast<int>(argv.size()), argv.data()));
}

TEST(StandardOptions, StoreFlagsResolveToTwoKinds)
{
    // --compact is a no-op shim: it leaves either kind as it is.
    for (const std::vector<const char *> &argv :
         {std::vector<const char *>{}, {"--store", "ram"}, {"--compact"},
          {"--store", "ram", "--compact"}})
        EXPECT_EQ(optionsOf(argv).engine.store, StoreKind::InRam);
    for (const std::vector<const char *> &argv :
         {std::vector<const char *>{"--store", "mmap"},
          {"--store", "mmap", "--compact"},
          {"--compact", "--store", "mmap"}})
        EXPECT_EQ(optionsOf(argv).engine.store, StoreKind::Mmap);
    EXPECT_EQ(optionsOf({"--store", "mmap", "--store-dir", "/tmp"})
                  .engine.storeDir,
              "/tmp");
}

TEST(StandardOptions, CompactFlagChangesNoResultByte)
{
    // The pinned benchmark still passes --compact: it must parse and
    // give the same run, down to the deterministic JSON.
    const api::StandardOptions with = optionsOf({"--compact"});
    const api::StandardOptions without = optionsOf({});
    for (const char *scenario : {"free-run", "go_tailgate_test"}) {
        CheckRequest req;
        req.scenario = scenario;
        req.engine = with.engine;
        const std::string a = CheckSession().run(req).renderJson(true);
        req.engine = without.engine;
        const std::string b = CheckSession().run(req).renderJson(true);
        EXPECT_EQ(a, b) << scenario;
    }
}

TEST(StandardOptions, StoreDirOnAHeapStoreIsAUsageError)
{
    // Only the mmap store has backing files to place; an in-RAM store
    // must not silently ignore --store-dir.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(optionsOf({"--store-dir", "/tmp"}),
                testing::ExitedWithCode(2),
                "--store-dir needs --store mmap");
    EXPECT_EXIT(optionsOf({"--store", "ram", "--compact",
                           "--store-dir", "/tmp"}),
                testing::ExitedWithCode(2), "the ram store");
    // The retired hash-compaction words are usage errors that name
    // the kinds left.
    for (const char *word : {"ram-compact", "mmap-compact", "disk"}) {
        EXPECT_EXIT(optionsOf({"--store", word}),
                    testing::ExitedWithCode(2),
                    std::string("'") + word + "' unknown \\(want ram\\|mmap\\)");
    }
}

TEST(StandardOptions, NegativeThreadCountIsAUsageError)
{
    // 0 means one worker per hardware thread; a negative count must
    // not silently mean the same.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EQ(optionsOf({"--threads", "0"}).engine.threads, 0u);
    EXPECT_EQ(optionsOf({"--threads", "3"}).engine.threads, 3u);
    EXPECT_EXIT(optionsOf({"--threads", "-4"}), testing::ExitedWithCode(2),
                "--threads -4 out of range");
    EXPECT_EXIT(optionsOf({"--threads", "-1"}), testing::ExitedWithCode(2),
                "--threads -1 out of range");
}

TEST(CheckResult, VerdictTextIsDeterministic)
{
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    EXPECT_EQ(session.run(req).verdictText(),
              "HOLDS (5218 states, 13126 transitions, diameter 27)");
    req.scenario = "go_tailgate_test";
    EXPECT_EQ(session.run(req).verdictText(),
              "VIOLATION swmr_d1 (swmr) at depth 3");
}

// ------------------------- equivalence with the low-level engine ---

TEST(CheckSession, BitIdenticalToLowLevelPathAcrossThreadCounts)
{
    // The façade must add nothing and lose nothing: counts, verdict
    // and per-rule firing profile equal a hand-assembled
    // RuleSet/Scenario/InvariantSet/Explorer run, at 1, 4 and 8
    // workers, with and without symmetry reduction.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 2);
    Scenario scenario = Scenario::freeRunScenario(2);
    InvariantSet invariants = InvariantSet::full(config, 2);
    Explorer explorer(rules, scenario, invariants);

    CheckSession session;
    for (bool sym : {false, true}) {
        for (std::size_t threads : {1u, 4u, 8u}) {
            ExploreOptions low;
            low.threads = threads;
            low.symmetry = sym ? SymmetryMode::On : SymmetryMode::Off;
            ExploreResult ref = explorer.run(low);

            CheckRequest req;
            req.scenario = "free-run";
            EngineOptions engine;
            engine.threads = threads;
            engine.symmetry =
                sym ? SymmetryMode::On : SymmetryMode::Off;
            req.engine = engine;
            CheckResult res = session.run(req);

            EXPECT_EQ(res.states, ref.numStates)
                << "sym=" << sym << " threads=" << threads;
            EXPECT_EQ(res.transitions, ref.numTransitions);
            EXPECT_EQ(res.diameter, ref.maxDepth);
            EXPECT_EQ(res.completed, ref.completed);
            EXPECT_TRUE(res.holds());
            ASSERT_EQ(res.ruleFires.size(),
                      ref.ruleFireCounts.size());
            for (std::size_t r = 0; r < res.ruleFires.size(); ++r)
                EXPECT_EQ(res.ruleFires[r].fires,
                          ref.ruleFireCounts[r])
                    << res.ruleFires[r].name;
        }
    }
}

// ---------------------------------------------------- registry hygiene

TEST(ScenarioRegistry, HasNoAliasedNamesUnderLookupNormalisation)
{
    // byName folds '-' to '_' and bridges the optional "_test"
    // suffix, so two distinct entries may silently shadow each other
    // unless their *normalised* names (with and without the suffix)
    // stay unique.
    std::vector<std::string> seen;
    for (const scenarios::Entry &e : scenarios::all()) {
        const std::string norm = scenarios::normalisedName(e.name);
        for (const std::string &other : seen) {
            EXPECT_FALSE(norm == other || norm == other + "_test" ||
                         other == norm + "_test")
                << "registry entries alias under byName: '" << norm
                << "' vs '" << other << "'";
        }
        seen.push_back(norm);
    }
}

TEST(ScenarioRegistry, RejectsRegistrationsThatWouldAlias)
{
    const std::size_t before = scenarios::all().size();

    scenarios::Entry dup;
    dup.name = "free-run"; // normalises onto the existing free-run
    dup.build = [](int ndev) {
        return Scenario::freeRunScenario(ndev);
    };
    EXPECT_FALSE(scenarios::registerEntry(dup));

    dup.name = "clean_evict"; // aliases clean_evict_test via suffix
    EXPECT_FALSE(scenarios::registerEntry(dup));
    EXPECT_EQ(scenarios::all().size(), before);

    // A genuinely new name registers and is then found by lookup.
    scenarios::Entry fresh;
    fresh.name = "registry_hygiene_probe";
    fresh.description = "registered by test_api";
    fresh.build = [](int ndev) {
        return Scenario::freeRunScenario(ndev);
    };
    EXPECT_TRUE(scenarios::registerEntry(fresh));
    EXPECT_EQ(scenarios::all().size(), before + 1);
    const scenarios::Entry *found =
        scenarios::byName("registry-hygiene-probe");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->description, "registered by test_api");

    // And it now blocks its own aliases.
    EXPECT_FALSE(scenarios::registerEntry(fresh));
}

TEST(ScenarioRegistry, EveryEntryRoundTripsThroughJsonToItsVerdict)
{
    // Run every registry entry (at its pinned device count), parse
    // the rendered JSON back, and cross-check the structured verdict
    // against both the expectation the entry declares and the
    // original CheckResult fields.
    CheckSession session;
    for (const scenarios::Entry &e : scenarios::all()) {
        CheckRequest req;
        req.scenario = e.name;
        req.devices =
            e.deviceScalable ? kDefaultNumDevices : e.fixedDevices;
        const CheckResult res = session.run(req);

        const JsonValue doc = parseJson(res.renderJson());
        EXPECT_EQ(doc.getStr("schema"), "cxl-check-result/v1")
            << e.name;
        EXPECT_EQ(doc.getStr("scenario"), e.name);
        EXPECT_EQ(doc.getNum("devices"), req.devices);
        EXPECT_EQ(doc.get("states")->asUint(), res.states) << e.name;
        EXPECT_EQ(doc.getBool("completed"), res.completed);

        if (e.expectViolation) {
            EXPECT_EQ(doc.getStr("verdict"), "violation") << e.name;
            if (!e.expectedViolationFamily.empty()) {
                EXPECT_EQ(doc.getStr("violated_family"),
                          e.expectedViolationFamily)
                    << e.name;
            }
        } else {
            EXPECT_EQ(doc.getStr("verdict"), "holds") << e.name;
            EXPECT_TRUE(doc.get("violated_conjunct")->isNull())
                << e.name;
        }
    }
}

} // namespace
} // namespace cxl
