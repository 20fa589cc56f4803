/**
 * @file
 * Unit tests for the scenario fuzzer and differential oracle: the
 * JSON reader, FuzzCase round-tripping, generator determinism, the
 * fixed-seed golden-manifest property, minimizer idempotence, corpus
 * persistence, registry promotion, and the planted-divergence
 * self-test (corrupt one engine combination's model and assert the
 * cross-check flags it).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "fuzz/corpus.hh"
#include "fuzz/gen.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracle.hh"
#include "support/json_parse.hh"

namespace cxl::fuzz
{
namespace
{

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A fresh scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &leaf)
{
    const fs::path dir = fs::path(::testing::TempDir()) / leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------------- JSON reader

TEST(JsonParse, RoundTripsTheEmitterGrammar)
{
    const std::string text =
        "{\"s\": \"a\\\"b\\\\c\\n\\u0041\", \"n\": 42, "
        "\"neg\": -1.5, \"t\": true, \"f\": false, \"z\": null, "
        "\"arr\": [1, 2, 3], \"obj\": {\"k\": \"v\"}}";
    const JsonValue doc = parseJson(text);
    EXPECT_EQ(doc.getStr("s"), "a\"b\\c\nA");
    EXPECT_EQ(doc.getNum("n"), 42);
    EXPECT_EQ(doc.getNum("neg"), -1.5);
    EXPECT_TRUE(doc.getBool("t"));
    EXPECT_FALSE(doc.getBool("f"));
    EXPECT_TRUE(doc.get("z")->isNull());
    ASSERT_EQ(doc.get("arr")->items().size(), 3u);
    EXPECT_EQ(doc.get("arr")->items()[2].asUint(), 3u);
    EXPECT_EQ(doc.get("obj")->getStr("k"), "v");

    // Member order is preserved, and render() re-emits parseably.
    EXPECT_EQ(doc.members().front().first, "s");
    const JsonValue again = parseJson(doc.render());
    EXPECT_EQ(again.getStr("s"), "a\"b\\c\nA");
    EXPECT_EQ(again.get("arr")->items().size(), 3u);
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"),
                 std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("nul"), std::runtime_error);
}

// ---------------------------------------------------------- FuzzCase

TEST(FuzzCase, RoundTripsThroughJsonByteIdentically)
{
    GenOptions gopt;
    gopt.seed = 7;
    gopt.maxDevices = 4;
    ScenarioGen gen(gopt);
    for (int i = 0; i < 25; ++i) {
        const FuzzCase c = gen.next();
        const std::string json = c.renderJson();
        const FuzzCase back = FuzzCase::fromJson(json);
        EXPECT_EQ(back, c);
        EXPECT_EQ(back.renderJson(), json);
        EXPECT_EQ(back.name(), c.name());
    }
}

TEST(FuzzCase, NameIsAContentHash)
{
    FuzzCase a;
    a.programs = {{Instr::Load}, {}};
    FuzzCase b = a;
    EXPECT_EQ(a.name(), b.name());
    b.programs[0].push_back(Instr::Store);
    EXPECT_NE(a.name(), b.name());
    EXPECT_EQ(a.name().size(), 17u); // "g" + 16 hex digits
}

TEST(FuzzCase, RejectsForeignDocuments)
{
    EXPECT_THROW(FuzzCase::fromJson("{\"schema\": \"nope\"}"),
                 std::runtime_error);
    EXPECT_THROW(
        FuzzCase::fromJson(
            "{\"schema\": \"cxl-fuzz-case/v1\", \"devices\": 9}"),
        std::runtime_error);
}

// --------------------------------------------------------- generator

TEST(ScenarioGen, IsDeterministicForAFixedSeed)
{
    GenOptions gopt;
    gopt.seed = 99;
    gopt.maxDevices = 4;
    ScenarioGen a(gopt);
    ScenarioGen b(gopt);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next()) << "case " << i;
}

TEST(ScenarioGen, EmitsWellFormedCases)
{
    GenOptions gopt;
    gopt.seed = 3;
    gopt.maxDevices = 4;
    ScenarioGen gen(gopt);
    bool sawFreeRun = false, sawProgram = false, sawFamilies = false;
    for (int i = 0; i < 60; ++i) {
        const FuzzCase c = gen.next();
        EXPECT_GE(c.devices, 2);
        EXPECT_LE(c.devices, 4);
        EXPECT_LT(c.owner, c.devices);
        if (c.freeRun) {
            sawFreeRun = true;
            EXPECT_TRUE(c.programs.empty());
            EXPECT_GT(c.maxStates, 0u) << "free runs must be capped";
        } else {
            sawProgram = true;
            EXPECT_EQ(c.programs.size(),
                      static_cast<std::size_t>(c.devices));
            EXPECT_EQ(c.maxStates, 0u);
        }
        sawFamilies |= !c.families.empty();
        // The scenario builds at the declared device count.
        EXPECT_EQ(c.toScenario().numDevices(), c.devices);
    }
    EXPECT_TRUE(sawFreeRun);
    EXPECT_TRUE(sawProgram);
    EXPECT_TRUE(sawFamilies);
}

TEST(ScenarioGen, MutationStaysInTheValidSpace)
{
    GenOptions gopt;
    gopt.seed = 17;
    gopt.maxDevices = 3;
    ScenarioGen gen(gopt);
    FuzzCase c = gen.next();
    for (int i = 0; i < 80; ++i) {
        c = gen.mutate(c);
        EXPECT_GE(c.devices, 2);
        EXPECT_LE(c.devices, 3);
        EXPECT_LT(c.owner, c.devices);
        EXPECT_TRUE(c.freeRun ? c.programs.empty()
                              : c.programs.size() ==
                                    static_cast<std::size_t>(
                                        c.devices));
    }
}

// ------------------------------------------------------------ oracle

TEST(Oracle, ComboLabelsNameEachStoreKind)
{
    // Labels appear in manifests and quarantine lines, so they are
    // pinned: the store segment is the kind's --store word.
    std::vector<std::string> full;
    for (const ComboDesc &combo : fullPortfolio(1))
        full.push_back(combo.label());
    const std::vector<std::string> want_full = {
        "-/-/ram/t1", "-/sym/ram/t1", "por/-/ram/t1", "por/sym/ram/t1",
        "-/-/mmap/t1"};
    EXPECT_EQ(full, want_full);

    std::vector<std::string> replay;
    for (const ComboDesc &combo : replayPortfolio({4}))
        replay.push_back(combo.label());
    const std::vector<std::string> want_replay = {
        "-/-/ram/t4", "-/sym/ram/t4", "por/-/ram/t4", "por/sym/ram/t4",
        "-/-/mmap/t4"};
    EXPECT_EQ(replay, want_replay);
}

TEST(Oracle, PortfolioAgreesOnACorrectProgramScenario)
{
    FuzzCase c;
    c.devices = 2;
    c.init = InitKind::BothShared;
    c.programs = {{Instr::Store, Instr::Load}, {Instr::Evict}};

    OracleOptions oopt;
    oopt.portfolio = fullPortfolio(2);
    const Oracle oracle(std::move(oopt));
    const OracleReport report = oracle.check(c);
    EXPECT_FALSE(report.diverged())
        << report.divergences.front();
    EXPECT_EQ(report.reference.verdict, "holds");
    EXPECT_TRUE(report.reference.exactCounts);
    // Symmetry arms are skipped for program scenarios: 5 combos
    // (the 4-way cross product plus the mmap arm) minus 2 sym arms,
    // plus the reference.
    EXPECT_EQ(report.runs.size(), 4u);
}

TEST(Oracle, PortfolioAgreesOnAMutatedViolatingScenario)
{
    // relaxOneSnoop's free-run space violates; every combo must see
    // the same conjunct at the same depth (sym arms the same family).
    FuzzCase c;
    c.freeRun = true;
    c.devices = 2;
    c.maxStates = 20000;
    c.config.relaxOneSnoop = true;

    OracleOptions oopt;
    oopt.portfolio = fullPortfolio(2);
    const Oracle oracle(std::move(oopt));
    const OracleReport report = oracle.check(c);
    EXPECT_FALSE(report.diverged())
        << report.divergences.front();
    EXPECT_EQ(report.reference.verdict, "violation");
    EXPECT_EQ(report.runs.size(), 6u);
}

TEST(Oracle, ComparesOnlySymInvariantFactsAcrossSymmetryClasses)
{
    // Found by the fuzzer (seed 1): this configuration reaches both a
    // channel_singleton and an ordering violation at minimal depth 5.
    // Unreduced runs deterministically report the former and
    // symmetry-reduced runs the latter — the same-depth winner is
    // picked by a key that includes the state hash, which the
    // orbit quotient relabels — and neither is wrong, so the oracle
    // must compare only clean-vs-bad and depth across sym classes.
    FuzzCase c;
    c.devices = 4;
    c.freeRun = true;
    c.maxStates = 20000;
    c.memVal = 1;
    c.ownerVal = 1;
    c.owner = 2;
    c.config.staleEvictDrop = false;
    c.config.relaxSnoopPushesGo = true;
    c.config.relaxOneSnoop = true;

    OracleOptions opt;
    opt.portfolio = {
        ComboDesc{false, true, StoreKind::InRam, 1}};
    opt.randomWalkProbe = false;
    const Oracle oracle(std::move(opt));

    const OracleReport report = oracle.check(c);
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.reference.family, "channel_singleton");
    EXPECT_EQ(report.runs[1].sig.family, "ordering");
    EXPECT_FALSE(report.diverged());
}

TEST(Oracle, FlagsAPlantedDivergence)
{
    // Corrupt exactly one combination's model with an extra rule that
    // invents states (host memory spontaneously becomes 42); the
    // cross-check must notice the arms disagree.
    FuzzCase c;
    c.devices = 2;
    c.init = InitKind::BothShared;
    c.programs = {{Instr::Store}, {Instr::Load}};

    OracleOptions oopt;
    oopt.portfolio = {ComboDesc{true, false, StoreKind::InRam, 1}};
    oopt.randomWalkProbe = false;
    oopt.sessionHook = [&](CheckSession &session,
                           const ComboDesc &combo) {
        if (!combo.por)
            return;
        session.mutableRuleSet(c.config, c.devices)
            .addRule({"planted_corruption",
                      [](const Rule &, const SystemState &s,
                         const Context &) { return s.hval != 42; },
                      [](const Rule &, SystemState &s, const Context &) {
                          s.hval = 42;
                          return true;
                      }});
    };
    const Oracle oracle(std::move(oopt));
    const OracleReport report = oracle.check(c);
    EXPECT_TRUE(report.diverged())
        << "a corrupted engine arm must not pass the oracle";
}

// --------------------------------------------------------- minimizer

TEST(Minimize, IsIdempotentAndPreservesTheViolationClass)
{
    // A noisy violating case: extra instructions, a stacked second
    // mutation, non-default behavioural bits.
    FuzzCase c;
    c.devices = 3;
    c.init = InitKind::BothShared;
    c.config.relaxSnoopPushesGo = true;
    c.config.relaxGoTailgate = true;
    c.config.hostCleanPull = true;
    c.programs = {{Instr::Load, Instr::Store, Instr::Load},
                  {Instr::Store, Instr::Evict},
                  {Instr::Load, Instr::Store}};

    const VerdictSignature before = referenceSignature(c);
    ASSERT_EQ(before.verdict, "violation");

    MinimizeStats stats;
    const FuzzCase small = minimizeCase(c, before, &stats);
    EXPECT_GT(stats.shrinks, 0u);
    const VerdictSignature after = referenceSignature(small);
    EXPECT_EQ(after.classKey(), before.classKey());

    // Fixpoint: minimizing the minimum changes nothing.
    const FuzzCase again = minimizeCase(small, after);
    EXPECT_EQ(again, small);
}

TEST(Minimize, KeepsTheDiameterClassOfHoldsCases)
{
    // A clean free-run case must not collapse into the empty
    // scenario: its noveltyKey (diameter class) is part of what the
    // corpus entry witnesses.
    FuzzCase c;
    c.freeRun = true;
    c.devices = 2;
    c.maxStates = 20000;

    const VerdictSignature before = referenceSignature(c);
    ASSERT_EQ(before.verdict, "holds");
    const FuzzCase small = minimizeCase(c, before);
    const VerdictSignature after = referenceSignature(small);
    EXPECT_EQ(after.noveltyKey(), before.noveltyKey());
}

// ----------------------------------------------- corpus + promotion

TEST(Corpus, EntriesRoundTripAndLoadSorted)
{
    const fs::path dir = scratchDir("corpus_roundtrip");

    GenOptions gopt;
    gopt.seed = 23;
    ScenarioGen gen(gopt);
    std::set<std::string> names;
    for (int i = 0; i < 6; ++i) {
        CorpusEntry entry;
        entry.fuzzCase = gen.next();
        if (!names.insert(entry.fuzzCase.name()).second)
            continue;
        entry.signature = referenceSignature(entry.fuzzCase);
        ASSERT_TRUE(saveCorpusEntry(dir.string(), entry));
    }

    const std::vector<CorpusEntry> loaded = loadCorpus(dir.string());
    ASSERT_EQ(loaded.size(), names.size());
    std::string prev;
    for (const CorpusEntry &entry : loaded) {
        const std::string name = entry.fuzzCase.name();
        EXPECT_TRUE(names.count(name));
        EXPECT_GT(name, prev) << "corpus must load in name order";
        prev = name;
        // The stored signature replays against a fresh reference run.
        EXPECT_EQ(referenceSignature(entry.fuzzCase).key(),
                  entry.signature.key());
    }

    EXPECT_TRUE(loadCorpus((dir / "missing").string()).empty());
}

TEST(Corpus, PromotesEntriesIntoTheScenarioRegistry)
{
    FuzzCase c;
    c.devices = 2;
    c.freeRun = true;
    c.maxStates = 5000;
    c.config.relaxOneSnoop = true;

    CorpusEntry entry;
    entry.fuzzCase = c;
    entry.signature = referenceSignature(c);
    ASSERT_EQ(entry.signature.verdict, "violation");

    ASSERT_EQ(promoteToRegistry({entry}), 1u);
    const scenarios::Entry *reg = scenarios::byName(c.name());
    ASSERT_NE(reg, nullptr);
    EXPECT_TRUE(reg->expectViolation);
    EXPECT_EQ(reg->expectedViolationFamily, entry.signature.family);
    EXPECT_TRUE(reg->config.relaxOneSnoop);
    EXPECT_EQ(reg->fixedDevices, 2);

    // Idempotent: a second promotion is a registry no-op.
    EXPECT_EQ(promoteToRegistry({entry}), 0u);

    // Deadlock/incomplete signatures cannot be expressed as registry
    // expectations (and would free-run uncapped there), so promotion
    // leaves them fuzz-replay-only.
    CorpusEntry capped;
    capped.fuzzCase = c;
    capped.fuzzCase.config.relaxOneSnoop = false;
    capped.fuzzCase.devices = 3;
    capped.fuzzCase.maxStates = 50;
    capped.signature = referenceSignature(capped.fuzzCase);
    ASSERT_EQ(capped.signature.verdict, "incomplete");
    EXPECT_EQ(promoteToRegistry({capped}), 0u);
    EXPECT_EQ(scenarios::byName(capped.fuzzCase.name()), nullptr);
}

// ------------------------------------------- fixed-seed golden runs

/** The CLI's fuzz loop, reduced to the pieces the goldens depend on:
 * generate, oracle, promote novel signatures, persist, manifest. */
std::string
fuzzIntoDir(const fs::path &dir, std::uint64_t seed, int budget)
{
    GenOptions gopt;
    gopt.seed = seed;
    ScenarioGen gen(gopt);
    OracleOptions oopt;
    oopt.portfolio = fullPortfolio(2);
    const Oracle oracle(std::move(oopt));

    std::vector<CorpusEntry> corpus;
    std::set<std::string> seenCases, seenNovelty;
    for (int i = 0; i < budget; ++i) {
        const FuzzCase c = gen.next();
        if (!seenCases.insert(c.name()).second)
            continue;
        const OracleReport report = oracle.check(c);
        EXPECT_FALSE(report.diverged())
            << report.divergences.front();
        if (!seenNovelty.insert(report.reference.noveltyKey())
                 .second) {
            continue;
        }
        CorpusEntry entry;
        entry.fuzzCase = minimizeCase(c, report.reference);
        entry.signature = referenceSignature(entry.fuzzCase);
        corpus.push_back(entry);
        saveCorpusEntry(dir.string(), entry);
    }
    writeManifest(dir.string(), corpus);
    return readFile(dir / "MANIFEST.txt");
}

TEST(FuzzGolden, SameSeedSameBudgetYieldsByteIdenticalManifests)
{
    const fs::path dirA = scratchDir("golden_a");
    const fs::path dirB = scratchDir("golden_b");
    const std::string manifestA = fuzzIntoDir(dirA, 1, 12);
    const std::string manifestB = fuzzIntoDir(dirB, 1, 12);
    EXPECT_FALSE(manifestA.empty());
    EXPECT_EQ(manifestA, manifestB);

    // Every persisted case file is byte-identical too.
    for (const fs::directory_entry &de :
         fs::directory_iterator(dirA)) {
        EXPECT_EQ(readFile(de.path()),
                  readFile(dirB / de.path().filename()))
            << de.path().filename();
    }

    // And a different seed explores a different stream.
    const fs::path dirC = scratchDir("golden_c");
    EXPECT_NE(fuzzIntoDir(dirC, 2, 12), manifestA);
}

} // namespace
} // namespace cxl::fuzz
