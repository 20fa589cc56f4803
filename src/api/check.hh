/**
 * @file
 * The unified checker API: one façade over scenarios, engines and
 * verdicts for every front-end.
 *
 * A CheckRequest names what to verify (a registered scenario or an
 * inline program spec, the device count, which checks to run and
 * under which engine knobs); a CheckSession owns the construction of
 * rule sets, invariant sets and explorers — cached and shared across
 * requests — and turns each request into a structured CheckResult
 * (verdict, counts, per-conjunct status, timing, optional trace)
 * with renderText()/renderJson(), so callers never printf engine
 * internals or hand-assemble RuleSet + Scenario + InvariantSet +
 * Explorer themselves.
 *
 * The session also fronts the other two engines behind the same
 * model caches: guided rule-sequence walks (the paper's Tables 1-3
 * format), exhaustive litmus runs with expectations, and the
 * obligation-matrix engine (paper Fig. 1).  The Explorer is an
 * implementation detail behind run(); an mmap-backed or
 * partial-order-reduced engine can replace it without touching any
 * front-end.
 */

#ifndef CXL_API_CHECK_HH
#define CXL_API_CHECK_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/scenarios.hh"
#include "checker/explorer.hh"
#include "invariants/invariant.hh"
#include "litmus/litmus.hh"
#include "obligation/matrix.hh"
#include "obligation/universe.hh"
#include "protocol/config.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"

namespace cxl
{

/** Which properties a check runs. */
enum class CheckKind : std::uint8_t {
    Invariants, ///< evaluate the invariant set on every state
    Deadlock,   ///< report stuck states before program completion
    Both,
};

/** One verification request. */
struct CheckRequest {
    /** Registered scenario name (see scenarios::byName); empty means
     * inlineScenario carries the program spec. */
    std::string scenario;

    /** Inline scenario; its initial state fixes the device count. */
    std::optional<Scenario> inlineScenario;

    /** Device count for device-scalable named scenarios; must match
     * the pinned count of non-scalable ones. */
    int devices = kDefaultNumDevices;

    /** Protocol configuration; defaults to the registry entry's
     * (inline scenarios default to ProtocolConfig::correct()). */
    std::optional<ProtocolConfig> config;

    /** Invariant families to check; defaults to the registry entry's
     * restriction (empty = the full strengthened invariant). */
    std::optional<std::vector<std::string>> families;

    CheckKind checks = CheckKind::Both;

    /** Per-request engine override of the session defaults. */
    std::optional<EngineOptions> engine;
};

/** Status of one invariant conjunct after a run. */
struct ConjunctStatus {
    std::string name;
    std::string family;

    /**
     * False iff this is the conjunct the run's violation names.  In
     * stop-at-first-violation mode the other conjuncts held on every
     * state explored up to the violation's BFS level; on a capped run
     * they held on the explored prefix.
     */
    bool held = true;
};

/** Firing count of one rule over a run. */
struct RuleFire {
    std::string name;
    bool mutated = false;
    std::uint64_t fires = 0;
    /** Enabled firings pruned by partial-order reduction (0 when
     * POR is off). */
    std::uint64_t slept = 0;
};

/** A request resolved against the scenario registry: what a run
 * explores and checks. */
struct ResolvedCheck {
    Scenario scenario;
    ProtocolConfig config;
    std::vector<std::string> families;
    std::string name; ///< registry-canonical entry name, or the inline
                      ///< scenario's name
};

/**
 * Resolve @p request's scenario, configuration and invariant families
 * — the one place a request's names and device count are checked.
 * @throws std::runtime_error on an unknown scenario name, a device
 *         count out of range or mismatching a pinned scenario, or a
 *         request naming no scenario at all.
 */
ResolvedCheck resolveCheck(const CheckRequest &request);

/** Structured result of one CheckSession::run. */
struct CheckResult {
    enum class Verdict : std::uint8_t {
        Holds,      ///< exploration complete, no violation
        Violated,   ///< an invariant conjunct or channel cap failed
        Deadlocked, ///< a program wedged before retiring
        Incomplete, ///< a budget stopped the run (see stopReason)
    };

    // ---- request echo (resolved) -------------------------------------
    std::string scenario;     ///< name, or the inline scenario's name
    Scenario scenarioSpec;    ///< the scenario actually explored
    int devices = 0;
    ProtocolConfig config;
    std::size_t numRules = 0;
    std::size_t numConjuncts = 0;

    // ---- engine echo (resolved; see resolveEngine) ------------------
    std::size_t threads = 0;  ///< workers that ran (never 0)
    bool symmetryReduction = false;
    StoreKind store = StoreKind::InRam;
    std::string storeDir;     ///< mmap store: "" = memfd
    bool por = false;
    /** Always Bfs, rendered "bfs": a compatibility shim for the pinned
     * benchmark harness, which still reads it and goes in the next
     * change to that harness.  Every run uses the one level
     * schedule. */
    Schedule schedule = Schedule::Bfs;
    std::uint64_t maxStates = 0;

    // ---- measurements ------------------------------------------------
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint32_t diameter = 0;
    bool completed = false;
    double seconds = 0.0;
    /** Always 0, rendered nowhere: a compatibility shim for the pinned
     * benchmark harness, which still reads it and goes in the next
     * change to that harness.  The store identifies states by their
     * slice ids, so there is no collision to count. */
    std::uint64_t probeCollisions = 0;

    /**
     * Resident-set growth across this run (current RSS sampled before
     * and after; 0 when the run released as much as it allocated).
     * Unlike the process-lifetime peak_rss_bytes this is a per-run
     * number, so consecutive cases in one bench process don't all
     * repeat the earlier maximum.
     */
    std::uint64_t rssDeltaBytes = 0;

    /**
     * Largest metered memory sample of the run (RssAnon plus memfd
     * bytes; see ExploreResult::meteredPeakBytes): the number a
     * `--max-rss-mb` ceiling was checked against, so a run that held
     * its ceiling reports at most the ceiling here.  0 when no
     * ceiling was set, since nothing was sampled.  peak_rss_bytes,
     * the process-lifetime ru_maxrss, counts file-backed and shared
     * pages too and may exceed the ceiling of a run that held it.
     */
    std::uint64_t meteredPeakBytes = 0;

    /** Bytes still mapped by the store's file-backed shard memory
     * when the run ended (0 for in-RAM kinds) — the out-of-core
     * mapped window, reported next to RSS because `ulimit -v` style
     * budgets cap mapped bytes, not residency. */
    std::uint64_t mappedFileBytes = 0;

    /** Total size of the store's backing files at the end of the run
     * (0 for in-RAM kinds); how much the run spilled. */
    std::uint64_t storeFileBytes = 0;

    /** Firings pruned by POR; transitions + sleptTransitions is the
     * unreduced fan-out of the same state space. */
    std::uint64_t sleptTransitions = 0;

    /** Why the governor ended the run early (None when it completed
     * or stopped at a violation); see ExploreResult::stopReason. */
    StopReason stopReason = StopReason::None;

    /** Deepest BFS level known fully expanded when the run ended;
     * see ExploreResult::deepestCompleteLevel. */
    std::uint32_t deepestCompleteLevel = 0;

    // ---- verdict -----------------------------------------------------
    Verdict verdict = Verdict::Incomplete;
    std::optional<Violation> violation; ///< includes the trace
    std::vector<ConjunctStatus> conjuncts;
    std::vector<RuleFire> ruleFires;

    bool holds() const { return verdict == Verdict::Holds; }

    /**
     * Deterministic one-line verdict: identical across thread counts
     * and machines for complete (or violation-stopped) runs — the
     * line the CI smoke matrix diffs against its goldens.
     */
    std::string verdictText() const;

    /** Multi-line human report; @p withTrace appends the witness
     * transition table and bad-state dump when a trace exists. */
    std::string renderText(bool withTrace = true) const;

    /**
     * Machine-readable result (schema "cxl-check-result/v1"): every
     * key is always present; violation fields are null when the run
     * held.  Benches embed these objects in their BENCH_*.json.
     *
     * @p deterministic zeroes the wall-clock- and allocator-dependent
     * keys (seconds, states_per_sec, peak_rss_bytes, rss_delta_bytes,
     * metered_peak_bytes, mapped_file_bytes, store_file_bytes) so two
     * runs of the same request render
     * byte-identical JSON — the form the serve layer caches and the
     * served-vs-offline determinism checks diff.  Key set and order
     * are unchanged.
     */
    std::string renderJson(bool deterministic = false) const;
};

/** The store phrase of renderText()'s engine line: the kind and where
 * its memory lives, e.g. "mmap store (files under DIR)" for @p store
 * backed by directory @p dir. */
std::string storePhrase(StoreKind store, const std::string &dir);

/** One obligation-matrix request (paper Fig. 1 / Section 7). */
struct ObligationRequest {
    int devices = kDefaultNumDevices;
    ProtocolConfig config = ProtocolConfig::correct();

    /** Invariant families forming the matrix columns (empty = full). */
    std::vector<std::string> families;

    UniverseOptions universe;
    MatrixOptions matrix;
};

/** Structured result of one CheckSession::obligations run. */
struct ObligationResult {
    int devices = 0;
    std::size_t numRules = 0;
    std::size_t numConjuncts = 0;
    std::size_t universeSize = 0;
    UniverseStats universeStats;
    MatrixResult matrix;

    std::string renderJson() const;
};

/** A guided rule-sequence walk plus the scenario it ran under. */
struct GuidedRun {
    Scenario scenario;
    std::vector<TraceStep> steps;
};

/**
 * A verification session: shared engine defaults plus caches of the
 * per-(configuration, device-count) rule and invariant sets, so many
 * requests — a config table, a thread sweep, a litmus suite — reuse
 * one model build.  Not thread-safe; run requests sequentially (the
 * engines parallelise internally).
 *
 * Methods throw std::runtime_error on request errors (unknown
 * scenario name, device count out of range or mismatching a pinned
 * scenario, a guided step naming an unknown or disabled rule).
 */
class CheckSession
{
  public:
    explicit CheckSession(EngineOptions defaults = {});

    /** Explore the requested scenario and check the requested
     * properties. */
    CheckResult run(const CheckRequest &request);

    /** Fire an explicit rule-name sequence from the scenario's
     * initial state (the paper's Tables 1-3 walks). */
    GuidedRun guided(const CheckRequest &request,
                     const std::vector<std::string> &steps);

    /** Exhaustive litmus run with expectations, through the session's
     * model caches. */
    LitmusOutcome litmus(const LitmusTest &test);

    /** Discharge the obligation matrix.  The boundary universe is
     * cached, so re-running with different MatrixOptions (e.g. a
     * thread sweep) rebuilds nothing. */
    ObligationResult obligations(const ObligationRequest &request);

    /**
     * The cached rule / invariant sets for a configuration — the
     * extension point for harnesses (microbenchmarks, new engines)
     * that need the model without an exploration.
     */
    const RuleSet &ruleSet(const ProtocolConfig &config,
                           int devices = kDefaultNumDevices);
    const InvariantSet &invariantSet(const ProtocolConfig &config,
                                     int devices = kDefaultNumDevices);

    /**
     * Mutable access to the cached rule set — the tamper hook for
     * harnesses that need behaviour outside the ProtocolConfig space
     * (RuleSet::addRule experiments, and the fuzz oracle's
     * planted-divergence self-test, which corrupts exactly one
     * engine combination's session and asserts the cross-check flags
     * it).  Every later request of this session for the same
     * (config, devices) sees the modification.
     */
    RuleSet &mutableRuleSet(const ProtocolConfig &config,
                            int devices = kDefaultNumDevices);

    const EngineOptions &defaults() const { return defaults_; }

    /**
     * Reuse accounting of one cached (config-bits, devices) model.
     * Each live cache entry cost exactly one build (its miss); hits
     * count the later requests it served without rebuilding the
     * RuleSet/InvariantSet pair.
     */
    struct ModelCacheStat {
        int devices = 0;
        std::uint32_t configBits = 0; ///< ProtocolConfig::bits()
        std::uint64_t hits = 0;
    };

    /** Snapshot of the model cache's per-key reuse counters, in
     * ascending (devices, config-bits) key order. */
    std::vector<ModelCacheStat> modelCacheStats() const;

  private:
    struct Model {
        RuleSet rules;
        InvariantSet invariants; ///< the full strengthened set
        std::uint64_t hits = 0;  ///< cache-served requests after build
    };
    Model &modelFor(const ProtocolConfig &config, int devices);

    EngineOptions defaults_;
    std::map<std::uint32_t, std::unique_ptr<Model>> models_;

    // Most-recent boundary universe (they are hundreds of MB at
    // super_sketch scale, so only one is retained).
    std::string universeKey_;
    std::vector<SystemState> universe_;
    UniverseStats universeStats_;
};

} // namespace cxl

#endif // CXL_API_CHECK_HH
