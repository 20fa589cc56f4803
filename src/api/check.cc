#include "api/check.hh"

#include <stdexcept>

#include "litmus/trace_table.hh"
#include "support/json.hh"
#include "support/resource.hh"

namespace cxl
{
namespace
{

/** Cache key over every behavioural switch plus the device count. */
std::uint32_t
modelKey(const ProtocolConfig &c, int devices)
{
    return (static_cast<std::uint32_t>(devices)
            << ProtocolConfig::kNumBits) |
           c.bits();
}

const char *
verdictWord(CheckResult::Verdict v)
{
    switch (v) {
      case CheckResult::Verdict::Holds: return "holds";
      case CheckResult::Verdict::Violated: return "violation";
      case CheckResult::Verdict::Deadlocked: return "deadlock";
      case CheckResult::Verdict::Incomplete: return "incomplete";
    }
    return "?";
}

} // namespace

// ------------------------------------------------------ CheckResult

std::string
CheckResult::verdictText() const
{
    char buf[160];
    switch (verdict) {
      case Verdict::Holds:
        std::snprintf(buf, sizeof(buf),
                      "HOLDS (%llu states, %llu transitions, "
                      "diameter %u)",
                      static_cast<unsigned long long>(states),
                      static_cast<unsigned long long>(transitions),
                      diameter);
        break;
      case Verdict::Violated:
        if (!violation) {
            std::snprintf(buf, sizeof(buf),
                          "VIOLATION (details not carried)");
        } else if (violation->kind == Violation::Kind::Overflow) {
            std::snprintf(buf, sizeof(buf),
                          "VIOLATION channel overflow by %s at "
                          "depth %u",
                          violation->overflowRule.c_str(),
                          violation->depth);
        } else {
            std::snprintf(buf, sizeof(buf),
                          "VIOLATION %s (%s) at depth %u",
                          violation->conjunctName.c_str(),
                          violation->conjunctFamily.c_str(),
                          violation->depth);
        }
        break;
      case Verdict::Deadlocked:
        std::snprintf(buf, sizeof(buf), "DEADLOCK at depth %u",
                      violation ? violation->depth : 0);
        break;
      case Verdict::Incomplete:
        // Results that predate the governor carry StopReason::None;
        // the only early stop back then was the state cap.
        std::snprintf(buf, sizeof(buf), "INCOMPLETE (stopped: %s)",
                      stopReasonPhrase(stopReason == StopReason::None
                                           ? StopReason::StateCap
                                           : stopReason));
        break;
    }
    return buf;
}

std::string
storePhrase(StoreKind store, const std::string &dir)
{
    const std::string medium = !storeKindMmap(store) ? "anonymous memory"
                               : dir.empty()         ? "memfd"
                                                     : "files under " + dir;
    return std::string(storeKindWord(store)) + " store (" + medium + ")";
}

std::string
CheckResult::renderText(bool withTrace) const
{
    std::string out;
    char line[256];

    std::snprintf(line, sizeof(line),
                  "scenario '%s' — %d device(s), %zu rules, %zu "
                  "conjuncts\n",
                  scenario.c_str(), devices, numRules, numConjuncts);
    out += line;
    // The store medium is text-only: a directory of any length is
    // appended, not formatted into the fixed line buffer.
    std::snprintf(line, sizeof(line),
                  "engine: %zu thread(s), symmetry %s, ", threads,
                  symmetryReduction ? "on" : "off");
    out += line;
    out += storePhrase(store, storeDir);
    std::snprintf(line, sizeof(line), ", por %s, bfs schedule\n",
                  por ? "on" : "off");
    out += line;
    std::snprintf(
        line, sizeof(line),
        "explored %llu states / %llu transitions, diameter %u, "
        "%.3f s (%.0f states/s)\n",
        static_cast<unsigned long long>(states),
        static_cast<unsigned long long>(transitions), diameter,
        seconds,
        seconds > 0 ? static_cast<double>(states) / seconds : 0.0);
    out += line;
    if (verdict == Verdict::Incomplete) {
        std::snprintf(
            line, sizeof(line),
            "partial run: stopped by %s; levels 0..%u fully "
            "expanded\n",
            stopReasonPhrase(stopReason == StopReason::None
                                 ? StopReason::StateCap
                                 : stopReason),
            deepestCompleteLevel);
        out += line;
    }
    if (verdict == Verdict::Incomplete && threads > 1) {
        // A parallel capped run stops at a thread-dependent point:
        // the soft maxStates cap may be overshot by up to one flush
        // batch per worker, so the counts above are not exact run
        // properties.  (A single-threaded capped run is exact and
        // reproducible, so it carries no qualifier.)
        out += "(capped run: counts are thread-dependent — the "
               "maxStates soft cap can overshoot by up to one flush "
               "batch (512 states) per worker; re-run uncapped for "
               "comparable counts)\n";
    }
    if (por) {
        const std::uint64_t candidates =
            transitions + sleptTransitions;
        std::snprintf(
            line, sizeof(line),
            "por: slept %llu of %llu enabled firings (%.1f%%)\n",
            static_cast<unsigned long long>(sleptTransitions),
            static_cast<unsigned long long>(candidates),
            candidates > 0 ? 100.0 *
                                 static_cast<double>(sleptTransitions) /
                                 static_cast<double>(candidates)
                           : 0.0);
        out += line;
    }

    std::size_t exercised = 0;
    for (const RuleFire &rf : ruleFires)
        exercised += rf.fires > 0 ? 1 : 0;
    std::snprintf(line, sizeof(line),
                  "rules exercised: %zu / %zu\n", exercised,
                  ruleFires.size());
    out += line;
    // Two peaks: the process-lifetime ru_maxrss, and the largest
    // sample a --max-rss-mb ceiling was checked against (taken only
    // under a ceiling).
    constexpr double kMiB = 1024.0 * 1024.0;
    std::snprintf(line, sizeof(line), "memory: peak RSS %.1f MiB",
                  static_cast<double>(peakRssBytes()) / kMiB);
    out += line;
    if (meteredPeakBytes != 0) {
        std::snprintf(line, sizeof(line),
                      ", metered peak %.1f MiB (RssAnon + memfd, what "
                      "the memory ceiling bounds)",
                      static_cast<double>(meteredPeakBytes) / kMiB);
        out += line;
    }
    out += "\n";

    out += "verdict: " + verdictText() + "\n";

    if (withTrace && violation && violation->trace.size() > 1) {
        out += "\nwitness trace (shortest):\n";
        out += renderTraceTable(violation->trace, scenarioSpec,
                                defaultTraceColumns(devices));
        out += "\nbad state:\n" +
               violation->trace.back().state.dump();
    }
    return out;
}

std::string
CheckResult::renderJson(bool deterministic) const
{
    // Deterministic mode zeroes the wall-clock/allocator keys — and
    // nothing else — so the key set and order stay schema-stable.
    // The store kind and medium are deliberately not keys: verdicts
    // and counts are store-independent, the serve cache collapses
    // ram and mmap onto one entry, and a cached in-RAM result must
    // stay byte-identical to an offline mmap run.
    const double secs = deterministic ? 0.0 : seconds;
    JsonObject json;
    json.str("schema", "cxl-check-result/v1")
        .str("scenario", scenario)
        .num("devices", static_cast<std::uint64_t>(devices))
        .num("threads", static_cast<std::uint64_t>(threads))
        .boolean("symmetry_reduction", symmetryReduction)
        .boolean("por", por)
        .str("schedule", "bfs")
        .num("max_states", maxStates)
        .num("rules", static_cast<std::uint64_t>(numRules))
        .num("conjuncts", static_cast<std::uint64_t>(numConjuncts))
        .num("states", states)
        .num("transitions", transitions)
        .num("slept_transitions", sleptTransitions)
        .num("diameter", static_cast<std::uint64_t>(diameter))
        .boolean("completed", completed)
        .raw("stop_reason",
             stopReason == StopReason::None
                 ? "null"
                 : JsonObject::quote(stopReasonWord(stopReason)))
        .num("deepest_complete_level",
             static_cast<std::uint64_t>(deepestCompleteLevel))
        .num("seconds", secs)
        .num("states_per_sec",
             secs > 0 ? static_cast<double>(states) / secs : 0.0)
        .str("verdict", verdictWord(verdict));
    if (violation) {
        const bool conj = violation->kind == Violation::Kind::Conjunct;
        json.str("violation_kind",
                 violation->kind == Violation::Kind::Deadlock
                     ? "deadlock"
                 : conj ? "conjunct"
                        : "overflow")
            .raw("violated_conjunct",
                 conj ? JsonObject::quote(violation->conjunctName)
                      : "null")
            .raw("violated_family",
                 conj ? JsonObject::quote(violation->conjunctFamily)
                      : "null")
            .num("violation_depth",
                 static_cast<std::uint64_t>(violation->depth));
    } else {
        json.raw("violation_kind", "null")
            .raw("violated_conjunct", "null")
            .raw("violated_family", "null")
            .raw("violation_depth", "null");
    }
    json.num("peak_rss_bytes",
             deterministic ? 0 : peakRssBytes())
        .num("rss_delta_bytes", deterministic ? 0 : rssDeltaBytes)
        .num("metered_peak_bytes", deterministic ? 0 : meteredPeakBytes)
        .num("mapped_file_bytes", deterministic ? 0 : mappedFileBytes)
        .num("store_file_bytes", deterministic ? 0 : storeFileBytes);
    return json.render();
}

// ------------------------------------------------- ObligationResult

std::string
ObligationResult::renderJson() const
{
    JsonObject json;
    json.str("schema", "cxl-obligation-result/v1")
        .num("devices", static_cast<std::uint64_t>(devices))
        .num("rules", static_cast<std::uint64_t>(numRules))
        .num("conjuncts", static_cast<std::uint64_t>(numConjuncts))
        .num("universe", static_cast<std::uint64_t>(universeSize))
        .num("reachable_seeds",
             static_cast<std::uint64_t>(universeStats.reachableSeeds))
        .num("perturbed_accepted",
             static_cast<std::uint64_t>(
                 universeStats.perturbedAccepted))
        .num("cells", static_cast<std::uint64_t>(matrix.totalCells()))
        .num("rule_firings", matrix.totalFirings)
        .num("failing_cells", matrix.failedCellCount())
        .num("uncovered_rules",
             static_cast<std::uint64_t>(matrix.uncoveredRules()))
        .num("seconds", matrix.seconds);
    return json.render();
}

// ------------------------------------------------------ CheckSession

CheckSession::CheckSession(EngineOptions defaults)
    : defaults_(defaults)
{
}

CheckSession::Model &
CheckSession::modelFor(const ProtocolConfig &config, int devices)
{
    const std::uint32_t key = modelKey(config, devices);
    auto it = models_.find(key);
    if (it == models_.end()) {
        auto model = std::make_unique<Model>(Model{
            RuleSet(config, devices),
            InvariantSet::full(config, devices),
            0,
        });
        it = models_.emplace(key, std::move(model)).first;
    } else {
        ++it->second->hits;
    }
    return *it->second;
}

std::vector<CheckSession::ModelCacheStat>
CheckSession::modelCacheStats() const
{
    std::vector<ModelCacheStat> stats;
    stats.reserve(models_.size());
    for (const auto &[key, model] : models_) {
        // Inverse of modelKey: devices above the config bits.
        stats.push_back(
            {static_cast<int>(key >> ProtocolConfig::kNumBits),
             key & ((1u << ProtocolConfig::kNumBits) - 1), model->hits});
    }
    return stats;
}

const RuleSet &
CheckSession::ruleSet(const ProtocolConfig &config, int devices)
{
    return modelFor(config, devices).rules;
}

RuleSet &
CheckSession::mutableRuleSet(const ProtocolConfig &config, int devices)
{
    return modelFor(config, devices).rules;
}

const InvariantSet &
CheckSession::invariantSet(const ProtocolConfig &config, int devices)
{
    return modelFor(config, devices).invariants;
}

ResolvedCheck
resolveCheck(const CheckRequest &request)
{
    ResolvedCheck r;
    if (!request.scenario.empty()) {
        const scenarios::Entry *entry =
            scenarios::byName(request.scenario);
        if (!entry) {
            throw std::runtime_error("unknown scenario '" +
                                     request.scenario + "'");
        }
        int ndev = request.devices;
        if (!entry->deviceScalable) {
            if (ndev != kDefaultNumDevices &&
                ndev != entry->fixedDevices) {
                throw std::runtime_error(
                    "scenario '" + entry->name + "' is pinned to " +
                    std::to_string(entry->fixedDevices) +
                    " device(s)");
            }
            ndev = entry->fixedDevices;
        }
        if (ndev < 1 || ndev > kMaxDevices) {
            throw std::runtime_error(
                "device count " + std::to_string(ndev) +
                " out of range [1, " + std::to_string(kMaxDevices) +
                "]");
        }
        r.scenario = entry->build(ndev);
        r.config = request.config.value_or(entry->config);
        r.families = request.families.value_or(entry->families);
        r.name = entry->name;
    } else if (request.inlineScenario) {
        r.scenario = *request.inlineScenario;
        const int ndev = r.scenario.numDevices();
        if (ndev < 1 || ndev > kMaxDevices) {
            throw std::runtime_error(
                "inline scenario device count " +
                std::to_string(ndev) + " out of range [1, " +
                std::to_string(kMaxDevices) + "]");
        }
        r.config = request.config.value_or(ProtocolConfig::correct());
        r.families =
            request.families.value_or(std::vector<std::string>{});
        r.name = r.scenario.name;
    } else {
        throw std::runtime_error(
            "CheckRequest carries neither a scenario name nor an "
            "inline scenario");
    }
    return r;
}

CheckResult
CheckSession::run(const CheckRequest &request)
{
    const ResolvedCheck resolved = resolveCheck(request);
    const int devices = resolved.scenario.numDevices();
    const ExploreOptions opt{request.engine.value_or(defaults_),
                             request.checks != CheckKind::Deadlock,
                             request.checks != CheckKind::Invariants};
    const ResolvedEngine engine = resolveEngine(opt, resolved.scenario);

    Model &model = modelFor(resolved.config, devices);
    InvariantSet filtered;
    const InvariantSet &invariants =
        selectFamilies(model.invariants, resolved.families, filtered);

    Explorer explorer(model.rules, resolved.scenario, invariants);
    const std::uint64_t rss_before = currentRssBytes();
    ExploreResult res = explorer.run(opt);
    const std::uint64_t rss_after = currentRssBytes();

    CheckResult out;
    out.scenario = resolved.name;
    out.scenarioSpec = resolved.scenario;
    out.devices = devices;
    out.config = resolved.config;
    out.numRules = model.rules.rules().size();
    out.numConjuncts = invariants.size();
    out.threads = engine.threads;
    out.symmetryReduction = engine.symmetry;
    out.store = opt.store;
    out.storeDir = opt.storeDir;
    out.por = opt.por;
    out.maxStates = engine.maxStates;
    out.states = res.numStates;
    out.transitions = res.numTransitions;
    out.diameter = res.maxDepth;
    out.completed = res.completed;
    out.seconds = res.seconds;
    out.sleptTransitions = res.sleptTransitions;
    out.stopReason = res.stopReason;
    out.deepestCompleteLevel = res.deepestCompleteLevel;
    out.rssDeltaBytes =
        rss_after > rss_before ? rss_after - rss_before : 0;
    out.meteredPeakBytes = res.meteredPeakBytes;
    out.mappedFileBytes = res.storeMappedBytes;
    out.storeFileBytes = res.storeFileBytes;

    if (res.violation) {
        out.verdict = res.violation->kind == Violation::Kind::Deadlock
                          ? CheckResult::Verdict::Deadlocked
                          : CheckResult::Verdict::Violated;
    } else {
        out.verdict = res.completed ? CheckResult::Verdict::Holds
                                    : CheckResult::Verdict::Incomplete;
    }

    out.conjuncts.reserve(invariants.size());
    for (const Conjunct &c : invariants.conjuncts()) {
        const bool violated =
            res.violation &&
            res.violation->kind == Violation::Kind::Conjunct &&
            res.violation->conjunctName == c.name();
        out.conjuncts.push_back(
            {c.name(), std::string(c.family()), !violated});
    }
    out.ruleFires.reserve(model.rules.rules().size());
    for (const Rule &rule : model.rules.rules()) {
        const std::uint64_t fires =
            rule.id < res.ruleFireCounts.size()
                ? res.ruleFireCounts[rule.id]
                : 0;
        const std::uint64_t slept =
            rule.id < res.ruleSleptCounts.size()
                ? res.ruleSleptCounts[rule.id]
                : 0;
        out.ruleFires.push_back(
            {rule.name(), rule.mutated(), fires, slept});
    }
    out.violation = std::move(res.violation);
    return out;
}

GuidedRun
CheckSession::guided(const CheckRequest &request,
                     const std::vector<std::string> &steps)
{
    const ResolvedCheck resolved = resolveCheck(request);
    Model &model =
        modelFor(resolved.config, resolved.scenario.numDevices());
    GuidedRun run;
    run.scenario = resolved.scenario;
    run.steps = runGuided(model.rules, run.scenario, steps);
    return run;
}

LitmusOutcome
CheckSession::litmus(const LitmusTest &test)
{
    Model &model =
        modelFor(test.config, test.scenario.numDevices());
    return runLitmus(test, model.rules, model.invariants);
}

ObligationResult
CheckSession::obligations(const ObligationRequest &request)
{
    if (request.devices < 1 || request.devices > kMaxDevices) {
        throw std::runtime_error(
            "device count " + std::to_string(request.devices) +
            " out of range [1, " + std::to_string(kMaxDevices) + "]");
    }
    Model &model = modelFor(request.config, request.devices);
    InvariantSet filtered;
    const InvariantSet &invariants =
        selectFamilies(model.invariants, request.families, filtered);

    Scenario scenario = Scenario::freeRunScenario(request.devices);

    // One universe is cached (they are large); the key covers every
    // input that shapes it.
    std::string key =
        std::to_string(modelKey(request.config, request.devices));
    for (const std::string &f : request.families)
        key += "|" + f;
    key += "#" + std::to_string(request.universe.seed) + ":" +
           std::to_string(request.universe.maxReachable) + ":" +
           std::to_string(request.universe.perturbationsPerSeed) +
           ":" + std::to_string(request.universe.maxStates);
    if (key != universeKey_) {
        universeStats_ = {};
        universe_ = buildUniverse(model.rules, scenario, invariants,
                                  request.universe, &universeStats_);
        universeKey_ = key;
    }

    ObligationResult out;
    out.devices = request.devices;
    out.numRules = model.rules.rules().size();
    out.numConjuncts = invariants.size();
    out.universeSize = universe_.size();
    out.universeStats = universeStats_;
    out.matrix = checkObligationMatrix(model.rules, scenario,
                                       invariants, universe_,
                                       request.matrix);
    return out;
}

} // namespace cxl
