/**
 * @file
 * The explorer workloads (raw3, sym3ws, sym4c): repeated
 * CheckSession::run calls at T threads and at one thread, every
 * result checked against the workload's goldens; and, when traced,
 * the single-threaded walker run once untraced and once traced, and a
 * capped workload's uncapped run once.
 */

#ifndef CXL_BENCH_EXPLORER_LOAD_HH
#define CXL_BENCH_EXPLORER_LOAD_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/check.hh"
#include "api/options.hh"
#include "api/scenarios.hh"
#include "walker.hh"
#include "memory.hh"
#include "report.hh"
#include "stats.hh"
#include "support/cli.hh"
#include "support/hash.hh"
#include "trace.hh"
#include "workloads.hh"

namespace cxl::bench
{

/** Parse a workload's flag string exactly as a front-end would. */
inline api::StandardOptions
parseWorkloadFlags(const std::string &flags)
{
    std::vector<std::string> words{"cxl_bench"};
    std::istringstream in(flags);
    for (std::string w; in >> w;)
        words.push_back(w);
    std::vector<const char *> argv;
    for (const std::string &w : words)
        argv.push_back(w.c_str());
    const CliArgs args(static_cast<int>(argv.size()), argv.data());
    return api::standardOptions(args);
}

/**
 * How far past its state cap one worker of a capped run may insert:
 * one flush batch (the engine's kFlushBatch).  The engine documents
 * one state per worker, which holds while workers run side by side;
 * a worker descheduled with a part-filled batch flushes it after its
 * peers reached the cap (seen once in about a thousand 4-thread runs
 * on a shared 4-vCPU host).
 */
constexpr std::uint64_t kCapSlackPerWorker = 512;

/** Whether @p r meets @p w's goldens for a run at @p threads. */
inline bool
meetsGoldens(const ExplorerWorkload &w, const CheckResult &r,
             std::size_t threads)
{
    if (w.cap != 0) {
        return r.verdict == CheckResult::Verdict::Incomplete &&
               r.stopReason == StopReason::StateCap &&
               r.states >= w.cap &&
               r.states <= w.cap + threads * kCapSlackPerWorker &&
               r.deepestCompleteLevel == w.deepestCompleteLevel;
    }
    return r.holds() && r.states == w.states &&
           r.diameter == w.diameter &&
           (w.transitions == 0 || r.transitions == w.transitions);
}

/** Engine side of an explorer child: session, request and reps. */
class ExplorerLoad
{
  public:
    ExplorerLoad(const ExplorerWorkload &w, std::size_t threads,
                 std::string flags = {})
        : w_(w), threads_(threads),
          opts_(parseWorkloadFlags(
              (flags.empty() ? std::string(w.flags) : flags) +
              " --threads " + std::to_string(threads)))
    {
        const scenarios::Entry *entry = scenarios::byName("free-run");
        if (!entry)
            throw std::runtime_error("no free-run scenario registered");
        config_ = entry->config;
        scenario_ = entry->build(opts_.devices);
        request_.scenario = "free-run";
        request_.devices = opts_.devices;
    }

    /**
     * The set-up a user pays before a check: a fresh CheckSession and
     * its model build, from a trimmed heap as in a fresh process.
     * Done kSetupBatch times back to back; returns the mean seconds,
     * and the following runs use the last session.
     */
    double
    setUp()
    {
        double total = 0;
        for (int k = 0; k < kSetupBatch; ++k) {
            session_.reset();
            releaseFreeHeap();
            const std::int64_t t0 = nowNs();
            session_ = std::make_unique<CheckSession>(opts_.engine);
            session_->ruleSet(config_, opts_.devices);
            session_->invariantSet(config_, opts_.devices);
            total += secondsSince(t0);
        }
        return total / kSetupBatch;
    }

    /**
     * One checked CheckSession::run at @p threads, started from a
     * trimmed heap; returns its wall seconds and leaves the result in
     * last().  With @p mem, lastPeak() is the run's memory peak.
     */
    double
    runOnce(std::size_t threads, Report &report, PeakSampler *mem = nullptr)
    {
        EngineOptions e = opts_.engine;
        e.threads = threads;
        request_.engine = e;
        releaseFreeHeap();
        if (mem)
            mem->takePeak();
        const std::int64_t t0 = nowNs();
        last_ = session_->run(request_);
        const double wall = secondsSince(t0);
        if (mem)
            lastPeak_ = mem->takePeak();
        report.check(meetsGoldens(w_, last_, threads),
                     std::string(w_.name) + " at " +
                         std::to_string(threads) + " thread(s): " +
                         last_.verdictText() + ", " +
                         std::to_string(last_.states) + " states, " +
                         std::to_string(last_.transitions) +
                         " transitions, diameter " +
                         std::to_string(last_.diameter) +
                         ", levels 0.." +
                         std::to_string(last_.deepestCompleteLevel) +
                         " complete");
        return wall;
    }

    /** Per-run samples of measure(). */
    struct Samples {
        std::vector<double> setup; ///< seconds per set-up
        std::vector<double> atT;   ///< wall seconds at T threads
        std::vector<double> at1;   ///< wall seconds at one thread
        std::vector<double> peakMbAtT;
        std::vector<double> transitionsAtT;
    };

    /**
     * A set-up and a warm-up run at T, then repetitions: one run at T
     * threads or, with @p withOneThread, a pair of runs at T and at
     * one thread (which goes first is drawn from @p seed).  Each run
     * is on a freshly set-up session.  There are at least @p minReps
     * repetitions, and more while the next one, at the mean time so
     * far, still ends within @p seconds.  Set-ups are timed throughout
     * the window rather than in one burst (see kSetupBatch).
     */
    Samples
    measure(std::uint64_t seed, double seconds, int minReps,
            bool withOneThread, Report &report, PeakSampler *mem = nullptr)
    {
        Samples s;
        s.setup.push_back(setUp());
        runOnce(threads_, report);
        SplitMix64 rng(seed);
        const std::int64_t t0 = nowNs();
        for (int rep = 0; rep < minReps || fitsAnother(t0, rep, seconds);
             ++rep) {
            const bool oneFirst = withOneThread && rng.chance(1, 2);
            for (int k = 0; k < (withOneThread ? 2 : 1); ++k) {
                s.setup.push_back(setUp());
                if ((k == 0) == oneFirst) {
                    s.at1.push_back(runOnce(1, report));
                    continue;
                }
                s.atT.push_back(runOnce(threads_, report, mem));
                s.transitionsAtT.push_back(
                    static_cast<double>(last_.transitions));
                if (mem)
                    s.peakMbAtT.push_back(
                        static_cast<double>(lastPeak_) / 1e6);
            }
        }
        return s;
    }

    /** The walker configuration matching this workload's engine. */
    WalkerConfig
    walkerConfig()
    {
        WalkerConfig cfg;
        cfg.rules = &session_->ruleSet(config_, opts_.devices);
        cfg.invariants = &session_->invariantSet(config_, opts_.devices);
        cfg.scenario = &scenario_;
        cfg.symmetry = opts_.engine.symmetry == SymmetryMode::On ||
                       (opts_.engine.symmetry == SymmetryMode::Auto &&
                        opts_.devices > 2);
        cfg.compact = storeKindCompact(opts_.engine.store);
        cfg.por = w_.walkerPor;
        cfg.stopAfterStates = w_.walkerStopAfter;
        return cfg;
    }

    const CheckResult &last() const { return last_; }

    /** Memory peak of the last runOnce given a sampler, in bytes. */
    std::uint64_t lastPeak() const { return lastPeak_; }

  private:
    const ExplorerWorkload &w_;
    std::size_t threads_;
    api::StandardOptions opts_;
    ProtocolConfig config_;
    Scenario scenario_;
    CheckRequest request_;
    std::unique_ptr<CheckSession> session_;
    CheckResult last_;
    std::uint64_t lastPeak_ = 0;
};

/** The untraced child: the end-to-end metrics, from runs at T
 * threads.  peak_mem_mb is the median of the runs' memory peaks. */
inline Report
runExplorerChild(const ExplorerWorkload &w, std::uint64_t seed,
                 double seconds)
{
    PeakSampler mem;
    Report report;
    ExplorerLoad load(w, loadThreads());
    const ExplorerLoad::Samples s =
        load.measure(seed, seconds, 3, false, report, &mem);

    report.samples["setup_s"] = s.setup;
    report.samples["peak_mem_mb"] = s.peakMbAtT;
    report.set("setup_s", median(s.setup));
    report.set("peak_mem_mb", median(s.peakMbAtT));
    return report;
}

/** Whether two walker runs produced identical per-level counts. */
inline bool
sameCounts(const WalkerResult &a, const WalkerResult &b)
{
    return a.levelStates == b.levelStates && a.states == b.states &&
           a.transitions == b.transitions && a.slept == b.slept;
}

/**
 * A capped workload's uncapped run at T threads, checked against its
 * full-space goldens.  Returns the run's wall seconds and memory peak
 * in bytes; {0, 0} when the workload has no uncapped run.
 */
inline std::pair<double, std::uint64_t>
runFullSpace(const ExplorerWorkload &w, Report &report)
{
    if (!w.fullFlags)
        return {0.0, 0};
    ExplorerWorkload full = w;
    full.states = w.fullStates;
    full.transitions = w.fullTransitions;
    full.diameter = w.fullDiameter;
    full.cap = 0;
    const std::size_t threads = loadThreads();
    ExplorerLoad load(full, threads, w.fullFlags);
    load.setUp();
    PeakSampler mem;
    const double wall = load.runOnce(threads, report, &mem);
    return {wall, load.lastPeak()};
}

/**
 * The traced child: per-layer metrics and the span file.  run_s and
 * run_1t_s are the medians of its engine pairs, which run before the
 * walker and carry no tracing themselves.
 */
inline Report
runExplorerTraceChild(const ExplorerWorkload &w, std::uint64_t seed,
                      double seconds, const std::string &traceOut)
{
    Report report;
    ExplorerLoad load(w, loadThreads());
    const ExplorerLoad::Samples s =
        load.measure(seed, seconds / 2, 2, true, report);
    const CheckResult engine = load.last();
    report.set("run_s", median(s.atT));
    report.set("run_1t_s", median(s.at1));

    const WalkerConfig cfg = load.walkerConfig();
    releaseFreeHeap();
    const WalkerResult plain = runWalker<false>(cfg);
    releaseFreeHeap();
    Trace trace;
    const std::uint32_t root = trace.open("walker", 0);
    const WalkerResult traced = runWalker<true>(cfg, &trace, root);
    trace.close(root);

    const bool goldens =
        plain.holds && plain.completed == (w.walkerStopAfter == 0) &&
        (w.walkerStates == 0 ||
         (plain.states == w.walkerStates &&
          plain.transitions == w.walkerTransitions &&
          plain.slept == w.walkerSlept &&
          plain.diameter == w.walkerDiameter));
    char counts[160];
    std::snprintf(counts, sizeof counts,
                  "%llu states, %llu transitions, %llu slept, "
                  "diameter %u",
                  static_cast<unsigned long long>(plain.states),
                  static_cast<unsigned long long>(plain.transitions),
                  static_cast<unsigned long long>(plain.slept),
                  plain.diameter);
    report.check(goldens, std::string(w.name) + " walker: " + counts);
    report.check(sameCounts(plain, traced),
                 std::string(w.name) + " walker: traced run differs");
    if (w.walkerStopAfter == 0 && !w.walkerPor) {
        report.check(plain.states == engine.states &&
                         plain.transitions == engine.transitions &&
                         plain.diameter == engine.diameter,
                     std::string(w.name) + " walker differs from engine");
    }

    auto per = [](std::uint64_t ns, std::uint64_t n) {
        return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
    };
    const auto &L = traced.layers;
    const std::uint64_t succs = L[kTids].items;
    report.set("protocol.succ_ns", per(L[kSucc].ns, L[kSucc].calls));
    report.set("protocol.fanout", per(traced.transitions, traced.expanded));
    report.set("protocol.tids_ns", per(L[kTids].ns, succs));
    report.set("protocol.devcanon_ns", per(L[kDevCanon].ns, succs));
    report.set("protocol.devcanon_moved_ratio", per(traced.moved, succs));
    report.set("protocol.hash_ns", per(L[kHash].ns, succs));
    report.set("checker.store.insert_ns",
               per(L[kInsert].ns, L[kInsert].items));
    report.set("checker.store.fresh_ratio",
               per(traced.fresh, traced.attempted));
    report.set("checker.store.read_ns", per(L[kRead].ns, L[kRead].calls));
    report.set("checker.store.seal_ms",
               static_cast<double>(L[kSeal].ns) / 1e6);
    report.set("checker.store.bytes_per_state",
               per(plain.memGrowthBytes, plain.states));
    report.set("checker.store.file_mb",
               static_cast<double>(engine.storeFileBytes) / 1e6);
    report.set("checker.store.mapped_mb",
               static_cast<double>(engine.mappedFileBytes) / 1e6);
    report.set("checker.store.probe_collisions",
               static_cast<double>(engine.probeCollisions));
    report.set("invariants.eval_ns", per(L[kEval].ns, traced.fresh));
    report.set("checker.por.mask_ns",
               per(L[kPorMask].ns, traced.maskEdges));
    report.set("checker.por.slept_ratio",
               per(traced.slept, traced.transitions + traced.slept));
    if (w.walkerPor && engine.schedule == Schedule::WorkSteal) {
        report.set("checker.ws.redundant_ratio",
                   median(s.transitionsAtT) /
                           static_cast<double>(plain.transitions) -
                       1.0);
    }
    // Per state, so the sym4c walker's whole last level and the
    // engine's mid-level cap stop stay comparable.
    const double run1 = report.values["run_1t_s"];
    report.set("checker.explorer.speedup", run1 / report.values["run_s"]);
    report.set("checker.explorer.unattributed_share",
               1.0 - (plain.wallSeconds / static_cast<double>(plain.states)) /
                         (run1 / static_cast<double>(engine.states)));
    std::uint64_t layerNs = 0;
    for (const LayerAcc &acc : L)
        layerNs += acc.ns;
    report.set("trace.overhead_ratio",
               traced.wallSeconds / plain.wallSeconds - 1.0);
    report.set("trace.coverage",
               static_cast<double>(layerNs) * 1e-9 / traced.wallSeconds);
    report.set("api.model_build_ms", median(s.setup) * 1e3);

    releaseFreeHeap();
    const auto [fullSeconds, fullPeak] = runFullSpace(w, report);
    report.set("full_space.run_s", fullSeconds);
    report.set("full_space.peak_mem_mb", static_cast<double>(fullPeak) / 1e6);

    std::printf("%s walker levels:", w.name);
    for (std::uint64_t n : plain.levelStates)
        std::printf(" %llu", static_cast<unsigned long long>(n));
    std::printf("\n%s walker: %s; engine deepest complete level %u\n",
                w.name, counts, engine.deepestCompleteLevel);

    if (!traceOut.empty())
        report.check(trace.write(traceOut, w.name),
                     "cannot write " + traceOut);
    return report;
}

} // namespace cxl::bench

#endif // CXL_BENCH_EXPLORER_LOAD_HH
