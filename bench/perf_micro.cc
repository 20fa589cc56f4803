/**
 * @file
 * E11 — microbenchmarks (google-benchmark) backing the proof-scale
 * discussion of paper Section 6: state hashing, tid canonicalisation,
 * successor enumeration, invariant evaluation, store insertion, and
 * end-to-end exhaustive verification throughput.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/check.hh"
#include "bench_common.hh"
#include "checker/state_store.hh"

using namespace cxl;

namespace
{

SystemState
busyState()
{
    SystemState s = initialBothShared(1);
    s.dev[0].state = DState::SMAD;
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    s.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    s.dev[1].h2dData.pushBack({1, 1, 0});
    s.counter = 2;
    return s;
}

void
BM_StateHash(benchmark::State &state)
{
    SystemState s = busyState();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.hash());
        s.counter ^= 1; // defeat value caching
    }
}
BENCHMARK(BM_StateHash);

void
BM_DeviceCanonical(benchmark::State &state)
{
    // The symmetry-reduction hot path: ndev! images with early-abort
    // comparison; the argument is the device count.
    const int ndev = static_cast<int>(state.range(0));
    SystemState s = initialBothShared(1, ndev);
    s.dev[0].state = DState::SMAD;
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    s.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    s.counter = 2;
    s.canonicaliseTids();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.deviceCanonical(true, true));
        s.dev[ndev - 1].pc ^= 1; // defeat value caching
    }
}
BENCHMARK(BM_DeviceCanonical)->Arg(2)->Arg(3)->Arg(4);

void
BM_CanonicaliseTids(benchmark::State &state)
{
    SystemState s = busyState();
    for (auto _ : state) {
        SystemState copy = s;
        copy.canonicaliseTids();
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_CanonicaliseTids);

void
BM_SuccessorEnumeration(benchmark::State &state)
{
    CheckSession session;
    const RuleSet &rules = session.ruleSet(ProtocolConfig::correct());
    Scenario sc = Scenario::freeRunScenario();
    SystemState s = busyState();
    for (auto _ : state) {
        auto succs = rules.successors(s, sc, true);
        benchmark::DoNotOptimize(succs);
    }
}
BENCHMARK(BM_SuccessorEnumeration);

void
BM_ModelBuild(benchmark::State &state)
{
    // What a fresh session pays before its first check: the rule rows
    // and the conjunct rows; the argument is the device count.
    const int ndev = static_cast<int>(state.range(0));
    for (auto _ : state) {
        CheckSession session;
        benchmark::DoNotOptimize(
            &session.ruleSet(ProtocolConfig::correct(), ndev));
        benchmark::DoNotOptimize(
            &session.invariantSet(ProtocolConfig::correct(), ndev));
    }
}
BENCHMARK(BM_ModelBuild)->Arg(2)->Arg(3)->Arg(4);

void
BM_InvariantEvaluation(benchmark::State &state)
{
    CheckSession session;
    const InvariantSet &inv =
        session.invariantSet(ProtocolConfig::correct());
    Scenario sc = Scenario::freeRunScenario();
    Context ctx{&sc};
    SystemState s = busyState();
    for (auto _ : state)
        benchmark::DoNotOptimize(inv.firstFailure(s, ctx));
}
BENCHMARK(BM_InvariantEvaluation);

void
BM_StateStoreInsert(benchmark::State &state)
{
    // Insert a fresh batch of distinct states per iteration.
    std::vector<SystemState> batch;
    for (int i = 0; i < 256; ++i) {
        SystemState s;
        s.counter = static_cast<std::uint8_t>(i);
        s.dev[0].pc = static_cast<std::uint8_t>(i >> 4);
        batch.push_back(s);
    }
    for (auto _ : state) {
        StateStore store(1024);
        for (const auto &s : batch)
            store.insert(s, StateStore::kNoParent, 0, 0);
        benchmark::DoNotOptimize(store.size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StateStoreInsert);

void
BM_StateStoreInsertBatched(benchmark::State &state)
{
    // The explorer's flush path: one insertBatch call versus 256
    // single-lock round trips.  The time includes interning each
    // item's slices, which yields the ids the store hashes.
    std::vector<StateStore::BatchItem> items(256);
    for (int i = 0; i < 256; ++i) {
        SystemState s;
        s.counter = static_cast<std::uint8_t>(i);
        s.dev[0].pc = static_cast<std::uint8_t>(i >> 4);
        items[i].state = s;
    }
    for (auto _ : state) {
        StateStore store(1024);
        store.insertBatch(items.data(), items.size());
        benchmark::DoNotOptimize(store.size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StateStoreInsertBatched);

void
BM_StoreGrowthRehash(benchmark::State &state)
{
    // One bucket-array growth over a filled store re-slots every
    // entry, decoding the slice ids packed in the entry's cell (3
    // bytes each, 9 bytes at 3 devices) and hashing them.  The counter
    // is the growth's time per rehashed entry.
    constexpr int kStates = 1 << 16;
    std::vector<SystemState> states;
    for (int i = 0; i < kStates; ++i) {
        SystemState s = initialAllInvalid(0, 3);
        s.counter = static_cast<std::uint8_t>(i & 0xff);
        s.dev[0].val = static_cast<Val>((i >> 8) & 0xff);
        states.push_back(s);
    }
    double seconds = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto store = std::make_unique<StateStore>(1024);
        for (const SystemState &s : states)
            store->insert(s, StateStore::kNoParent, 0, 0);
        state.ResumeTiming();
        const auto t0 = std::chrono::steady_clock::now();
        // Each shard holds ~kStates/16 entries at 0.53-0.8 load; a
        // hint of twice that sizes it as growth would for twice the
        // entries, in one re-slot.
        store->reserveStates(2 * kStates);
        seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        state.PauseTiming();
        store.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * kStates);
    state.counters["rehash_ns"] =
        seconds * 1e9 / (static_cast<double>(state.iterations()) * kStates);
}
BENCHMARK(BM_StoreGrowthRehash)->Unit(benchmark::kMillisecond);

void
BM_StoreDuplicateProbe(benchmark::State &state)
{
    // Re-insert every state of a filled ram store in 256-item
    // batches, as an explorer flush does: each item is a duplicate, so
    // the time is interning its ndev slices (each one a lock-free hit)
    // plus the probe and the compare of the stored cell, its ids
    // packed 3 bytes each (9 bytes at 3 devices, 12 at 4), with them.  The store grew as it filled, so it probes at the
    // 0.53-0.8 load real runs see.  The argument is the device count;
    // probe_s is the time per duplicate.
    const int ndev = static_cast<int>(state.range(0));
    constexpr std::size_t kStates = 1 << 16;
    constexpr std::size_t kBatch = 256;
    std::vector<StateStore::BatchItem> items(kStates);
    for (std::size_t i = 0; i < kStates; ++i) {
        SystemState s = initialAllInvalid(0, ndev);
        s.counter = static_cast<std::uint8_t>(i & 0xff);
        for (int d = 0; d < ndev; ++d)
            s.dev[d].pc = static_cast<std::uint8_t>((i >> (8 + 3 * d)) & 7);
        items[i].state = s;
    }
    StateStore store(kStates);
    store.insertBatch(items.data(), kStates);
    for (auto _ : state) {
        for (std::size_t at = 0; at < kStates; at += kBatch)
            store.insertBatch(&items[at], kBatch);
        benchmark::DoNotOptimize(store.size());
    }
    state.SetItemsProcessed(state.iterations() * kStates);
    state.counters["probe_s"] = benchmark::Counter(
        kStates, benchmark::Counter::kIsIterationInvariantRate |
                     benchmark::Counter::kInvert);
}
BENCHMARK(BM_StoreDuplicateProbe)->Arg(3)->Arg(4);

void
BM_ExhaustiveSwmrVerification(benchmark::State &state)
{
    // End-to-end Theorem 6.2 through the session façade: the full
    // free-run space with all conjuncts checked on every state.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    std::uint64_t states = 0;
    for (auto _ : state) {
        CheckResult res = session.run(req);
        states = res.states;
        benchmark::DoNotOptimize(res.states);
    }
    state.SetItemsProcessed(state.iterations() * states);
    state.counters["reachable_states"] =
        static_cast<double>(states);
}
BENCHMARK(BM_ExhaustiveSwmrVerification)->Unit(benchmark::kMillisecond);

void
BM_ParallelSwmrVerification(benchmark::State &state)
{
    // The same end-to-end run through the depth-synchronized
    // parallel engine; the argument is the worker-thread count.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    EngineOptions engine;
    engine.threads = static_cast<std::size_t>(state.range(0));
    req.engine = engine;
    std::uint64_t states = 0;
    for (auto _ : state) {
        CheckResult res = session.run(req);
        states = res.states;
        benchmark::DoNotOptimize(res.states);
    }
    state.SetItemsProcessed(state.iterations() * states);
}
BENCHMARK(BM_ParallelSwmrVerification)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_LitmusExhaustive(benchmark::State &state)
{
    // The alternating_ops scenario: the largest litmus state space.
    CheckSession session;
    CheckRequest req;
    req.scenario = "alternating_ops";
    for (auto _ : state) {
        CheckResult res = session.run(req);
        benchmark::DoNotOptimize(res.states);
    }
}
BENCHMARK(BM_LitmusExhaustive)->Unit(benchmark::kMillisecond);

/**
 * Console reporter that also captures every finished run, so a
 * `--json <path>` invocation can drop BENCH_micro.json next to the
 * human-readable table (names, per-iteration real/cpu time, items/sec
 * and custom counters, plus the process peak RSS).
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &run : report)
            runs_.push_back(run);
        ConsoleReporter::ReportRuns(report);
    }

    void
    writeJson(const std::string &path) const
    {
        std::vector<std::string> rows;
        for (const Run &run : runs_) {
            if (run.error_occurred)
                continue;
            cxl::bench::JsonObject row;
            const double iters =
                run.iterations > 0
                    ? static_cast<double>(run.iterations)
                    : 1.0;
            row.str("name", run.benchmark_name())
                .num("iterations",
                     static_cast<std::uint64_t>(run.iterations))
                .num("real_ns_per_iter",
                     run.real_accumulated_time * 1e9 / iters)
                .num("cpu_ns_per_iter",
                     run.cpu_accumulated_time * 1e9 / iters);
            for (const auto &[name, counter] : run.counters)
                row.num(name, static_cast<double>(counter));
            rows.push_back(row.render());
        }
        cxl::bench::JsonObject json;
        json.str("bench", "perf_micro")
            .num("peak_rss_bytes", cxl::bench::peakRssBytes())
            .raw("benchmarks", cxl::bench::JsonObject::array(rows));
        cxl::bench::writeJsonFile(path, json);
    }

  private:
    std::vector<Run> runs_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Intercept the repo-wide `--json <path>` / `--json=<path>` flag
    // before google-benchmark rejects it as unrecognised.
    std::string json_path;
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--json") == 0 &&
            i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        if (i > 0 && std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;

    // Without --json, google-benchmark picks the reporter itself, so
    // --benchmark_format and --benchmark_color keep their meaning.
    if (json_path.empty()) {
        benchmark::RunSpecifiedBenchmarks();
    } else {
        CapturingReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        reporter.writeJson(json_path);
    }
    benchmark::Shutdown();
    return 0;
}
