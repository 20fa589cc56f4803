#include "obligation/matrix.hh"

#include <chrono>
#include <functional>
#include <mutex>
#include <vector>

#include "support/thread_pool.hh"

namespace cxl
{
namespace
{

/** Per-thread accumulation, merged under a lock at the end. */
struct LocalTally {
    std::vector<std::uint64_t> ruleEnabled;
    std::vector<std::uint64_t> cellFailures;
    std::vector<FailedCell> witnesses;
    std::uint64_t firings = 0;
};

} // namespace

MatrixResult
checkObligationMatrix(const RuleSet &rules, const Scenario &scenario,
                      const InvariantSet &invariant,
                      const std::vector<SystemState> &universe,
                      const MatrixOptions &options)
{
    auto start = std::chrono::steady_clock::now();

    const auto &rule_vec = rules.rules();
    const auto &conjuncts = invariant.conjuncts();

    MatrixResult result;
    result.numRules = rule_vec.size();
    result.numConjuncts = conjuncts.size();
    result.universeSize = universe.size();
    result.ruleEnabledCounts.assign(rule_vec.size(), 0);
    result.cellFailures.assign(rule_vec.size() * conjuncts.size(), 0);

    std::mutex merge_mutex;

    auto process_slice = [&](std::size_t begin, std::size_t end) {
        LocalTally tally;
        tally.ruleEnabled.assign(rule_vec.size(), 0);
        tally.cellFailures.assign(rule_vec.size() * conjuncts.size(), 0);
        Context ctx{&scenario};

        for (std::size_t s = begin; s < end; ++s) {
            const SystemState &pre = universe[s];
            for (std::size_t r = 0; r < rule_vec.size(); ++r) {
                const Rule &rule = rule_vec[r];
                if (!rule.guard(pre, ctx))
                    continue;
                ++tally.ruleEnabled[r];
                SystemState post = pre;
                if (!rule.apply(post, ctx))
                    continue; // overflow: not an obligation failure
                ++tally.firings;
                for (std::size_t c = 0; c < conjuncts.size(); ++c) {
                    if (conjuncts[c].holds(post, ctx))
                        continue;
                    std::size_t cell = r * conjuncts.size() + c;
                    if (tally.cellFailures[cell]++ == 0) {
                        FailedCell fc;
                        fc.ruleName = rule.name();
                        fc.conjunctName = conjuncts[c].name();
                        fc.pre = pre;
                        fc.post = post;
                        tally.witnesses.push_back(std::move(fc));
                    }
                }
            }
        }

        std::lock_guard<std::mutex> lock(merge_mutex);
        for (std::size_t r = 0; r < rule_vec.size(); ++r)
            result.ruleEnabledCounts[r] += tally.ruleEnabled[r];
        for (std::size_t cell = 0; cell < result.cellFailures.size();
             ++cell) {
            bool first = result.cellFailures[cell] == 0;
            result.cellFailures[cell] += tally.cellFailures[cell];
            (void)first;
        }
        result.totalFirings += tally.firings;
        for (auto &w : tally.witnesses) {
            // Keep one witness per distinct (rule, conjunct) pair.
            bool seen = false;
            for (const auto &existing : result.failures) {
                if (existing.ruleName == w.ruleName &&
                    existing.conjunctName == w.conjunctName) {
                    seen = true;
                    break;
                }
            }
            if (!seen)
                result.failures.push_back(std::move(w));
        }
    };

    std::size_t threads = options.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    if (threads == 1 || universe.size() < 2 * threads) {
        process_slice(0, universe.size());
    } else {
        ThreadPool pool(threads);
        std::size_t chunk =
            (universe.size() + 4 * threads - 1) / (4 * threads);
        if (chunk == 0)
            chunk = 1;
        std::vector<std::function<void()>> jobs;
        jobs.reserve(universe.size() / chunk + 1);
        for (std::size_t begin = 0; begin < universe.size();
             begin += chunk) {
            std::size_t end =
                std::min(begin + chunk, universe.size());
            jobs.push_back([=] { process_slice(begin, end); });
        }
        pool.submitBatch(jobs.data(), jobs.size());
        pool.wait();
    }

    auto end_time = std::chrono::steady_clock::now();
    result.seconds =
        std::chrono::duration<double>(end_time - start).count();
    return result;
}

} // namespace cxl
