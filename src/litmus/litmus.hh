/**
 * @file
 * Litmus-test engine (paper Section 5).
 *
 * A litmus test pins down an initial state and device programs, then
 * either (a) *guided* — fires an explicit rule sequence to reproduce a
 * specific interleaving, the way the paper's Tables 1-3 walk one path,
 * or (b) *exhaustive* — explores every interleaving, checks the
 * invariant on all intermediate states and a user predicate on all
 * terminal states, the way the paper's Isabelle `value` runs confirm
 * "regardless of how nondeterminism is resolved, the model ends up in
 * an expected final state".
 */

#ifndef CXL_LITMUS_LITMUS_HH
#define CXL_LITMUS_LITMUS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checker/explorer.hh"
#include "invariants/invariant.hh"
#include "protocol/config.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"

namespace cxl
{

/** Declarative litmus-test definition. */
struct LitmusTest {
    std::string name;
    std::string description;
    Scenario scenario;
    ProtocolConfig config;

    /** Expect the exhaustive run to find an invariant violation. */
    bool expectViolation = false;

    /** If non-empty, the violated conjunct must be in this family. */
    std::string expectedViolationFamily;

    /**
     * If non-empty, only conjuncts of these families are checked —
     * used by relaxation tests that target one property (e.g. pure
     * SWMR for the Table 3 walk) without the strengthened invariant
     * flagging the bug a step earlier.
     */
    std::vector<std::string> restrictToFamilies;

    /**
     * Predicate every terminal state (programs finished, no rule
     * enabled) must satisfy; null accepts anything.
     */
    std::function<bool(const SystemState &)> finalCheck;
    std::string finalCheckDescription;
};

/** Result of an exhaustive litmus run. */
struct LitmusOutcome {
    bool passed = false;
    std::string message;
    ExploreResult explore;
    /** Distinct terminal states (deduplicated). */
    std::vector<SystemState> finals;
};

/**
 * Exhaustively run one litmus test: explore all interleavings, check
 * invariants everywhere, collect terminal states and evaluate the
 * expectations.
 */
LitmusOutcome runLitmus(const LitmusTest &test);

/**
 * As above, with the model prebuilt by the caller: @p rules and
 * @p fullInvariants must match the test's config and device count
 * (the test's restrictToFamilies filter is still applied here).
 * CheckSession uses this to share one model build across a suite.
 */
LitmusOutcome runLitmus(const LitmusTest &test, const RuleSet &rules,
                        const InvariantSet &fullInvariants);

/**
 * Fire an explicit rule-name sequence from the scenario's initial
 * state (the paper's Tables 1-3 format).
 *
 * @throws std::runtime_error if a named rule is unknown or disabled
 *         in the current state — the harness treats that as a test
 *         failure, not a protocol property.
 */
std::vector<TraceStep> runGuided(const RuleSet &rules,
                                 const Scenario &scenario,
                                 const std::vector<std::string> &steps);

/** The built-in litmus suite (paper Section 5.1's eight scenarios). */
std::vector<LitmusTest> builtinLitmusSuite();

/** The restriction-relaxation tests of paper Section 5.2. */
std::vector<LitmusTest> restrictionRelaxationSuite();

} // namespace cxl

#endif // CXL_LITMUS_LITMUS_HH
