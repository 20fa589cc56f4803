/**
 * @file
 * The fuzzer's scenario representation: a FuzzCase is a fully
 * serialisable point in the scenario space the generator samples —
 * config bits x invariant-family restriction x device count x inline
 * litmus programs (or a capped free run) — plus the VerdictSignature
 * the differential oracle condenses a CheckResult into.
 *
 * A FuzzCase deliberately carries *data only* (no std::function), so
 * it can round-trip through JSON byte-identically: that is what makes
 * the corpus replayable and the fixed-seed manifest golden-testable.
 */

#ifndef CXL_FUZZ_CASE_HH
#define CXL_FUZZ_CASE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/check.hh"
#include "protocol/config.hh"
#include "protocol/scenario.hh"
#include "support/json_parse.hh"

namespace cxl::fuzz
{

/** Initial-state template of a generated scenario. */
enum class InitKind : std::uint8_t {
    AllInvalid, ///< initialAllInvalid(memVal)
    BothShared, ///< initialBothShared(memVal)
    OneModified ///< initialOneModified(owner, ownerVal, memVal)
};

/** One generated scenario, closed under JSON round-tripping. */
struct FuzzCase {
    int devices = kDefaultNumDevices;

    /** Free-run mode explores the whole reachable space under
     * maxStates; program mode runs the inline litmus programs. */
    bool freeRun = false;

    InitKind init = InitKind::AllInvalid;
    std::uint8_t memVal = 0;   ///< host/memory value
    std::uint8_t ownerVal = 0; ///< OneModified owner's value
    std::uint8_t owner = 0;    ///< OneModified owning device

    /** Inline litmus programs, one per device (program mode only). */
    std::vector<std::vector<Instr>> programs;

    ProtocolConfig config;

    /** Invariant-family restriction (empty = full invariant). */
    std::vector<std::string> families;

    /**
     * State cap for free-run exploration (0 = uncapped).  Program
     * scenarios are finite and small, so they always run uncapped
     * and their counts join the cross-check; capped runs exclude
     * thread-dependent counts from the comparison instead.
     */
    std::uint64_t maxStates = 0;

    /** Content-derived stable identifier: "g" + 16 hex digits. */
    std::string name() const;

    /** The scenario this case describes (programs or free run). */
    Scenario toScenario() const;

    /** A ready-to-run request (engine knobs left to the caller). */
    CheckRequest toRequest() const;

    /** Canonical JSON form (schema "cxl-fuzz-case/v1"). */
    std::string renderJson() const;

    /**
     * Parse a case previously produced by renderJson.
     * @throws std::runtime_error on malformed input.
     */
    static FuzzCase fromJson(const std::string &text);

    friend bool operator==(const FuzzCase &a, const FuzzCase &b);
};

/**
 * The engine-invariant face of a CheckResult, as compared by the
 * differential oracle and stored with each corpus entry.
 *
 * Counts (states, diameter) are meaningful only when exactCounts is
 * set: a run that completed, or stopped at a violation with no state
 * cap in play.  Cap-truncated parallel runs stop at thread-dependent
 * points, so their counts are recorded as zero and excluded from
 * both key() and the cross-check.
 */
struct VerdictSignature {
    std::string verdict;      ///< holds|violation|deadlock|incomplete
    std::string kind = "-";   ///< conjunct|overflow|deadlock|"-"
    std::string conjunct = "-"; ///< conjunct name / overflow rule / "-"
    std::string family = "-"; ///< conjunct family or "-"
    std::uint32_t depth = 0; ///< violation depth (0 otherwise)
    bool exactCounts = false;
    std::uint64_t states = 0;
    std::uint32_t diameter = 0;

    /** Full identity, e.g.
     * "violation/conjunct/swmr_d1/swmr/d7/s312/r7". */
    std::string key() const;

    /**
     * The minimizer-preserved core: verdict kind + violated conjunct
     * + family.  Depth and counts shrink as the minimizer drops
     * steps, so they are deliberately not part of this key.
     */
    std::string classKey() const;

    /**
     * Novelty bucket for corpus promotion: classKey plus the
     * diameter class (floor(log2(diameter + 1)) when counts are
     * exact) — "new verdict, newly violated conjunct, new diameter
     * class" from the tentpole spec.
     */
    std::string noveltyKey() const;

    friend bool
    operator==(const VerdictSignature &a, const VerdictSignature &b)
    {
        return a.key() == b.key();
    }
};

/**
 * Condense a CheckResult.  @p capped marks a run whose scenario
 * carried a state cap: its counts are only exact when the
 * exploration completed below the cap.
 */
VerdictSignature signatureOf(const CheckResult &result, bool capped);

/** Lower-case instruction word used in the JSON form. */
std::string instrWord(Instr i);

/** Inverse of instrWord. @throws std::runtime_error on junk. */
Instr instrFromWord(const std::string &word);

/**
 * The ProtocolConfig switches as a JSON object — the `config` key
 * shared by the cxl-fuzz-case/v1 and cxl-checkd/v1 schemas (one
 * boolean per switch, snake_case names).
 */
std::string configJson(const ProtocolConfig &config);

/** Inverse of configJson over a parsed member; nullptr or missing
 * keys keep the ProtocolConfig defaults. */
ProtocolConfig configFromJsonValue(const JsonValue *cfg);

} // namespace cxl::fuzz

#endif // CXL_FUZZ_CASE_HH
