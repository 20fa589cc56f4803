/**
 * @file
 * The invariant library: SWMR (paper Definition 6.1) plus the
 * auxiliary conjunct families that strengthen it into an invariant
 * that holds in every reachable state — the executable counterpart of
 * the paper's 796-conjunct inductive invariant (Section 6).
 *
 * Conjuncts are small named predicates over the system state,
 * organised into families.  Each is a row over one entry of a static
 * template table (a captureless `holds` function pointer that reads
 * the row's device), so building an InvariantSet allocates only its
 * row vector; names are rendered from the template on demand.  The
 * model checker evaluates all of them on every reachable state; the
 * obligation-matrix engine additionally tests each (rule, conjunct)
 * cell for inductiveness, mirroring paper Figure 1.
 */

#ifndef CXL_INVARIANTS_INVARIANT_HH
#define CXL_INVARIANTS_INVARIANT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "protocol/config.hh"
#include "protocol/rules.hh"
#include "protocol/state.hh"

namespace cxl
{

struct Conjunct;

/**
 * One conjunct template of the static table: a named predicate,
 * either over the whole system or per device (then instantiated once
 * per active device, named "<stem>_d<k>").
 */
struct ConjunctTemplate {
    const char *stem;        ///< e.g. "swmr"
    const char *family;      ///< e.g. "swmr", "channel_singleton"
    const char *description; ///< human-readable statement
    bool (*holds)(const Conjunct &, const SystemState &, const Context &);
    bool perDevice = true;
    /** Valid only with the Section 4.4 stale-evict drop (and no host
     * clean pulls); see InvariantSet::full. */
    bool staleDropOnly = false;
};

/** One conjunct of the system invariant: a plain row. */
struct Conjunct {
    const ConjunctTemplate *tmpl = nullptr;
    std::uint16_t id = 0;
    std::int8_t dev = -1; ///< device of a per-device conjunct

    bool
    holds(const SystemState &s, const Context &ctx) const
    {
        return tmpl->holds(*this, s, ctx);
    }
    std::string name() const; ///< unique, e.g. "swmr_d1"
    std::string_view family() const { return tmpl->family; }
    std::string_view description() const { return tmpl->description; }
};

/**
 * An ordered collection of conjuncts; conceptually their conjunction.
 */
class InvariantSet
{
  public:
    InvariantSet() = default;
    explicit InvariantSet(std::vector<Conjunct> conjuncts);

    /**
     * The full strengthened invariant for a configuration.  A few
     * conjuncts hold only for particular spec-fix toggles (e.g. the
     * paper's "host and device data channels must not conflict" needs
     * the Section 4.4 stale-evict drop); the builder includes exactly
     * the conjuncts valid for @p config.  Per-device conjuncts are
     * instantiated once per active device; pairwise statements
     * quantify over every other active device internally.
     */
    static InvariantSet full(const ProtocolConfig &config,
                             int numDevices = kDefaultNumDevices);

    /** Just SWMR — demonstrably *not* inductive (paper Section 6). */
    static InvariantSet swmrOnly(int numDevices = kDefaultNumDevices);

    /** The subset of this set whose families are in @p families. */
    InvariantSet
    filtered(const std::vector<std::string> &families) const;

    const std::vector<Conjunct> &conjuncts() const { return conjuncts_; }
    std::size_t size() const { return conjuncts_.size(); }

    /**
     * Evaluate every conjunct.
     *
     * @return the first failing conjunct, or nullptr if all hold.
     */
    const Conjunct *firstFailure(const SystemState &s,
                                 const Context &ctx) const;

    /** True iff every conjunct holds. */
    bool
    holds(const SystemState &s, const Context &ctx) const
    {
        return firstFailure(s, ctx) == nullptr;
    }

    /** Find a conjunct by name; nullptr when absent. */
    const Conjunct *find(const std::string &name) const;

    /** Distinct family names, in first-appearance order. */
    std::vector<std::string> families() const;

  private:
    std::vector<Conjunct> conjuncts_;
};

/**
 * The SWMR property alone (paper Definition 6.1), quantified over all
 * active device pairs: no device has write access while another has
 * read or write access.
 */
bool swmrHolds(const SystemState &s);

/**
 * Select the conjuncts to check: @p full itself when @p families is
 * empty, otherwise the filtered subset materialised into @p storage.
 * Centralises the reference-or-local lifetime subtlety for the
 * callers (CheckSession, runLitmus) that take an optional family
 * restriction; the returned reference is valid as long as both
 * arguments are.
 */
inline const InvariantSet &
selectFamilies(const InvariantSet &full,
               const std::vector<std::string> &families,
               InvariantSet &storage)
{
    if (families.empty())
        return full;
    storage = full.filtered(families);
    return storage;
}

} // namespace cxl

#endif // CXL_INVARIANTS_INVARIANT_HH
