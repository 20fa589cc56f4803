/**
 * @file
 * The transition rules of the CXL.cache model (paper Section 3.3).
 *
 * Each rule is a guarded command `(name, device, guard, action)` in
 * the style of paper Fig. 4, held as data.  A RuleTemplate in one of
 * two static tables (device templates in rules_device.cc, host
 * templates in rules_host.cc) carries the name stem, the footprint
 * relative to the device args, the trigger atom, and the guard and
 * action as captureless function pointers.  A Rule is a plain row: a
 * template, the device args it was instantiated over and a flags byte
 * with the configuration variants the guards read (the relaxed
 * snoop-pushes-GO and GO-tailgate restrictions).  Building a RuleSet
 * therefore allocates only its row and instance vectors; names ("SMAD_GO2", "HostMA_RspIHitSE1_s2_n3") and
 * footprints are rendered from the template when asked for.
 *
 * A RuleSet is built from a ProtocolConfig: spec-conformant toggles
 * select optional flows (CleanEvictNoData, host clean-data pulls, the
 * Section 4.4 stale-evict optimisation), and mutation flags add the
 * deliberately-broken rules (e.g. Table 3's ISADSnpInv) or strip
 * guards (Snoop-pushes-GO) for the restriction-relaxation experiments
 * of Section 5.2.  addRule appends custom rules (experiments, test
 * hooks) as rows over templates the set owns, with an opaque env
 * pointer for hook state.
 *
 * Triggers.  Every template names the one atom its guard needs live:
 * the channel it consumes or inspects (live when non-empty), or its
 * device's core (always live); each row caches it at its device args.
 * Successor enumeration computes the node's live atoms once and calls,
 * in rule-id order, only the guards of rows whose trigger is live —
 * the enabled set, the successor order and so every trace are exactly
 * those of a loop over every row (tests/test_rules_index.cc).
 */

#ifndef CXL_PROTOCOL_RULES_HH
#define CXL_PROTOCOL_RULES_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocol/config.hh"
#include "protocol/scenario.hh"
#include "protocol/state.hh"

namespace cxl
{

/** Evaluation context handed to guards and actions. */
struct Context {
    const Scenario *scenario;
};

// --- Static dependency footprints (partial-order reduction) ---------
//
// Every rule declares which *atoms* of the system state its guard and
// action read and which its action writes.  Atoms are coarse,
// disjoint slices of SystemState chosen so that footprint disjointness
// implies true commutation: the transaction counter, the host
// directory block (hval + hstate + hreq), and per device slot the
// cacheline core (val + state + buffer + pc) and each of the six
// message channels.  The checker derives a conservative independence
// relation from these masks — two rules are independent iff neither
// writes an atom the other reads or writes — which is what the
// sleep-set partial-order reduction prunes interleavings with.
namespace fp
{

/** Transaction-identifier counter (tid allocation). */
constexpr std::uint32_t kCounter = 1u << 0;

/** Host directory block: hval, hstate and the hreq requester byte. */
constexpr std::uint32_t kHost = 1u << 1;

/** Atoms per device slot: core plus the six channels. */
constexpr int kAtomsPerDevice = 7;

/** First atom bit of device slot @p d. */
constexpr int
devShift(int d)
{
    return 2 + d * kAtomsPerDevice;
}

/** Device cacheline core: val, state, buffer and pc. */
constexpr std::uint32_t
core(int d)
{
    return 1u << devShift(d);
}
constexpr std::uint32_t
d2hReq(int d)
{
    return 1u << (devShift(d) + 1);
}
constexpr std::uint32_t
d2hRsp(int d)
{
    return 1u << (devShift(d) + 2);
}
constexpr std::uint32_t
d2hData(int d)
{
    return 1u << (devShift(d) + 3);
}
constexpr std::uint32_t
h2dReq(int d)
{
    return 1u << (devShift(d) + 4);
}
constexpr std::uint32_t
h2dRsp(int d)
{
    return 1u << (devShift(d) + 5);
}
constexpr std::uint32_t
h2dData(int d)
{
    return 1u << (devShift(d) + 6);
}

/** Every atom of device slot @p d. */
constexpr std::uint32_t
devAll(int d)
{
    return ((1u << kAtomsPerDevice) - 1) << devShift(d);
}

/** Total atom count and the all-atoms mask (the conservative
 * default: a rule without a tighter annotation conflicts with
 * everything and is never reduced against). */
constexpr int kNumAtoms = 2 + kMaxDevices * kAtomsPerDevice;
constexpr std::uint32_t kAll = (1u << kNumAtoms) - 1;

/** Read set of sharerView()/ownerView() for device @p d. */
constexpr std::uint32_t
trackView(int d)
{
    return core(d) | d2hReq(d) | h2dRsp(d) | h2dData(d);
}

/** Read set of goSendAllowed() for device @p d. */
constexpr std::uint32_t
goSend(int d)
{
    return h2dReq(d) | d2hRsp(d) | d2hData(d);
}

/** Read set of grantRoom() (pushGrant headroom) for device @p d. */
constexpr std::uint32_t
grantRoom(int d)
{
    return h2dRsp(d) | h2dData(d);
}

/** A rule's declared read/write atom sets. */
struct Footprint {
    std::uint32_t reads = kAll;
    std::uint32_t writes = kAll;

    /**
     * The rule's only counter access is allocating a fresh tid (plus
     * the canonicalisation-stable `counter < kCounterMax` guard).
     * Two such rules on otherwise-disjoint footprints commute
     * *modulo tid canonicalisation*: swapping the allocation order
     * permutes the raw tid values, and first-appearance relabelling
     * maps both orders to the same canonical state.  The checker may
     * therefore ignore the counter atom between two alloc-only rules
     * when it canonicalises tids (which every exploration does).
     */
    bool counterAllocOnly = false;

    /** Neither rule writes an atom the other touches. */
    friend constexpr bool
    independent(const Footprint &a, const Footprint &b)
    {
        return (a.writes & (b.reads | b.writes)) == 0 &&
               (b.writes & (a.reads | a.writes)) == 0;
    }

    /**
     * Independence under tid canonicalisation: as independent(), but
     * the counter conflict between two alloc-only rules is forgiven
     * (see counterAllocOnly).
     */
    friend constexpr bool
    independentCanonical(const Footprint &a, const Footprint &b)
    {
        if (a.counterAllocOnly && b.counterAllocOnly) {
            const std::uint32_t drop = ~kCounter;
            return ((a.writes & drop) &
                    ((b.reads | b.writes) & drop)) == 0 &&
                   ((b.writes & drop) &
                    ((a.reads | a.writes) & drop)) == 0;
        }
        return independent(a, b);
    }
};

/** Per-device atoms in device-0 coordinates (see AtomSpec). */
namespace rel
{
constexpr std::uint32_t kCore = core(0), kD2hReq = d2hReq(0),
                        kD2hRsp = d2hRsp(0), kD2hData = d2hData(0),
                        kH2dReq = h2dReq(0), kH2dRsp = h2dRsp(0),
                        kH2dData = h2dData(0);
} // namespace rel

} // namespace fp

struct Rule;

/** Guard of a rule row: is the rule enabled in the state? */
using RuleGuard = bool (*)(const Rule &, const SystemState &,
                           const Context &);
/** Action of a rule row; false iff a channel push overflowed. */
using RuleApply = bool (*)(const Rule &, SystemState &, const Context &);

/**
 * An atom set relative to a rule's device args: global atoms, plus
 * per-device atoms (written in device-0 coordinates, e.g. fp::core(0))
 * placed at each arg, at every active device other than args[0]
 * (`others`), and at every one other than args[0] and args[1]
 * (`thirds`).
 */
struct AtomSpec {
    std::uint32_t global = 0;
    std::array<std::uint32_t, 3> arg{};
    std::uint32_t others = 0;
    std::uint32_t thirds = 0;
};

/** How a host template is instantiated per requester i. */
enum class Shape : std::uint8_t {
    One,      ///< once: (i)
    Pair,     ///< opens a loop over snoop targets o: (i, o)
    PairNext, ///< joins the open loop: (i, o)
    Chained,  ///< joins the open loop, per next target o2: (i, o, o2)
};

/** The configuration switch a template exists under. */
enum class When : std::uint8_t {
    Always,
    CleanEvictNoData,
    HostCleanPull,
    StaleDrop,
    NotStaleDrop,
    RelaxSnoopPushesGo, ///< mutation-only from here on
    RelaxGoTailgate,
    RelaxOneSnoop,
};

/** A template's footprint, relative to its device args. */
struct FootprintSpec {
    AtomSpec reads{fp::kAll};
    AtomSpec writes{fp::kAll};
    bool counterAllocOnly = false; ///< see fp::Footprint
};

/**
 * One rule template of the static tables (device templates in
 * rules_device.cc, host templates in rules_host.cc), or a custom
 * rule's template (RuleSet::addRule).  A template is instantiated
 * into one row per device-arg tuple.
 */
struct RuleTemplate {
    const char *stem; ///< name without device suffixes
    RuleGuard guard;
    RuleApply apply;
    FootprintSpec footprint;
    /**
     * The atom the guard needs live, in device-0 coordinates at
     * args[triggerArg].  A channel atom is live when the channel is
     * non-empty, a core atom always.
     */
    std::uint32_t trigger = 0;
    std::int8_t triggerArg = 0;
    Shape shape = Shape::One;
    When when = When::Always;
    void *env = nullptr; ///< opaque hook state (custom rules)
};

/** Row flag bits: the configuration variants guards read. */
namespace rule_flags
{
constexpr std::uint8_t kRelaxSnoop = 1;     ///< relaxSnoopPushesGo
constexpr std::uint8_t kRelaxSmadSnoop = 2; ///< ... or relaxSmadSnoopGuard
constexpr std::uint8_t kRelaxTailgate = 4;  ///< relaxGoTailgate
constexpr std::uint8_t kMutated = 8; ///< exists only because of a mutation
} // namespace rule_flags

/**
 * One transition rule: a plain row naming its template, the 0-based
 * device args it was instantiated over (device rules: (d); host pair
 * rules: (i, o); chained snoops: (i, o, o2); -1 = unused) and the
 * configuration flags.  Names and footprints are rendered from the
 * template on demand.
 */
struct Rule {
    const RuleTemplate *tmpl = nullptr;
    std::uint16_t id = 0;
    std::array<std::int8_t, 3> args{-1, -1, -1};
    std::uint8_t flags = 0;
    std::uint8_t ndev = 0; ///< device count of the set
    /**
     * Trigger atoms, absolute: the row is visited on a state only when
     * one of them is live (RuleSet::liveAtoms).  A template row has
     * its template's one atom; a custom row has every atom, so it is
     * visited on every state.
     */
    std::uint32_t trigger = fp::kAll;

    bool
    guard(const SystemState &s, const Context &ctx) const
    {
        return tmpl->guard(*this, s, ctx);
    }
    bool
    apply(SystemState &s, const Context &ctx) const
    {
        return tmpl->apply(*this, s, ctx);
    }

    /** "SMAD_GO2", "HostMA_RspIHitSE1_s2_n3", or a custom name. */
    std::string name() const;
    int dev() const { return args[0]; } ///< primary device, -1: custom
    bool mutated() const { return flags & rule_flags::kMutated; }
    void *env() const { return tmpl->env; }

    /**
     * Static dependency footprint (see fp::Footprint).  A custom rule
     * has the all-atoms footprint, which is always sound: it
     * conflicts with every rule and is simply never reduced against.
     */
    fp::Footprint footprint() const;
};

/** A rule outside the ProtocolConfig space (RuleSet::addRule). */
struct CustomRule {
    std::string name;
    RuleGuard guard;
    RuleApply apply;
    void *env = nullptr; ///< handed back through Rule::env()
    bool mutated = false;
};

/**
 * The complete rule set for one protocol configuration.
 */
class RuleSet
{
  public:
    /** Successor state produced by firing one rule. */
    struct Successor {
        const Rule *rule;
        SystemState state;
        bool overflow;
    };

    explicit RuleSet(ProtocolConfig config,
                     int numDevices = kDefaultNumDevices);

    const std::vector<Rule> &rules() const { return rules_; }
    const ProtocolConfig &config() const { return config_; }

    /** Device count the rules were instantiated for. */
    int numDevices() const { return num_devices_; }

    /** Number of rules excluding mutation-only rules. */
    std::size_t baseRuleCount() const;

    /** Find a rule by exact name; nullptr when absent. */
    const Rule *find(const std::string &name) const;

    /**
     * Append a custom rule (id assigned by the set), as a row over a
     * template the set owns.  Extension point for experiments and
     * tests that need behaviour outside the ProtocolConfig space —
     * e.g. deliberately overflowing a channel to exercise the
     * checker's structural-violation reporting.
     */
    void addRule(CustomRule rule);

    /**
     * Live atoms of @p s: each active device's core, and each
     * non-empty channel.
     */
    static std::uint32_t liveAtoms(const SystemState &s);

    /**
     * Enumerate all successors of @p state, in rule-id order.
     *
     * @param canonicalise relabel tids in each successor (used by the
     *        explorer to keep free-run state spaces finite).
     */
    std::vector<Successor>
    successors(const SystemState &state, const Scenario &scenario,
               bool canonicalise = false) const;

    /**
     * Enumerate successors into a caller-owned buffer (cleared first).
     * The parallel explorer reuses one buffer per worker so the hot
     * path performs no allocation once buffer capacity has warmed up.
     */
    void successorsInto(const SystemState &state,
                        const Scenario &scenario, bool canonicalise,
                        std::vector<Successor> &out) const;

    /**
     * Partial-order-reduced successor enumeration: the enabled set is
     * still exact (deadlock detection and sleep-set bookkeeping need
     * it), but rules whose bit is set in @p sleep are not fired —
     * their ids are appended to @p slept instead of producing a
     * successor.  @p sleep points at ceil(rules()/64) little-endian
     * words.
     */
    void successorsPor(const SystemState &state,
                       const Scenario &scenario, bool canonicalise,
                       const std::uint64_t *sleep,
                       std::vector<Successor> &out,
                       std::vector<std::uint16_t> &slept) const;

    /**
     * The rule implementing the same template as rule @p id after the
     * device relabelling old index -> @p oldToNew[old].  Returns -1
     * for custom rules.  Used by the checker to remap sleep-set masks
     * when symmetry canonicalisation permutes device slots.
     */
    int permutedRuleId(std::uint16_t id,
                       const std::uint8_t *oldToNew) const;

    /**
     * Fire the named rule on @p state if enabled.
     *
     * @retval true if the rule was enabled and applied.
     */
    bool fire(const std::string &name, SystemState &state,
              const Scenario &scenario) const;

  private:
    /** Call @p fire on every enabled row, in rule-id order, calling
     * only the guards of rows whose trigger is live. */
    template <typename Fire>
    void forEachEnabled(const SystemState &s, const Context &ctx,
                        Fire &&fire) const;

    /** Append the rows of @p table for requester / device @p i. */
    void instantiate(const RuleTemplate *table, std::size_t n,
                     std::size_t ordinal0, int i);
    void addRow(const RuleTemplate &t, std::size_t ordinal,
                std::array<std::int8_t, 3> args);
    /** Slot of (template ordinal, args) in instances_. */
    std::size_t instanceSlot(std::size_t ordinal,
                             const std::array<std::int8_t, 3> &a) const;

    ProtocolConfig config_;
    int num_devices_;
    std::uint8_t flags_ = 0;
    std::vector<Rule> rules_;
    /** (template ordinal, args) -> rule id + 1; 0 = absent. */
    std::vector<std::uint16_t> instances_;
    /** Custom templates, each with its name (the stem points at it). */
    struct Custom {
        RuleTemplate tmpl;
        std::string name;
    };
    std::vector<std::unique_ptr<Custom>> custom_;
};

/// The static template tables, in rule-id order of one device's
/// (requester's) instances.
extern const RuleTemplate kDeviceTemplates[];
extern const std::size_t kNumDeviceTemplates;
extern const RuleTemplate kHostTemplates[];
extern const std::size_t kNumHostTemplates;

// --- Tracking-view helpers (paper Section 8, "perfect tracking") ----

/**
 * The host's perfect-tracking view of whether device @p j holds, or is
 * in the middle of being granted, a shared copy.
 */
bool sharerView(const SystemState &s, int j);

/**
 * The host's perfect-tracking view of whether device @p j owns, or is
 * being granted ownership of, the line.
 */
bool ownerView(const SystemState &s, int j);

/**
 * GO-cannot-tailgate-snoop (CXL 3.1 Section 3.2.5.2): the host may
 * send a GO-class message to device @p i only when the H2D Request,
 * D2H Response and D2H Data channels of @p i are all empty.
 */
bool goSendAllowed(const SystemState &s, int i);

/** True iff any active device other than @p i is a tracked sharer. */
bool anyOtherSharer(const SystemState &s, int i);

/**
 * True iff no grant/forward data is in flight to any active device
 * other than @p i.  Gates ownership grants: a GO-M must not be sent
 * while shareable data still travels to some other device (the
 * paper's first Section 6 sample conjunct, generalised from "the
 * snooped device" to all peers).
 */
bool otherGrantDataDrained(const SystemState &s, int i);

} // namespace cxl

#endif // CXL_PROTOCOL_RULES_HH
