#include "protocol/rules.hh"

#include <algorithm>
#include <cassert>
#include <functional>

namespace cxl
{

bool
sharerView(const SystemState &s, int j)
{
    const DeviceState &d = s.dev[j];
    switch (d.state) {
      case DState::S:
      case DState::SMAD:
      case DState::ISD:
      case DState::ISA:
        return true;
      case DState::SIA:
      case DState::SIAC:
        // An evicting sharer counts only while its eviction request is
        // still queued; once the host has processed it the directory
        // has already discounted the device (the GO_WritePull[Drop] is
        // in flight and the line is as good as gone).
        return !d.d2hReq.empty();
      case DState::ISAD:
        // A grant is in flight: the host has already promised S.
        return !d.h2dRsp.empty() || !d.h2dData.empty();
      default:
        return false;
    }
}

bool
ownerView(const SystemState &s, int j)
{
    const DeviceState &d = s.dev[j];
    switch (d.state) {
      case DState::M:
      case DState::IMD:
      case DState::IMA:
      case DState::SMD:
      case DState::SMA:
        return true;
      case DState::MIA:
        // Same discounting as evicting sharers in sharerView().
        return !d.d2hReq.empty();
      case DState::IMAD:
      case DState::SMAD:
        // Ownership grant in flight.
        return !d.h2dRsp.empty() || !d.h2dData.empty();
      default:
        return false;
    }
}

bool
goSendAllowed(const SystemState &s, int i)
{
    const DeviceState &d = s.dev[i];
    return d.h2dReq.empty() && d.d2hRsp.empty() && d.d2hData.empty();
}

bool
anyOtherSharer(const SystemState &s, int i)
{
    for (int k = 0; k < s.ndev; ++k) {
        if (k != i && sharerView(s, k))
            return true;
    }
    return false;
}

bool
otherGrantDataDrained(const SystemState &s, int i)
{
    for (int k = 0; k < s.ndev; ++k) {
        if (k != i && !s.dev[k].h2dData.empty())
            return false;
    }
    return true;
}

namespace
{

/** The atoms @p spec names for a row over @p args. */
std::uint32_t
resolve(const AtomSpec &spec, const std::array<std::int8_t, 3> &args,
        int ndev)
{
    const auto place = [](std::uint32_t atoms, int k) {
        return atoms << (k * fp::kAtomsPerDevice);
    };
    std::uint32_t m = spec.global;
    for (int j = 0; j < 3; ++j) {
        if (args[j] >= 0)
            m |= place(spec.arg[j], args[j]);
    }
    for (int k = 0; k < ndev; ++k) {
        if (k == args[0])
            continue;
        m |= place(spec.others, k);
        if (k != args[1])
            m |= place(spec.thirds, k);
    }
    return m;
}

bool
included(When when, const ProtocolConfig &c)
{
    switch (when) {
      case When::Always:
        return true;
      case When::CleanEvictNoData:
        return c.cleanEvictNoData;
      case When::HostCleanPull:
        return c.hostCleanPull;
      case When::StaleDrop:
        return c.staleEvictDrop;
      case When::NotStaleDrop:
        return !c.staleEvictDrop;
      case When::RelaxSnoopPushesGo:
        return c.relaxSnoopPushesGo;
      case When::RelaxGoTailgate:
        return c.relaxGoTailgate;
      case When::RelaxOneSnoop:
        return c.relaxOneSnoop;
    }
    return false;
}

/** Position of a static template: device table, then host table. */
std::size_t
ordinalOf(const RuleTemplate *t)
{
    const std::less<const RuleTemplate *> before;
    if (!before(t, kDeviceTemplates) &&
        before(t, kDeviceTemplates + kNumDeviceTemplates))
        return static_cast<std::size_t>(t - kDeviceTemplates);
    return kNumDeviceTemplates + static_cast<std::size_t>(t - kHostTemplates);
}

} // namespace

std::string
Rule::name() const
{
    std::string n = tmpl->stem;
    if (args[0] < 0)
        return n;
    n += static_cast<char>('1' + args[0]);
    if (ndev > 2 && args[1] >= 0)
        n += {'_', 's', static_cast<char>('1' + args[1])};
    if (args[2] >= 0)
        n += {'_', 'n', static_cast<char>('1' + args[2])};
    return n;
}

fp::Footprint
Rule::footprint() const
{
    const FootprintSpec &f = tmpl->footprint;
    return {resolve(f.reads, args, ndev), resolve(f.writes, args, ndev),
            f.counterAllocOnly};
}

RuleSet::RuleSet(ProtocolConfig config, int numDevices)
    : config_(config), num_devices_(numDevices)
{
    assert(numDevices >= 1 && numDevices <= kMaxDevices);
    using namespace rule_flags;
    flags_ = (config_.relaxSnoopPushesGo ? kRelaxSnoop | kRelaxSmadSnoop
                                         : 0) |
             (config_.relaxSmadSnoopGuard ? kRelaxSmadSnoop : 0) |
             (config_.relaxGoTailgate ? kRelaxTailgate : 0);
    const std::size_t side = static_cast<std::size_t>(numDevices) + 1;
    instances_.assign((kNumDeviceTemplates + kNumHostTemplates) *
                          static_cast<std::size_t>(numDevices) * side *
                          side,
                      0);
    rules_.reserve(static_cast<std::size_t>(numDevices) *
                   (kNumDeviceTemplates + kNumHostTemplates * side));
    for (int d = 0; d < num_devices_; ++d)
        instantiate(kDeviceTemplates, kNumDeviceTemplates, 0, d);
    for (int d = 0; d < num_devices_; ++d)
        instantiate(kHostTemplates, kNumHostTemplates,
                    kNumDeviceTemplates, d);
}

void
RuleSet::instantiate(const RuleTemplate *table, std::size_t n,
                     std::size_t ordinal0, int i)
{
    const auto arg = [](int k) { return static_cast<std::int8_t>(k); };
    for (std::size_t t = 0; t < n;) {
        if (table[t].shape == Shape::One) {
            addRow(table[t], ordinal0 + t, {arg(i), -1, -1});
            ++t;
            continue;
        }
        // A loop over the snoop targets o != i, instantiating every
        // template that joins it per o, in table order.
        std::size_t end = t + 1;
        while (end < n && (table[end].shape == Shape::PairNext ||
                           table[end].shape == Shape::Chained))
            ++end;
        for (int o = 0; o < num_devices_; ++o) {
            for (std::size_t u = t; u < end && o != i; ++u) {
                if (table[u].shape != Shape::Chained) {
                    addRow(table[u], ordinal0 + u, {arg(i), arg(o), -1});
                    continue;
                }
                for (int o2 = 0; o2 < num_devices_; ++o2) {
                    if (o2 != i && o2 != o)
                        addRow(table[u], ordinal0 + u,
                               {arg(i), arg(o), arg(o2)});
                }
            }
        }
        t = end;
    }
}

std::size_t
RuleSet::instanceSlot(std::size_t ordinal,
                      const std::array<std::int8_t, 3> &a) const
{
    const std::size_t side = static_cast<std::size_t>(num_devices_) + 1;
    return ((ordinal * static_cast<std::size_t>(num_devices_) +
             static_cast<std::size_t>(a[0])) * side +
            static_cast<std::size_t>(a[1] + 1)) * side +
           static_cast<std::size_t>(a[2] + 1);
}

void
RuleSet::addRow(const RuleTemplate &t, std::size_t ordinal,
                std::array<std::int8_t, 3> args)
{
    if (!included(t.when, config_))
        return;
    Rule r;
    r.tmpl = &t;
    r.id = static_cast<std::uint16_t>(rules_.size());
    r.args = args;
    r.flags = flags_;
    if (t.when >= When::RelaxSnoopPushesGo)
        r.flags |= rule_flags::kMutated;
    r.ndev = static_cast<std::uint8_t>(num_devices_);
    r.trigger = t.trigger << (args[t.triggerArg] * fp::kAtomsPerDevice);
    instances_[instanceSlot(ordinal, args)] =
        static_cast<std::uint16_t>(r.id + 1);
    rules_.push_back(r);
}

std::uint32_t
RuleSet::liveAtoms(const SystemState &s)
{
    std::uint32_t m = 0;
    for (int k = 0; k < s.ndev; ++k) {
        const DeviceState &d = s.dev[k];
        const std::uint32_t dev0 =
            fp::core(0) | (!d.d2hReq.empty() ? fp::d2hReq(0) : 0) |
            (!d.d2hRsp.empty() ? fp::d2hRsp(0) : 0) |
            (!d.d2hData.empty() ? fp::d2hData(0) : 0) |
            (!d.h2dReq.empty() ? fp::h2dReq(0) : 0) |
            (!d.h2dRsp.empty() ? fp::h2dRsp(0) : 0) |
            (!d.h2dData.empty() ? fp::h2dData(0) : 0);
        m |= dev0 << (k * fp::kAtomsPerDevice);
    }
    return m;
}

int
RuleSet::permutedRuleId(std::uint16_t id,
                        const std::uint8_t *oldToNew) const
{
    const Rule &r = rules_[id];
    if (r.args[0] < 0)
        return -1; // custom rows carry no device args
    std::array<std::int8_t, 3> mapped = r.args;
    for (std::int8_t &a : mapped) {
        if (a >= 0) {
            assert(a < num_devices_);
            a = static_cast<std::int8_t>(oldToNew[a]);
        }
    }
    return static_cast<int>(
               instances_[instanceSlot(ordinalOf(r.tmpl), mapped)]) -
           1;
}

std::size_t
RuleSet::baseRuleCount() const
{
    return static_cast<std::size_t>(
        std::count_if(rules_.begin(), rules_.end(),
                      [](const Rule &r) { return !r.mutated(); }));
}

void
RuleSet::addRule(CustomRule rule)
{
    auto custom = std::make_unique<Custom>();
    custom->name = std::move(rule.name);
    custom->tmpl.stem = custom->name.c_str();
    custom->tmpl.guard = rule.guard;
    custom->tmpl.apply = rule.apply;
    custom->tmpl.env = rule.env;
    Rule r;
    r.tmpl = &custom->tmpl;
    r.id = static_cast<std::uint16_t>(rules_.size());
    r.flags = rule.mutated ? rule_flags::kMutated : 0;
    r.ndev = static_cast<std::uint8_t>(num_devices_);
    rules_.push_back(r);
    custom_.push_back(std::move(custom));
}

const Rule *
RuleSet::find(const std::string &name) const
{
    for (const Rule &r : rules_) {
        if (r.name() == name)
            return &r;
    }
    return nullptr;
}

std::vector<RuleSet::Successor>
RuleSet::successors(const SystemState &state, const Scenario &scenario,
                    bool canonicalise) const
{
    std::vector<Successor> result;
    successorsInto(state, scenario, canonicalise, result);
    return result;
}

template <typename Fire>
void
RuleSet::forEachEnabled(const SystemState &s, const Context &ctx,
                        Fire &&fire) const
{
    const std::uint32_t live = liveAtoms(s);
    for (const Rule &r : rules_) {
        if ((r.trigger & live) && r.guard(s, ctx))
            fire(r);
    }
}

void
RuleSet::successorsInto(const SystemState &state,
                        const Scenario &scenario, bool canonicalise,
                        std::vector<Successor> &out) const
{
    out.clear();
    const Context ctx{&scenario};
    forEachEnabled(state, ctx, [&](const Rule &rule) {
        Successor &succ = out.emplace_back(&rule, state, false);
        succ.overflow = !rule.apply(succ.state, ctx);
        if (canonicalise)
            succ.state.canonicaliseTids();
    });
}

void
RuleSet::successorsPor(const SystemState &state,
                       const Scenario &scenario, bool canonicalise,
                       const std::uint64_t *sleep,
                       std::vector<Successor> &out,
                       std::vector<std::uint16_t> &slept) const
{
    out.clear();
    slept.clear();
    const Context ctx{&scenario};
    forEachEnabled(state, ctx, [&](const Rule &rule) {
        if (sleep[rule.id >> 6] & (1ull << (rule.id & 63))) {
            slept.push_back(rule.id);
            return;
        }
        Successor &succ = out.emplace_back(&rule, state, false);
        succ.overflow = !rule.apply(succ.state, ctx);
        if (canonicalise)
            succ.state.canonicaliseTids();
    });
}

bool
RuleSet::fire(const std::string &name, SystemState &state,
              const Scenario &scenario) const
{
    const Rule *rule = find(name);
    if (!rule)
        return false;
    Context ctx{&scenario};
    if (!rule->guard(state, ctx))
        return false;
    return rule->apply(state, ctx);
}

} // namespace cxl
