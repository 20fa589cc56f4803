#include "checker/por.hh"

#include <algorithm>
#include <stdexcept>

namespace cxl
{

PorContext::PorContext(const RuleSet &rules, bool symmetry,
                       bool tid_canonical)
    : num_rules_(rules.rules().size()), ndev_(rules.numDevices())
{
    if (num_rules_ > kMaxPorRules) {
        throw std::runtime_error(
            "partial-order reduction supports at most " +
            std::to_string(kMaxPorRules) + " rules (set has " +
            std::to_string(num_rules_) + ")");
    }

    // Pairwise independence from the declared footprints.  The
    // relation is symmetric; rules with the default all-atoms
    // footprint (custom addRule hooks) end up dependent on
    // everything, which is exactly the conservative fallback.
    indep_.assign(num_rules_, RuleMask{});
    std::vector<fp::Footprint> fps;
    fps.reserve(num_rules_);
    for (const Rule &r : rules.rules())
        fps.push_back(r.footprint());
    for (std::size_t a = 0; a < num_rules_; ++a) {
        for (std::size_t b = a + 1; b < num_rules_; ++b) {
            const bool ind = tid_canonical
                                 ? independentCanonical(fps[a], fps[b])
                                 : independent(fps[a], fps[b]);
            if (ind) {
                indep_[a].set(b);
                indep_[b].set(a);
            }
        }
    }

    table_index_.fill(-1);
    if (!symmetry)
        return;

    // One remap table per permutation of the active devices,
    // including the identity (callers usually skip it via
    // identity()).
    std::uint8_t perm[kMaxDevices] = {0, 1, 2, 3};
    do {
        std::vector<std::int16_t> map(num_rules_, -1);
        // deviceCanonical reports perm as new->old; permutedRuleId
        // wants the old->new relabelling of the rules' device args.
        std::uint8_t old_to_new[kMaxDevices] = {};
        for (int n = 0; n < ndev_; ++n)
            old_to_new[perm[n]] = static_cast<std::uint8_t>(n);
        for (std::size_t r = 0; r < num_rules_; ++r) {
            map[r] = static_cast<std::int16_t>(rules.permutedRuleId(
                static_cast<std::uint16_t>(r), old_to_new));
        }
        table_index_[permKey(perm, ndev_)] =
            static_cast<std::int16_t>(tables_.size());
        tables_.push_back(std::move(map));
    } while (std::next_permutation(perm, perm + ndev_));
}

RuleMask
PorContext::remap(const RuleMask &mask, const std::uint8_t *perm) const
{
    return remapByKey(mask, permKey(perm, ndev_));
}

RuleMask
PorContext::remapByKey(const RuleMask &mask, std::uint8_t key) const
{
    const std::int16_t idx = table_index_[key];
    if (idx < 0)
        return RuleMask{}; // unknown permutation: drop everything
    const std::vector<std::int16_t> &map = tables_[idx];

    RuleMask out;
    for (std::size_t w = 0; w < kRuleMaskWords; ++w) {
        std::uint64_t bits = mask.words[w];
        while (bits) {
            const int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            const std::size_t r = 64 * w + static_cast<std::size_t>(b);
            if (r < num_rules_ && map[r] >= 0)
                out.set(static_cast<std::size_t>(map[r]));
        }
    }
    return out;
}

} // namespace cxl
