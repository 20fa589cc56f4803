/**
 * @file
 * Protocol configuration: spec-fix toggles (paper Section 4) and rule
 * relaxations / mutations (paper Section 5.2).
 *
 * The correct model is the default-constructed config.  Each mutation
 * weakens exactly one restriction the CXL.cache standard imposes, so
 * the restriction-ablation experiments can show which invariant each
 * restriction protects.
 */

#ifndef CXL_PROTOCOL_CONFIG_HH
#define CXL_PROTOCOL_CONFIG_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace cxl
{

/** Behavioural switches of the modelled protocol. */
struct ProtocolConfig {
    // ---- Spec-conformant behavioural choices -------------------------

    /**
     * Paper Section 4.4 proposed optimisation: when a snoop has already
     * invalidated an evicting line, respond with GO_WritePullDrop
     * (no data transferred) instead of the standard GO_WritePull to
     * which the device must answer with Bogus-flagged data.
     */
    bool staleEvictDrop = true;

    /** Devices may issue CleanEvictNoData as well as CleanEvict. */
    bool cleanEvictNoData = true;

    /**
     * The host may answer a (plain) CleanEvict with GO_WritePull and
     * absorb the clean writeback, in addition to GO_WritePullDrop.
     * Off by default for parity with the paper's model, where clean
     * evictions always complete with a drop (Table 1).
     */
    bool hostCleanPull = false;

    // ---- Mutations: relaxations of CXL.cache restrictions ------------

    /**
     * Table 3 / Fig. 5: devices may process a snoop while a GO response
     * is pending (adds the ISADSnpInv / IMADSnpInv rules and drops the
     * H2DRsp-empty guard from snoop rules).
     */
    bool relaxSnoopPushesGo = false;

    /**
     * Second instance of the same restriction: only the SMADSnpInv
     * rule loses its H2DRsp-empty guard.
     */
    bool relaxSmadSnoopGuard = false;

    /**
     * GO-cannot-tailgate-snoop: the host may send the GO for an
     * ownership grant together with (rather than after) the snoop it
     * depends on.
     */
    bool relaxGoTailgate = false;

    /**
     * One-snoop-pending (CXL 3.1 Section 3.2.5.5): the host may
     * dispatch a second snoop before collecting the response to the
     * first.
     */
    bool relaxOneSnoop = false;

    /** True iff any mutation flag is set. */
    bool
    mutated() const
    {
        return relaxSnoopPushesGo || relaxSmadSnoopGuard ||
               relaxGoTailgate || relaxOneSnoop;
    }

    /** Number of switches bits() packs. */
    static constexpr int kNumBits = 7;

    /**
     * Every switch packed into the low kNumBits bits, staleEvictDrop
     * most significant: the one configuration key of every cache
     * (the session's model cache, the serve result cache).
     */
    constexpr std::uint32_t
    bits() const
    {
        static_assert(sizeof(ProtocolConfig) == kNumBits,
                      "a new ProtocolConfig switch needs a place in "
                      "the list below, or distinct configs alias one "
                      "cache key");
        std::uint32_t key = 0;
        for (bool b : {staleEvictDrop, cleanEvictNoData, hostCleanPull,
                       relaxSnoopPushesGo, relaxSmadSnoopGuard,
                       relaxGoTailgate, relaxOneSnoop})
            key = (key << 1) | (b ? 1u : 0u);
        return key;
    }

    /** Canonical correct-protocol configuration. */
    static ProtocolConfig
    correct()
    {
        return ProtocolConfig{};
    }

    /** Names of the active mutations (empty for the correct model). */
    std::vector<std::string>
    activeMutations() const
    {
        std::vector<std::string> names;
        if (relaxSnoopPushesGo)
            names.push_back("relax_snoop_pushes_go");
        if (relaxSmadSnoopGuard)
            names.push_back("relax_smad_snoop_guard");
        if (relaxGoTailgate)
            names.push_back("relax_go_tailgate");
        if (relaxOneSnoop)
            names.push_back("relax_one_snoop");
        return names;
    }
};

} // namespace cxl

#endif // CXL_PROTOCOL_CONFIG_HH
