/**
 * @file
 * Definitions of all invariant conjunct families.
 *
 * Every conjunct is justified by a protocol argument (in its
 * description) and empirically validated by exhaustive reachability:
 * the checker evaluates each one on every reachable state of the
 * correct model.  The iterative process that produced this set —
 * add a conjunct, find the rule that breaks it, refine — is the same
 * loop the paper describes in Section 7.1.
 */

#include "invariants/invariant.hh"

#include <algorithm>

namespace cxl
{
namespace
{

// ---- small state predicates ----------------------------------------

bool
inSet(DState s, std::initializer_list<DState> set)
{
    return std::find(set.begin(), set.end(), s) != set.end();
}

bool
inSet(HState s, std::initializer_list<HState> set)
{
    return std::find(set.begin(), set.end(), s) != set.end();
}

/** Any GO-class message with the given opcode in a response channel. */
bool
hasRsp(const DeviceState &d, H2DRspOp op)
{
    for (const H2DRsp &m : d.h2dRsp) {
        if (m.op == op)
            return true;
    }
    return false;
}

/** A GO grant with the given target state is in flight to device d. */
bool
hasGoTo(const DeviceState &d, DState target)
{
    for (const H2DRsp &m : d.h2dRsp) {
        if (m.op == H2DRspOp::GO && m.target == target)
            return true;
    }
    return false;
}

bool
hasCleanData(const DeviceState &d)
{
    for (const DataMsg &m : d.d2hData) {
        if (!m.bogus)
            return true;
    }
    return false;
}

bool
hasBogusData(const DeviceState &d)
{
    for (const DataMsg &m : d.d2hData) {
        if (m.bogus)
            return true;
    }
    return false;
}

/** "Almost modified": the ownership grant can no longer be revoked. */
bool
almostM(const DeviceState &d)
{
    if (inSet(d.state, {DState::IMD, DState::SMD}))
        return true;
    return inSet(d.state,
                 {DState::IMAD, DState::SMAD, DState::IMA, DState::SMA}) &&
           hasGoTo(d, DState::M);
}

/**
 * True for every active device index other than @p i for which
 * @p pred fails; i.e. "for all other devices o: pred(o)".
 */
template <typename Pred>
bool
forAllOthers(const SystemState &s, int i, Pred pred)
{
    for (int o = 0; o < s.ndev; ++o) {
        if (o != i && !pred(o))
            return false;
    }
    return true;
}

/** A per-device channel holds at most one message. */
template <auto Chan>
bool
singleton(const Conjunct &c, const SystemState &s, const Context &)
{
    return (s.dev[c.dev].*Chan).size() <= 1;
}

constexpr const char *kSingleton =
    "Channels are singleton lists (single-location model).";

/** Every conjunct template, in conjunct-id order. */
const ConjunctTemplate kConjuncts[] = {
    {"swmr", "swmr",
     "Definition 6.1: if this device has write access, no other "
     "device has read or write access.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (!hasWriteAccess(s.dev[i].state))
             return true;
         return forAllOthers(s, i, [&s](int o) {
             return !hasReadAccess(s.dev[o].state);
         });
     }},
    // Paper Section 6, first sample conjunct: transient states need
    // SWMR-like constraints too.
    {"transient_swmr", "transient_swmr",
     "If this device is almost-M (grant no longer revocable), every "
     "other device either has a SnpInv heading to it, or holds "
     "nothing valid with nothing valid in flight to it.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (!almostM(s.dev[i]))
             return true;
         return forAllOthers(s, i, [&s](int o) {
             const DeviceState &d_o = s.dev[o];
             bool snoop_coming =
                 !d_o.h2dReq.empty() &&
                 d_o.h2dReq.front().op == H2DReqOp::SnpInv;
             if (snoop_coming)
                 return true;
             return !inSet(d_o.state,
                           {DState::ISD, DState::IMD, DState::SMD,
                            DState::ISA, DState::IMA, DState::SMA,
                            DState::S, DState::M}) &&
                    d_o.h2dData.empty() &&
                    (!inSet(d_o.state, {DState::ISAD, DState::IMAD,
                                        DState::SMAD}) ||
                     d_o.h2dRsp.empty());
         });
     }},
    {"single_owner_grant", "transient_swmr",
     "At most one device is almost-M at a time.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (!almostM(s.dev[i]))
             return true;
         return forAllOthers(s, i, [&s](int o) {
             return !almostM(s.dev[o]);
         });
     }},
    // Paper Section 6, second sample conjunct.
    {"snoop_honest_inv", "snoop_honesty",
     "A device reporting an invalidating snoop response really is "
     "in an invalid-side state.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hRsp.empty())
             return true;
         D2HRspOp op = d.d2hRsp.front().op;
         if (op != D2HRspOp::RspIFwdM && op != D2HRspOp::RspIHitSE)
             return true;
         return inSet(d.state, {DState::I, DState::ISDI, DState::ISAD,
                                DState::IMAD, DState::IIA});
     }},
    {"snoop_honest_shared", "snoop_honesty",
     "A device reporting RspSFwdM really downgraded to a "
     "shared-side state.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hRsp.empty() ||
             d.d2hRsp.front().op != D2HRspOp::RspSFwdM) {
             return true;
         }
         return inSet(d.state, {DState::S, DState::SIA, DState::SIAC,
                                DState::SMAD});
     }},
    // Paper Section 6, third sample conjunct: with a single location
    // every channel holds at most one message.
    {"singleton_d2h_req", "channel_singleton", kSingleton,
     singleton<&DeviceState::d2hReq>},
    {"singleton_d2h_rsp", "channel_singleton", kSingleton,
     singleton<&DeviceState::d2hRsp>},
    {"singleton_d2h_data", "channel_singleton", kSingleton,
     singleton<&DeviceState::d2hData>},
    {"singleton_h2d_req", "channel_singleton", kSingleton,
     singleton<&DeviceState::h2dReq>},
    {"singleton_h2d_rsp", "channel_singleton", kSingleton,
     singleton<&DeviceState::h2dRsp>},
    {"singleton_h2d_data", "channel_singleton", kSingleton,
     singleton<&DeviceState::h2dData>},
    {"one_snoop_total", "channel_singleton",
     "The host has at most one snoop outstanding in the whole "
     "system (CXL 3.1 S3.2.5.5 plus single-transaction host).",
     [](const Conjunct &, const SystemState &s, const Context &) {
         std::size_t total = 0;
         for (int i = 0; i < s.ndev; ++i)
             total += s.dev[i].h2dReq.size();
         return total <= 1;
     }, false},
    // Paper Section 6, fourth sample conjunct.
    {"data_no_conflict", "data_conflict",
     "Host and device data channels must not conflict: writeback "
     "data from one device and grant data to another are never "
     "simultaneously in flight.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (!hasCleanData(s.dev[i]))
             return true;
         return forAllOthers(s, i, [&s](int o) {
             return s.dev[o].h2dData.empty();
         });
     }, true, true},
    {"dir_m_owner", "directory",
     "HCache=M implies exactly one device is (being made) owner.",
     [](const Conjunct &, const SystemState &s, const Context &) {
         if (s.hstate != HState::M)
             return true;
         int owners = 0;
         for (int i = 0; i < s.ndev; ++i)
             owners += ownerView(s, i) ? 1 : 0;
         return owners == 1;
     }, false},
    {"dir_s_no_owner", "directory",
     "HCache=S implies no device is (being made) owner.",
     [](const Conjunct &, const SystemState &s, const Context &) {
         if (s.hstate != HState::S)
             return true;
         for (int i = 0; i < s.ndev; ++i) {
             if (ownerView(s, i))
                 return false;
         }
         return true;
     }, false},
    {"dir_s_some_sharer", "directory",
     "HCache=S implies at least one device is (being made) sharer.",
     [](const Conjunct &, const SystemState &s, const Context &) {
         if (s.hstate != HState::S)
             return true;
         for (int i = 0; i < s.ndev; ++i) {
             if (sharerView(s, i))
                 return true;
         }
         return false;
     }, false},
    {"dir_i_nothing_valid", "directory",
     "HCache=I implies no device holds or is being granted the "
     "line.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (s.hstate != HState::I)
             return true;
         return !inSet(s.dev[c.dev].state,
                       {DState::S, DState::M, DState::ISD, DState::ISA,
                        DState::IMD, DState::IMA, DState::SMD,
                        DState::SMA, DState::SMAD});
     }},
    {"dir_i_no_grant", "directory",
     "HCache=I implies no ownership or share grant (GO or its data) "
     "is in flight; only an ISDI read-once datum may linger.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (s.hstate != HState::I)
             return true;
         if (hasGoTo(s.dev[i], DState::S) ||
             hasGoTo(s.dev[i], DState::M)) {
             return false;
         }
         return s.dev[i].h2dData.empty() ||
                s.dev[i].state == DState::ISDI;
     }},
    {"rsp_needs_host_transient", "host_transient",
     "A pending snoop response implies the host is mid-transaction "
     "in a snooping state.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (s.dev[c.dev].d2hRsp.empty())
             return true;
         return inSet(s.hstate, {HState::SAD, HState::MAD, HState::MA});
     }},
    {"snoop_needs_host_transient", "host_transient",
     "An outstanding snoop implies the host is mid-transaction in a "
     "snooping state.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (s.dev[c.dev].h2dReq.empty())
             return true;
         return inSet(s.hstate, {HState::SAD, HState::MAD, HState::MA});
     }},
    {"host_id_progress", "host_transient",
     "HCache=ID implies a write-pull or its writeback is in flight.",
     [](const Conjunct &, const SystemState &s, const Context &) {
         if (s.hstate != HState::ID)
             return true;
         for (int i = 0; i < s.ndev; ++i) {
             if (hasRsp(s.dev[i], H2DRspOp::GO_WritePull) ||
                 hasCleanData(s.dev[i])) {
                 return true;
             }
         }
         return false;
     }, false},
    {"host_sb_progress", "host_transient",
     "HCache=SB implies a clean-data pull or its data is in flight.",
     [](const Conjunct &, const SystemState &s, const Context &) {
         if (s.hstate != HState::SB)
             return true;
         for (int i = 0; i < s.ndev; ++i) {
             if (hasRsp(s.dev[i], H2DRspOp::GO_WritePull) ||
                 hasCleanData(s.dev[i])) {
                 return true;
             }
         }
         return false;
     }, false},
    {"grant_data_expected", "message_shape",
     "Grant data in flight only to a device in a state that awaits "
     "it.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (s.dev[c.dev].h2dData.empty())
             return true;
         return inSet(s.dev[c.dev].state,
                      {DState::ISAD, DState::ISD, DState::IMAD,
                       DState::IMD, DState::SMAD, DState::SMD,
                       DState::ISDI});
     }},
    {"writepull_target", "message_shape",
     "GO_WritePull only travels to an evicting line.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (!hasRsp(s.dev[c.dev], H2DRspOp::GO_WritePull))
             return true;
         return inSet(s.dev[c.dev].state,
                      {DState::MIA, DState::SIA, DState::IIA});
     }},
    {"writepulldrop_target", "message_shape",
     "GO_WritePullDrop only travels to a clean or dead evicting "
     "line.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (!hasRsp(s.dev[c.dev], H2DRspOp::GO_WritePullDrop))
             return true;
         return inSet(s.dev[c.dev].state,
                      {DState::SIA, DState::SIAC, DState::IIA});
     }},
    {"go_share_target", "message_shape",
     "A GO-S grant only travels to a device upgrading to S.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (!hasGoTo(s.dev[c.dev], DState::S))
             return true;
         return inSet(s.dev[c.dev].state, {DState::ISAD, DState::ISA});
     }},
    {"go_own_target", "message_shape",
     "A GO-M grant only travels to a device upgrading to M.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (!hasGoTo(s.dev[c.dev], DState::M))
             return true;
         return inSet(s.dev[c.dev].state, {DState::IMAD, DState::IMA,
                                       DState::SMAD, DState::SMA});
     }},
    {"bogus_provenance", "message_shape",
     "Bogus data only follows a snoop-killed eviction; while it "
     "lingers the device can re-request (GO-class grants to it are "
     "gated on the drained channel, so it gets no further than IMA "
     "via early RdOwn data).",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (!hasBogusData(s.dev[c.dev]))
             return true;
         return inSet(s.dev[c.dev].state,
                      {DState::I, DState::ISAD, DState::IMAD,
                       DState::IMA});
     }},
    {"clean_data_destination", "message_shape",
     "Writeback/forward data in flight implies the host is in a "
     "state that will consume it.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         if (!hasCleanData(s.dev[c.dev]))
             return true;
         return inSet(s.hstate, {HState::SAD, HState::SD, HState::MAD,
                                 HState::MD, HState::ID, HState::SB});
     }},
    {"rdshared_state", "request_state",
     "A queued RdShared implies the device waits in ISAD.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hReq.empty() ||
             d.d2hReq.front().op != D2HReqOp::RdShared) {
             return true;
         }
         return d.state == DState::ISAD;
     }},
    {"rdown_state", "request_state",
     "A queued RdOwn implies the device waits in IMAD or SMAD.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hReq.empty() ||
             d.d2hReq.front().op != D2HReqOp::RdOwn) {
             return true;
         }
         return d.state == DState::IMAD || d.state == DState::SMAD;
     }},
    {"cleanevict_state", "request_state",
     "A queued CleanEvict implies the device is in SIA or IIA.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hReq.empty() ||
             d.d2hReq.front().op != D2HReqOp::CleanEvict) {
             return true;
         }
         return d.state == DState::SIA || d.state == DState::IIA;
     }},
    {"cleanevictnodata_state", "request_state",
     "A queued CleanEvictNoData implies the device is in SIAC or "
     "IIA.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hReq.empty() ||
             d.d2hReq.front().op != D2HReqOp::CleanEvictNoData) {
             return true;
         }
         return d.state == DState::SIAC || d.state == DState::IIA;
     }},
    {"dirtyevict_state", "request_state",
     "A queued DirtyEvict implies the device is in MIA, or was "
     "downgraded to SIA by a SnpData, or killed to IIA by a SnpInv.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hReq.empty() ||
             d.d2hReq.front().op != D2HReqOp::DirtyEvict) {
             return true;
         }
         return inSet(d.state, {DState::MIA, DState::SIA, DState::IIA});
     }},
    // Iteration-2 conjuncts: added after the obligation matrix showed
    // the first 70 conjuncts are not inductive (the Section 7.1 loop).
    {"req_before_grant", "ordering",
     "A device's queued request has not been processed, so no "
     "response or data can already be in flight to it.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hReq.empty())
             return true;
         return d.h2dRsp.empty() && d.h2dData.empty();
     }},
    {"rsp_after_snoop", "ordering",
     "A device only responds after consuming the snoop, and no "
     "second snoop can be outstanding.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hRsp.empty())
             return true;
         return d.h2dReq.empty();
     }},
    // Iteration-3 conjuncts (same loop, next round).
    {"rsp_blocks_grant", "ordering",
     "While a device's snoop response is uncollected, the host "
     "cannot have granted it anything: no GO in flight, and the "
     "only admissible data is an ISDI read-once leftover.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.d2hRsp.empty())
             return true;
         return d.h2dRsp.empty() &&
                (d.h2dData.empty() || d.state == DState::ISDI);
     }},
    {"ma_requester_shape", "ordering",
     "In MA/MAD the tracked requester is an ownership requester.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (s.hstate != HState::MA && s.hstate != HState::MAD)
             return true;
         if (s.requester() != i)
             return true;
         return inSet(s.dev[i].state, {DState::IMAD, DState::SMAD,
                                       DState::IMA, DState::SMA});
     }},
    {"sad_requester_shape", "ordering",
     "In SAD/SD the tracked requester is a share requester.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const int i = c.dev;
         if (s.hstate != HState::SAD && s.hstate != HState::SD)
             return true;
         if (s.requester() != i)
             return true;
         return s.dev[i].state == DState::ISAD;
     }},
    {"upgrade_progress", "progress",
     "A device waiting for a grant has its request queued, a grant "
     "in flight, or the host mid-transaction.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (!inSet(d.state,
                    {DState::ISAD, DState::IMAD, DState::SMAD})) {
             return true;
         }
         return !d.d2hReq.empty() || !d.h2dRsp.empty() ||
                !d.h2dData.empty() ||
                inSet(s.hstate, {HState::SAD, HState::SD, HState::MAD,
                                 HState::MD, HState::MA});
     }},
    {"evict_progress", "progress",
     "An evicting device has its request queued or the eviction GO "
     "in flight.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (!inSet(d.state, {DState::MIA, DState::SIA, DState::SIAC,
                              DState::IIA})) {
             return true;
         }
         return !d.d2hReq.empty() ||
                hasRsp(d, H2DRspOp::GO_WritePull) ||
                hasRsp(d, H2DRspOp::GO_WritePullDrop);
     }},
    {"buffer_snpinv_state", "buffer",
     "A buffered SnpInv persists only while the line stays on the "
     "invalid side (cleared by the completion of the next "
     "transaction).",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (!d.buffer.holdsSnoop(H2DReqOp::SnpInv))
             return true;
         return !inSet(d.state,
                       {DState::S, DState::M, DState::SMAD,
                        DState::SMD, DState::SMA, DState::MIA,
                        DState::SIA, DState::SIAC});
     }},
    // The *data-value invariant* — the second of the two properties
    // that together establish coherence (Nagarajan et al.), which the
    // paper leaves as future work (Section 6).  Our model tracks
    // values, so we can state and exhaustively verify it: every
    // read-accessible copy equals the memory value, and every share
    // grant in flight carries it.
    {"shared_value_current", "data_value",
     "A shared copy (or one whose grant data has been consumed) "
     "equals the host/memory value — except in the window where "
     "the copy's own forwarded writeback is still in flight, in "
     "which case memory is about to catch up to exactly this "
     "value.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.state != DState::S && d.state != DState::ISA)
             return true;
         if (d.val == s.hval)
             return true;
         for (const DataMsg &m : d.d2hData) {
             if (!m.bogus && m.val == d.val)
                 return true; // forward in flight; hval catches up
         }
         return false;
     }},
    {"share_grant_value_current", "data_value",
     "Grant data travelling to a share requester carries the "
     "memory value.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         if (d.h2dData.empty())
             return true;
         if (d.state != DState::ISAD && d.state != DState::ISD)
             return true;
         for (const DataMsg &m : d.h2dData) {
             if (m.val != s.hval)
                 return false;
         }
         return true;
     }},
    {"writeback_value_current", "data_value",
     "A non-bogus writeback or forward in flight carries the "
     "owner's last value, which will become the memory value; the "
     "memory value is never silently ahead of it.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         // Shape only: forwarded data originates from an M-side
         // line, whose value is by construction the newest write.
         // We check that nothing else can be in the channel.
         const DeviceState &d = s.dev[c.dev];
         for (const DataMsg &m : d.d2hData) {
             if (!m.bogus && m.val != d.val &&
                 !inSet(d.state, {DState::I, DState::ISAD,
                                  DState::IMAD, DState::IMA})) {
                 return false;
             }
         }
         return true;
     }},
    {"tid_below_counter", "tid_discipline",
     "Every transaction id in flight was allocated from the "
     "counter.",
     [](const Conjunct &c, const SystemState &s, const Context &) {
         const DeviceState &d = s.dev[c.dev];
         auto ok = [&s](Tid t) { return t < s.counter; };
         for (const auto &m : d.d2hReq)
             if (!ok(m.tid))
                 return false;
         for (const auto &m : d.d2hRsp)
             if (!ok(m.tid))
                 return false;
         for (const auto &m : d.d2hData)
             if (!ok(m.tid))
                 return false;
         for (const auto &m : d.h2dReq)
             if (!ok(m.tid))
                 return false;
         for (const auto &m : d.h2dRsp)
             if (!ok(m.tid))
                 return false;
         for (const auto &m : d.h2dData)
             if (!ok(m.tid))
                 return false;
         if (!d.buffer.isEmpty() && !ok(d.buffer.tid))
             return false;
         return true;
     }},
    // The explicit requester tracking introduced by the N-device
    // generalisation: hreq names the device the in-flight directory
    // transaction serves, exactly while one is in flight.
    {"hreq_transient", "host_tracking",
     "The host tracks a requester exactly while the directory is "
     "mid-transaction (hstate transient).",
     [](const Conjunct &, const SystemState &s, const Context &) {
         bool transient = !isStable(s.hstate);
         return transient == (s.hreq != 0);
     }, false},
    {"hreq_range", "host_tracking",
     "The tracked requester is an active device.",
     [](const Conjunct &, const SystemState &s, const Context &) {
         return s.hreq <= s.ndev;
     }, false},
};

/** Append @p t's rows (one per device when per-device). */
void
append(std::vector<Conjunct> &rows, const ConjunctTemplate &t,
       int numDevices)
{
    for (int d = 0; d < (t.perDevice ? numDevices : 1); ++d) {
        rows.push_back({&t, static_cast<std::uint16_t>(rows.size()),
                        static_cast<std::int8_t>(t.perDevice ? d : -1)});
    }
}

} // namespace

bool
swmrHolds(const SystemState &s)
{
    for (int i = 0; i < s.ndev; ++i) {
        if (!hasWriteAccess(s.dev[i].state))
            continue;
        for (int o = 0; o < s.ndev; ++o) {
            if (o != i && hasReadAccess(s.dev[o].state))
                return false;
        }
    }
    return true;
}

std::string
Conjunct::name() const
{
    std::string n = tmpl->stem;
    if (dev >= 0)
        n += {'_', 'd', static_cast<char>('1' + dev)};
    return n;
}

InvariantSet::InvariantSet(std::vector<Conjunct> conjuncts)
    : conjuncts_(std::move(conjuncts))
{
}

InvariantSet
InvariantSet::full(const ProtocolConfig &config, int numDevices)
{
    // The paper's data-channel-conflict conjunct needs the Section 4.4
    // drop behaviour: a standard-mode bogus writeback can legitimately
    // overlap a grant to the other device.
    const bool stale_drop = config.staleEvictDrop && !config.hostCleanPull;
    std::vector<Conjunct> rows;
    rows.reserve(std::size(kConjuncts) * static_cast<std::size_t>(numDevices));
    for (const ConjunctTemplate &t : kConjuncts) {
        if (stale_drop || !t.staleDropOnly)
            append(rows, t, numDevices);
    }
    return InvariantSet(std::move(rows));
}

InvariantSet
InvariantSet::swmrOnly(int numDevices)
{
    std::vector<Conjunct> rows;
    append(rows, kConjuncts[0], numDevices);
    return InvariantSet(std::move(rows));
}

InvariantSet
InvariantSet::filtered(const std::vector<std::string> &families) const
{
    std::vector<Conjunct> kept;
    for (const Conjunct &c : conjuncts_) {
        if (std::find(families.begin(), families.end(), c.family()) !=
            families.end()) {
            kept.push_back(c);
            kept.back().id = static_cast<std::uint16_t>(kept.size() - 1);
        }
    }
    return InvariantSet(std::move(kept));
}

const Conjunct *
InvariantSet::firstFailure(const SystemState &s, const Context &ctx) const
{
    for (const Conjunct &c : conjuncts_) {
        if (!c.holds(s, ctx))
            return &c;
    }
    return nullptr;
}

const Conjunct *
InvariantSet::find(const std::string &name) const
{
    for (const Conjunct &c : conjuncts_) {
        if (c.name() == name)
            return &c;
    }
    return nullptr;
}

std::vector<std::string>
InvariantSet::families() const
{
    std::vector<std::string> fams;
    for (const Conjunct &c : conjuncts_) {
        if (std::find(fams.begin(), fams.end(), c.family()) == fams.end())
            fams.emplace_back(c.family());
    }
    return fams;
}

} // namespace cxl
