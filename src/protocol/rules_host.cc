/**
 * @file
 * Host-side transition rules, generalised to N devices.
 *
 * The host is home agent and perfect-tracking directory (paper
 * Section 8): HCache.State mirrors the collective device-side state
 * (I = nobody holds the line, S = sharers exist, M = a device owns
 * it), and transient host states gate the emission of GO messages,
 * which is how the GO-cannot-tailgate-snoop restriction of CXL 3.1
 * Section 3.2.5.2 is realised.
 *
 * In the paper's two-device model the requester of the in-flight
 * transaction is always "the other device" and lives implicitly in
 * the rule instantiation; with N devices it is tracked explicitly in
 * SystemState::hreq (set when a transient host state is entered,
 * cleared when the directory returns to a stable state).  Rules that
 * interact with a snooped peer are instantiated once per ordered
 * (requester, target) pair; for more than two devices an ownership
 * grant chains one SnpInv per remaining sharer (one snoop pending at
 * a time, CXL 3.1 Section 3.2.5.5) before the GO is finally sent.
 *
 * Rules are named by the *requesting / evicting* device, exactly as
 * in the two-device model (HostMA_RspIHitSE1 consumes the snooped
 * peer's response and grants device 1); with more than two devices a
 * "_s<target>" (and, for chained snoops, "_n<next>") suffix keeps the
 * per-pair instances distinct.
 *
 * The templates below are instantiated per requester i in table
 * order; a Shape::Pair template opens a loop over the snoop targets
 * o != i that the following PairNext / Chained templates join.
 */

#include "protocol/rules.hh"

namespace cxl
{
namespace
{

using H = HState;
using namespace fp::rel;

bool
headReqIs(const DeviceState &d, D2HReqOp op)
{
    return !d.d2hReq.empty() && d.d2hReq.front().op == op;
}

bool
headRspIs(const DeviceState &d, D2HRspOp op)
{
    return !d.d2hRsp.empty() && d.d2hRsp.front().op == op;
}

bool
headDataClean(const DeviceState &d)
{
    return !d.d2hData.empty() && !d.d2hData.front().bogus;
}

/** The requester byte encoding device @p i (hreq is 1-based). */
constexpr std::uint8_t
asReq(int i)
{
    return static_cast<std::uint8_t>(i + 1);
}

/** The row's requester is the tracked one. */
bool
serving(const Rule &r, const SystemState &s)
{
    return s.hreq == asReq(r.args[0]);
}

/**
 * A sharer other than requester @p i and just-collected target @p o
 * remains to be invalidated.  Vacuously false in the two-device
 * model, where the MA acknowledgement always completes the grant.
 */
bool
anyThirdSharer(const SystemState &s, int i, int o)
{
    for (int k = 0; k < s.ndev; ++k) {
        if (k != i && k != o && sharerView(s, k))
            return true;
    }
    return false;
}

/** GO-cannot-tailgate-snoop, unless the row relaxes it. */
bool
goOk(const Rule &r, const SystemState &s)
{
    return (r.flags & rule_flags::kRelaxTailgate) ||
           goSendAllowed(s, r.args[0]);
}

/** Push a (GO, target, tid) grant plus its data message to device i. */
bool
pushGrant(SystemState &s, int i, DState target, Tid tid, Val v)
{
    bool ok = s.dev[i].h2dRsp.pushBack({H2DRspOp::GO, target, tid});
    return s.dev[i].h2dData.pushBack({tid, v, 0}) && ok;
}

/** Room for one more response and one more data message to device i. */
bool
grantRoom(const SystemState &s, int i)
{
    return !s.dev[i].h2dRsp.full() && !s.dev[i].h2dData.full();
}

/** Pop the requester's head request; its tid. */
Tid
popRequest(const Rule &r, SystemState &s)
{
    const Tid t = s.dev[r.args[0]].d2hReq.front().tid;
    s.dev[r.args[0]].d2hReq.popFront();
    return t;
}

// ---- read-request processing (RdShared / RdOwn) ------------------------

/** Grant straight from memory: nobody else needs snooping. */
template <HState From, D2HReqOp Req>
bool
memoryGrantGuard(const Rule &r, const SystemState &s, const Context &)
{
    const int i = r.args[0];
    return s.hstate == From && headReqIs(s.dev[i], Req) && goOk(r, s) &&
           grantRoom(s, i);
}

template <HState To, DState Target>
bool
memoryGrant(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = popRequest(r, s);
    s.hstate = To;
    return pushGrant(s, r.args[0], Target, t, s.hval);
}

/**
 * The requester is the sole sharer (an SMAD upgrade): no snoop needed
 * — the shortcut discussed in paper Section 8, with "the other device
 * is no sharer" generalised to all peers.
 */
bool
upgradeGuard(const Rule &r, const SystemState &s, const Context &ctx)
{
    return memoryGrantGuard<H::S, D2HReqOp::RdOwn>(r, s, ctx) &&
           !anyOtherSharer(s, r.args[0]);
}

/** Some other device o owns the line: snoop it. */
template <D2HReqOp Req>
bool
ownerSnoopGuard(const Rule &r, const SystemState &s, const Context &)
{
    const int o = r.args[1];
    return s.hstate == H::M && headReqIs(s.dev[r.args[0]], Req) &&
           ownerView(s, o) && !s.dev[o].h2dReq.full();
}

template <HState To, H2DReqOp Snoop>
bool
ownerSnoop(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = popRequest(r, s);
    s.hstate = To;
    s.hreq = asReq(r.args[0]);
    return s.dev[r.args[1]].h2dReq.pushBack({Snoop, t});
}

/** The snooped owner's response arrives. */
template <HState From, D2HRspOp Rsp>
bool
collectRspGuard(const Rule &r, const SystemState &s, const Context &)
{
    return s.hstate == From && serving(r, s) &&
           headRspIs(s.dev[r.args[1]], Rsp);
}

template <HState To>
bool
collectRsp(const Rule &r, SystemState &s, const Context &)
{
    s.dev[r.args[1]].d2hRsp.popFront();
    s.hstate = To;
    return true;
}

/**
 * Forwarded dirty data arrives; memory is updated and the original
 * requester is granted.
 */
template <HState From>
bool
collectDataGuard(const Rule &r, const SystemState &s, const Context &)
{
    return s.hstate == From && serving(r, s) &&
           headDataClean(s.dev[r.args[1]]) && goOk(r, s) &&
           grantRoom(s, r.args[0]);
}

template <HState To, DState Target>
bool
collectData(const Rule &r, SystemState &s, const Context &)
{
    const DataMsg data = s.dev[r.args[1]].d2hData.front();
    s.dev[r.args[1]].d2hData.popFront();
    s.hval = data.val;
    s.hstate = To;
    s.hreq = 0;
    return pushGrant(s, r.args[0], Target, data.tid, data.val);
}

/**
 * A clean sharer o must be invalidated first.  Data can be sent to
 * the requester immediately (Table 3's SharedRdOwn1 step); the GO
 * follows once every sharer's snoop response has arrived.
 */
bool
sharerSnoopGuard(const Rule &r, const SystemState &s, const Context &)
{
    const int i = r.args[0], o = r.args[1];
    return s.hstate == H::S && headReqIs(s.dev[i], D2HReqOp::RdOwn) &&
           sharerView(s, o) && !s.dev[o].h2dReq.full() &&
           !s.dev[i].h2dData.full();
}

bool
sharerSnoop(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = popRequest(r, s);
    s.hstate = H::MA;
    s.hreq = asReq(r.args[0]);
    bool ok = s.dev[r.args[1]].h2dReq.pushBack({H2DReqOp::SnpInv, t});
    return s.dev[r.args[0]].h2dData.pushBack({t, s.hval, 0}) && ok;
}

/**
 * Clean-sharer invalidation acknowledged.  If no sharer remains,
 * complete the grant (Table 3's MARspIHitI1, with the honest
 * RspIHitSE); the grant additionally waits until stale grant data to
 * any peer has drained (ISDI read-once), so that ownership is never
 * granted while shareable data is still in flight — the paper's first
 * Section 6 sample conjunct.
 */
template <D2HRspOp Rsp>
bool
maAckGuard(const Rule &r, const SystemState &s, const Context &)
{
    const int i = r.args[0], o = r.args[1];
    return s.hstate == H::MA && serving(r, s) &&
           headRspIs(s.dev[o], Rsp) && !anyThirdSharer(s, i, o) &&
           goOk(r, s) && otherGrantDataDrained(s, i) &&
           !s.dev[i].h2dRsp.full();
}

bool
maAck(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = s.dev[r.args[1]].d2hRsp.front().tid;
    s.dev[r.args[1]].d2hRsp.popFront();
    s.hstate = H::M;
    s.hreq = 0;
    return s.dev[r.args[0]].h2dRsp.pushBack({H2DRspOp::GO, DState::M, t});
}

/**
 * Chained invalidation: another sharer o2 remains, so the collected
 * response triggers the next SnpInv rather than the GO, and the host
 * stays in MA.  Not generated with fewer than three devices.
 */
template <D2HRspOp Rsp>
bool
chainGuard(const Rule &r, const SystemState &s, const Context &)
{
    const int o2 = r.args[2];
    return s.hstate == H::MA && serving(r, s) &&
           headRspIs(s.dev[r.args[1]], Rsp) && sharerView(s, o2) &&
           !s.dev[o2].h2dReq.full();
}

bool
chain(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = s.dev[r.args[1]].d2hRsp.front().tid;
    s.dev[r.args[1]].d2hRsp.popFront();
    return s.dev[r.args[2]].h2dReq.pushBack({H2DReqOp::SnpInv, t});
}

// ---- eviction processing -------------------------------------------------

/** Paper Fig. 4's HostModifiedDirtyEvict1: pull the dirty line. */
bool
dirtyEvictGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return s.hstate == H::M && headReqIs(d, D2HReqOp::DirtyEvict) &&
           d.state == DState::MIA && goOk(r, s) && !d.h2dRsp.full();
}

/**
 * Answer the eviction with GO @p Op; with @p To the directory moves
 * (tracking the evicter when it awaits its data, @p Track).
 */
template <H2DRspOp Op, HState To = H::I, bool Moves = false,
          bool Track = false>
bool
evictGo(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = popRequest(r, s);
    s.dev[r.args[0]].buffer = DBuffer::empty();
    if (Moves)
        s.hstate = To;
    if (Track)
        s.hreq = asReq(r.args[0]);
    return s.dev[r.args[0]].h2dRsp.pushBack({Op, DState::I, t});
}

/** Writeback data lands: memory updated (Table 2's IDData1 step). */
template <HState From>
bool
writebackGuard(const Rule &r, const SystemState &s, const Context &)
{
    return s.hstate == From && serving(r, s) &&
           headDataClean(s.dev[r.args[0]]);
}

template <HState To>
bool
writeback(const Rule &r, SystemState &s, const Context &)
{
    s.hval = s.dev[r.args[0]].d2hData.front().val;
    s.dev[r.args[0]].d2hData.popFront();
    s.hstate = To;
    s.hreq = 0;
    return true;
}

/**
 * Clean evictions (CleanEvict from SIA, CleanEvictNoData from SIAC,
 * and a DirtyEvict whose line a SnpData has already cleaned to SIA).
 * "Last" means no other sharer remains, in which case the directory
 * drops to I (Table 1's NotLastDrop naming).
 */
template <D2HReqOp Req, DState Dev, bool Last>
bool
cleanEvictGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return s.hstate == H::S && headReqIs(d, Req) && d.state == Dev &&
           goOk(r, s) && !d.h2dRsp.full() &&
           anyOtherSharer(s, r.args[0]) != Last;
}

/**
 * Stale evictions: a snoop already invalidated the evicting line
 * (device sits in IIA).  Standard behaviour pulls and receives Bogus
 * data; the paper's Section 4.4 proposal drops instead.
 */
template <D2HReqOp Req>
bool
staleEvictGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return headReqIs(d, Req) && d.state == DState::IIA && goOk(r, s) &&
           !d.h2dRsp.full();
}

/** Bogus-flagged eviction data is discarded (CXL 3.1 S3.2.5.4). */
bool
bogusGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return !d.d2hData.empty() && d.d2hData.front().bogus;
}

bool
dropBogus(const Rule &r, SystemState &s, const Context &)
{
    s.dev[r.args[0]].d2hData.popFront();
    return true;
}

// ---- mutation-only rules (Section 5.2 relaxations) ----------------------

/**
 * The GO tailgates the snoop it depends on: sent in the same step,
 * before any response is collected.
 */
bool
eagerGoGuard(const Rule &r, const SystemState &s, const Context &)
{
    const int i = r.args[0], o = r.args[1];
    return s.hstate == H::S && headReqIs(s.dev[i], D2HReqOp::RdOwn) &&
           sharerView(s, o) && !s.dev[o].h2dReq.full() && grantRoom(s, i);
}

bool
eagerGo(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = popRequest(r, s);
    s.hstate = H::M;
    bool ok = s.dev[r.args[1]].h2dReq.pushBack({H2DReqOp::SnpInv, t});
    return pushGrant(s, r.args[0], DState::M, t, s.hval) && ok;
}

/**
 * A second snoop is dispatched before the response to the first is
 * collected (violates CXL 3.1 Section 3.2.5.5).
 */
bool
secondSnoopGuard(const Rule &r, const SystemState &s, const Context &)
{
    return (s.hstate == H::MA || s.hstate == H::MAD) && serving(r, s) &&
           s.dev[r.args[1]].h2dReq.size() == 1 && s.counter < 250;
}

bool
secondSnoop(const Rule &r, SystemState &s, const Context &)
{
    const Tid t = s.counter;
    s.counter = static_cast<std::uint8_t>(s.counter + 1);
    return s.dev[r.args[1]].h2dReq.pushBack({H2DReqOp::SnpInv, t});
}

// ---- footprints (see fp::) -----------------------------------------------
//
// go_ok is declared as a read even when the tailgate mutation ignores
// it — extra reads only cost reduction, never soundness.  A direct
// grant to requester i reads the directory, the request head, the GO
// gate and the grant headroom, and writes the directory, the request
// channel and the grant channels.  Eviction processing reads the
// request head, the evicting device's core (its cacheline state gates
// the flavour) and the GO gate, and answers on h2dRsp; the apply also
// clears the device buffer (core).  The completing MA acknowledgement
// quantifies over every peer: anyThirdSharer tracks all k != i, o and
// otherGrantDataDrained reads h2dData of all k != i.

constexpr std::uint32_t kTrack = fp::trackView(0);
constexpr std::uint32_t kGoGate = fp::goSend(0);
constexpr std::uint32_t kRoom = fp::grantRoom(0);
constexpr std::uint32_t kGrantReads = kD2hReq | kGoGate | kRoom;
constexpr std::uint32_t kGrantWrites = kD2hReq | kH2dRsp | kH2dData;
constexpr std::uint32_t kEvictReads = kD2hReq | kCore | kGoGate | kH2dRsp;
constexpr std::uint32_t kEvictWrites = kD2hReq | kCore | kH2dRsp;
constexpr std::uint32_t kHost = fp::kHost;

constexpr FootprintSpec kGrant{{kHost, {kGrantReads}},
                               {kHost, {kGrantWrites}}};
constexpr FootprintSpec kShareGrant{{kHost, {kGrantReads}},
                                    {0, {kGrantWrites}}};
constexpr FootprintSpec kUpgrade{{kHost, {kGrantReads}, kTrack},
                                 {kHost, {kGrantWrites}}};
constexpr FootprintSpec kOwnerSnoop{{kHost, {kD2hReq, kTrack | kH2dReq}},
                                    {kHost, {kD2hReq, kH2dReq}}};
constexpr FootprintSpec kCollectRsp{{kHost, {0, kD2hRsp}},
                                    {kHost, {0, kD2hRsp}}};
constexpr FootprintSpec kCollectData{
    {kHost, {kGoGate | kRoom, kD2hData}},
    {kHost, {kH2dRsp | kH2dData, kD2hData}}};
constexpr FootprintSpec kSharerSnoop{
    {kHost, {kD2hReq | kH2dData, kTrack | kH2dReq}},
    {kHost, {kD2hReq | kH2dData, kH2dReq}}};
constexpr FootprintSpec kMaAck{
    {kHost, {kGoGate | kH2dRsp, kD2hRsp}, kH2dData, kTrack},
    {kHost, {kH2dRsp, kD2hRsp}}};
constexpr FootprintSpec kChain{{kHost, {0, kD2hRsp, kTrack | kH2dReq}},
                               {0, {0, kD2hRsp, kH2dReq}}};
constexpr FootprintSpec kDirtyEvict{{kHost, {kEvictReads}},
                                    {kHost, {kEvictWrites}}};
constexpr FootprintSpec kWriteback{{kHost, {kD2hData}},
                                   {kHost, {kD2hData}}};
constexpr FootprintSpec kClean{{kHost, {kEvictReads}, kTrack},
                               {kHost, {kEvictWrites}}};
constexpr FootprintSpec kCleanKeep{{kHost, {kEvictReads}, kTrack},
                                   {0, {kEvictWrites}}};
constexpr FootprintSpec kStale{{0, {kEvictReads}}, {0, {kEvictWrites}}};
constexpr FootprintSpec kBogus{{0, {kD2hData}}, {0, {kD2hData}}};
constexpr FootprintSpec kEagerGo{
    {kHost, {kD2hReq | kRoom, kTrack | kH2dReq}},
    {kHost, {kD2hReq | kH2dRsp | kH2dData, kH2dReq}}};
constexpr FootprintSpec kSecondSnoop{
    {kHost | fp::kCounter, {0, kH2dReq}}, {fp::kCounter, {0, kH2dReq}}};

using Op = D2HReqOp;
using enum Shape;
constexpr H2DRspOp kPull = H2DRspOp::GO_WritePull,
                   kDrop = H2DRspOp::GO_WritePullDrop;

} // namespace

const RuleTemplate kHostTemplates[] = {
    // Nobody holds the line: grant S directly from memory; sharers
    // already exist: grant another S copy; some other device owns the
    // line: snoop it down to S first.
    {"HostInvalidRdShared", memoryGrantGuard<H::I, Op::RdShared>,
     memoryGrant<H::S, DState::S>, kGrant, kD2hReq},
    {"HostSharedRdShared", memoryGrantGuard<H::S, Op::RdShared>,
     memoryGrant<H::S, DState::S>, kShareGrant, kD2hReq},
    {"HostModifiedRdShared", ownerSnoopGuard<Op::RdShared>,
     ownerSnoop<H::SAD, H2DReqOp::SnpData>, kOwnerSnoop, kD2hReq, 0, Pair},
    {"HostSAD_RspSFwdM", collectRspGuard<H::SAD, D2HRspOp::RspSFwdM>,
     collectRsp<H::SD>, kCollectRsp, kD2hRsp, 1, PairNext},
    {"HostSD_Data", collectDataGuard<H::SD>, collectData<H::S, DState::S>,
     kCollectData, kD2hData, 1, PairNext},
    // Nobody holds the line: grant ownership directly.
    {"HostInvalidRdOwn", memoryGrantGuard<H::I, Op::RdOwn>,
     memoryGrant<H::M, DState::M>, kGrant, kD2hReq},
    {"HostSharedRdOwnUpgrade", upgradeGuard, memoryGrant<H::M, DState::M>,
     kUpgrade, kD2hReq},
    {"HostSharedRdOwnSnp", sharerSnoopGuard, sharerSnoop, kSharerSnoop,
     kD2hReq, 0, Pair},
    {"HostMA_RspIHitSE", maAckGuard<D2HRspOp::RspIHitSE>, maAck, kMaAck,
     kD2hRsp, 1, Pair},
    {"HostMA_RspIHitSE", chainGuard<D2HRspOp::RspIHitSE>, chain, kChain,
     kD2hRsp, 1, Chained},
    // Only reachable when a mutated device lies with RspIHitI.
    {"HostMA_RspIHitI", maAckGuard<D2HRspOp::RspIHitI>, maAck, kMaAck,
     kD2hRsp, 1, Pair},
    {"HostMA_RspIHitI", chainGuard<D2HRspOp::RspIHitI>, chain, kChain,
     kD2hRsp, 1, Chained},
    // Some other device owns the line dirty: invalidate and collect.
    {"HostModifiedRdOwn", ownerSnoopGuard<Op::RdOwn>,
     ownerSnoop<H::MAD, H2DReqOp::SnpInv>, kOwnerSnoop, kD2hReq, 0, Pair},
    {"HostMAD_RspIFwdM", collectRspGuard<H::MAD, D2HRspOp::RspIFwdM>,
     collectRsp<H::MD>, kCollectRsp, kD2hRsp, 1, PairNext},
    {"HostMD_Data", collectDataGuard<H::MD>, collectData<H::M, DState::M>,
     kCollectData, kD2hData, 1, PairNext},

    {"HostModifiedDirtyEvict", dirtyEvictGuard,
     evictGo<kPull, H::ID, true, true>, kDirtyEvict, kD2hReq},
    {"HostID_Data", writebackGuard<H::ID>, writeback<H::I>, kWriteback,
     kD2hData},
    // Clean-evict data pull completes; host remains a sharer.
    {"HostSB_Data", writebackGuard<H::SB>, writeback<H::S>, kWriteback,
     kD2hData},
    {"HostSharedCleanEvictNotLastDrop",
     cleanEvictGuard<Op::CleanEvict, DState::SIA, false>, evictGo<kDrop>,
     kCleanKeep, kD2hReq},
    {"HostSharedCleanEvictLastDrop",
     cleanEvictGuard<Op::CleanEvict, DState::SIA, true>,
     evictGo<kDrop, H::I, true>, kClean, kD2hReq},
    {"HostSharedCleanEvictNotLastPull",
     cleanEvictGuard<Op::CleanEvict, DState::SIA, false>,
     evictGo<kPull, H::SB, true, true>, kClean, kD2hReq, 0, One,
     When::HostCleanPull},
    {"HostSharedCleanEvictLastPull",
     cleanEvictGuard<Op::CleanEvict, DState::SIA, true>,
     evictGo<kPull, H::ID, true, true>, kClean, kD2hReq, 0, One,
     When::HostCleanPull},
    {"HostSharedCleanEvictNoDataNotLastDrop",
     cleanEvictGuard<Op::CleanEvictNoData, DState::SIAC, false>,
     evictGo<kDrop>, kCleanKeep, kD2hReq},
    {"HostSharedCleanEvictNoDataLastDrop",
     cleanEvictGuard<Op::CleanEvictNoData, DState::SIAC, true>,
     evictGo<kDrop, H::I, true>, kClean, kD2hReq},
    {"HostDirtyEvictCleanedNotLastDrop",
     cleanEvictGuard<Op::DirtyEvict, DState::SIA, false>, evictGo<kDrop>,
     kCleanKeep, kD2hReq},
    {"HostDirtyEvictCleanedLastDrop",
     cleanEvictGuard<Op::DirtyEvict, DState::SIA, true>,
     evictGo<kDrop, H::I, true>, kClean, kD2hReq},
    {"HostDirtyEvictCleanedNotLastPull",
     cleanEvictGuard<Op::DirtyEvict, DState::SIA, false>,
     evictGo<kPull, H::SB, true, true>, kClean, kD2hReq, 0, One,
     When::NotStaleDrop},
    {"HostDirtyEvictCleanedLastPull",
     cleanEvictGuard<Op::DirtyEvict, DState::SIA, true>,
     evictGo<kPull, H::ID, true, true>, kClean, kD2hReq, 0, One,
     When::NotStaleDrop},
    // CleanEvictNoData promised no data: its stale eviction always
    // drops.
    {"HostStaleCleanEvictDrop", staleEvictGuard<Op::CleanEvict>,
     evictGo<kDrop>, kStale, kD2hReq, 0, One, When::StaleDrop},
    {"HostStaleCleanEvictPull", staleEvictGuard<Op::CleanEvict>,
     evictGo<kPull>, kStale, kD2hReq, 0, One, When::NotStaleDrop},
    {"HostStaleCleanEvictNoDataDrop",
     staleEvictGuard<Op::CleanEvictNoData>, evictGo<kDrop>, kStale,
     kD2hReq},
    {"HostStaleDirtyEvictDrop", staleEvictGuard<Op::DirtyEvict>,
     evictGo<kDrop>, kStale, kD2hReq, 0, One, When::StaleDrop},
    {"HostStaleDirtyEvictPull", staleEvictGuard<Op::DirtyEvict>,
     evictGo<kPull>, kStale, kD2hReq, 0, One, When::NotStaleDrop},
    {"HostBogusData", bogusGuard, dropBogus, kBogus, kD2hData},

    {"HostEagerGoRdOwn", eagerGoGuard, eagerGo, kEagerGo, kD2hReq, 0, Pair,
     When::RelaxGoTailgate},
    {"HostSecondSnoop", secondSnoopGuard, secondSnoop, kSecondSnoop,
     kH2dReq, 1, Pair, When::RelaxOneSnoop},
};
const std::size_t kNumHostTemplates = std::size(kHostTemplates);

} // namespace cxl
