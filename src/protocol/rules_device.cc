/**
 * @file
 * Device-side rule templates (paper Fig. 4, left-hand components).
 *
 * Each template is instantiated once per active device, as a row whose
 * args[0] is the device.  Names carry a 1-based device suffix to match
 * the paper's tables (InvalidLoad1, SharedSnpInv1, MIA_GO_WritePull1,
 * ...).  Guards and actions are function templates over the states
 * and opcodes a rule family varies, so every table entry is a pair of
 * captureless function pointers.
 */

#include "protocol/rules.hh"

namespace cxl
{
namespace
{

using D = DState;
using namespace fp::rel;

/** Store data written by device d (0-based): a distinct non-zero Val. */
constexpr Val
storeValue(int d)
{
    return static_cast<Val>(d + 1);
}

/** Counter ceiling; keeps uint8 tids collision-free. */
constexpr std::uint8_t kCounterMax = 250;

/** Allocate a fresh transaction id from the global counter. */
Tid
allocTid(SystemState &s)
{
    Tid t = s.counter;
    s.counter = static_cast<std::uint8_t>(s.counter + 1);
    return t;
}

/** Retire the current instruction of device @p d and clear its buffer. */
void
completeInstr(SystemState &s, int d, const Context &ctx)
{
    s.dev[d].pc = ctx.scenario->nextPc(d, s.dev[d].pc);
    s.dev[d].buffer = DBuffer::empty();
}

/** Head of the device's H2D response channel is (GO, target). */
bool
headIsGo(const DeviceState &d, DState target)
{
    return !d.h2dRsp.empty() && d.h2dRsp.front().op == H2DRspOp::GO &&
           d.h2dRsp.front().target == target;
}

/** Head of the device's H2D response channel has the given opcode. */
bool
headIsRsp(const DeviceState &d, H2DRspOp op)
{
    return !d.h2dRsp.empty() && d.h2dRsp.front().op == op;
}

// ---- program-driven rules: Load/Store/Evict issue or hit (Fig. 4) ----

/** Issue an upgrade or eviction request from @p From. */
template <DState From, Instr In>
bool
issueGuard(const Rule &r, const SystemState &s, const Context &ctx)
{
    const int d = r.args[0];
    return s.dev[d].state == From &&
           ctx.scenario->mayIssue(d, s.dev[d].pc, In) &&
           !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
}

template <DState To, D2HReqOp Op>
bool
issue(const Rule &r, SystemState &s, const Context &)
{
    Tid t = allocTid(s);
    s.dev[r.args[0]].state = To;
    return s.dev[r.args[0]].d2hReq.pushBack({Op, t});
}

/** A hit that only retires the instruction (never in free runs). */
template <DState From, Instr In>
bool
hitGuard(const Rule &r, const SystemState &s, const Context &ctx)
{
    const int d = r.args[0];
    return s.dev[d].state == From && !ctx.scenario->freeRun &&
           ctx.scenario->mayIssue(d, s.dev[d].pc, In);
}

bool
retire(const Rule &r, SystemState &s, const Context &ctx)
{
    completeInstr(s, r.args[0], ctx);
    return true;
}

bool
modifiedStoreGuard(const Rule &r, const SystemState &s, const Context &ctx)
{
    const int d = r.args[0];
    return s.dev[d].state == D::M &&
           ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Store);
}

bool
modifiedStore(const Rule &r, SystemState &s, const Context &ctx)
{
    s.dev[r.args[0]].val = storeValue(r.args[0]);
    return retire(r, s, ctx);
}

// ---- GO / Data consumption for one in-flight upgrade -----------------
//
// An upgrade awaiting both GO and Data consumes them in either order
// (or together); the step that completes it moves to the stable state
// @p Final and, for a store, performs the pending write.

template <DState From, DState Go>
bool
goGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return d.state == From && headIsGo(d, Go);
}

template <DState From>
bool
dataGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return d.state == From && !d.h2dData.empty();
}

template <DState From, DState Go>
bool
goDataGuard(const Rule &r, const SystemState &s, const Context &ctx)
{
    return goGuard<From, Go>(r, s, ctx) && dataGuard<From>(r, s, ctx);
}

template <DState To>
bool
takeGo(const Rule &r, SystemState &s, const Context &)
{
    s.dev[r.args[0]].h2dRsp.popFront();
    s.dev[r.args[0]].state = To;
    return true;
}

template <DState To>
bool
takeData(const Rule &r, SystemState &s, const Context &)
{
    DeviceState &d = s.dev[r.args[0]];
    d.val = d.h2dData.front().val;
    d.h2dData.popFront();
    d.state = To;
    return true;
}

template <DState Final, bool Store>
bool
finish(const Rule &r, SystemState &s, const Context &ctx)
{
    s.dev[r.args[0]].state = Final;
    if (Store)
        s.dev[r.args[0]].val = storeValue(r.args[0]);
    return retire(r, s, ctx);
}

template <DState Final, bool Store>
bool
finishGo(const Rule &r, SystemState &s, const Context &ctx)
{
    s.dev[r.args[0]].h2dRsp.popFront();
    return finish<Final, Store>(r, s, ctx);
}

template <DState Final, bool Store>
bool
finishData(const Rule &r, SystemState &s, const Context &ctx)
{
    takeData<Final>(r, s, ctx);
    return finish<Final, Store>(r, s, ctx);
}

template <DState Final, bool Store>
bool
finishGoData(const Rule &r, SystemState &s, const Context &ctx)
{
    s.dev[r.args[0]].h2dRsp.popFront();
    return finishData<Final, Store>(r, s, ctx);
}

// ---- eviction completion (GO_WritePull / GO_WritePullDrop) -----------

template <DState From, H2DRspOp Op>
bool
evictGoGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return d.state == From && headIsRsp(d, Op) &&
           (Op == H2DRspOp::GO_WritePullDrop || !d.d2hData.full());
}

/** Consume the eviction GO; a pull answers with the (bogus) line. */
template <bool Pull, std::uint8_t Bogus>
bool
evictDone(const Rule &r, SystemState &s, const Context &ctx)
{
    DeviceState &d = s.dev[r.args[0]];
    const Tid t = d.h2dRsp.front().tid;
    d.h2dRsp.popFront();
    const bool ok = !Pull || d.d2hData.pushBack({t, d.val, Bogus});
    d.state = D::I;
    completeInstr(s, r.args[0], ctx);
    return ok;
}

bool
dropReadOnce(const Rule &r, SystemState &s, const Context &ctx)
{
    s.dev[r.args[0]].h2dData.popFront();
    s.dev[r.args[0]].state = D::I;
    return retire(r, s, ctx);
}

// ---- snoop processing (Fig. 4's SharedSnpInv and friends) -------------

/**
 * In @p From with head snoop @p Op.  Snoop-pushes-GO (CXL 3.1 Section
 * 3.2.5.2): a device may only process a snoop when it has no pending
 * H2D responses — unless the row's @p Relax flag is set.
 */
template <DState From, H2DReqOp Op, std::uint8_t Relax>
bool
snoopGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return d.state == From && !d.h2dReq.empty() &&
           d.h2dReq.front().op == Op &&
           ((r.flags & Relax) || d.h2dRsp.empty()) && !d.d2hRsp.full() &&
           !d.d2hData.full();
}

/** Move to @p To, respond @p Rsp and forward the line if @p Fwd. */
template <DState To, D2HRspOp Rsp, bool Fwd>
bool
snoop(const Rule &r, SystemState &s, const Context &)
{
    DeviceState &d = s.dev[r.args[0]];
    const H2DReq req = d.h2dReq.front();
    d.h2dReq.popFront();
    d.buffer = DBuffer::fromReq(req);
    d.state = To;
    bool ok = d.d2hRsp.pushBack({Rsp, req.tid});
    if (Fwd)
        ok = d.d2hData.pushBack({req.tid, d.val, 0}) && ok;
    return ok;
}

/**
 * The deliberately-broken rule of Table 3: an upgrading line processes
 * a SnpInv ahead of its pending GO and answers RspIHitI while
 * *remaining in its state*, so it will later accept the stale grant.
 */
template <DState From>
bool
brokenSnoopGuard(const Rule &r, const SystemState &s, const Context &)
{
    const DeviceState &d = s.dev[r.args[0]];
    return d.state == From && !d.h2dReq.empty() &&
           d.h2dReq.front().op == H2DReqOp::SnpInv && !d.d2hRsp.full();
}

bool
brokenSnoop(const Rule &r, SystemState &s, const Context &)
{
    DeviceState &d = s.dev[r.args[0]];
    const H2DReq req = d.h2dReq.front();
    d.h2dReq.popFront();
    d.buffer = DBuffer::fromReq(req);
    return d.d2hRsp.pushBack({D2HRspOp::RspIHitI, req.tid});
}

// ---- footprints --------------------------------------------------------
//
// Issue rules read/write the device core (state, pc), push onto the
// device's own D2H request channel and allocate a tid from the shared
// counter; purely local hit/retire rules touch only the core.  The
// counter atom is what makes issue rules by *different* devices
// conflict (tid allocation orders them).  Consumption rules touch only
// their own core plus the channel(s) they pop, so consumptions by
// distinct devices always commute.  A snoop's guard reads the snoop,
// the response channel (snoop-pushes-GO) and the d2hRsp/d2hData
// headroom; h2dRsp is read-only.

constexpr FootprintSpec
local(std::uint32_t atoms, std::uint32_t global = 0, bool alloc = false)
{
    return {{global, {kCore | atoms}}, {global, {kCore | atoms}}, alloc};
}

constexpr FootprintSpec kIssue = local(kD2hReq, fp::kCounter, true);
constexpr FootprintSpec kHit = local(0);
constexpr FootprintSpec kGo = local(kH2dRsp);
constexpr FootprintSpec kData = local(kH2dData);
constexpr FootprintSpec kGoData = local(kH2dRsp | kH2dData);
constexpr FootprintSpec kPull = local(kH2dRsp | kD2hData);
constexpr std::uint32_t kSnoopReads =
    kCore | kH2dReq | kH2dRsp | kD2hRsp | kD2hData;
constexpr FootprintSpec kSnoop{{0, {kSnoopReads}},
                               {0, {kCore | kH2dReq | kD2hRsp}}};
constexpr FootprintSpec kSnoopFwd{
    {0, {kSnoopReads}}, {0, {kCore | kH2dReq | kD2hRsp | kD2hData}}};
constexpr FootprintSpec kBroken = local(kH2dReq | kD2hRsp);

constexpr std::uint8_t kPushesGo = rule_flags::kRelaxSnoop;
constexpr std::uint8_t kSmadGuard = rule_flags::kRelaxSmadSnoop;
constexpr H2DReqOp kInv = H2DReqOp::SnpInv, kSnpData = H2DReqOp::SnpData;
constexpr H2DRspOp kWP = H2DRspOp::GO_WritePull,
                   kWPDrop = H2DRspOp::GO_WritePullDrop;

} // namespace

const RuleTemplate kDeviceTemplates[] = {
    {"InvalidLoad", issueGuard<D::I, Instr::Load>,
     issue<D::ISAD, D2HReqOp::RdShared>, kIssue, kCore},
    {"InvalidStore", issueGuard<D::I, Instr::Store>,
     issue<D::IMAD, D2HReqOp::RdOwn>, kIssue, kCore},
    // Evicting an invalid line has no effect beyond retiring the
    // instruction (paper Section 5.1, clean_evict_test discussion).
    {"InvalidEvict", hitGuard<D::I, Instr::Evict>, retire, kHit, kCore},
    {"SharedLoad", hitGuard<D::S, Instr::Load>, retire, kHit, kCore},
    {"SharedStore", issueGuard<D::S, Instr::Store>,
     issue<D::SMAD, D2HReqOp::RdOwn>, kIssue, kCore},
    {"SharedEvict", issueGuard<D::S, Instr::Evict>,
     issue<D::SIA, D2HReqOp::CleanEvict>, kIssue, kCore},
    {"SharedEvictNoData", issueGuard<D::S, Instr::Evict>,
     issue<D::SIAC, D2HReqOp::CleanEvictNoData>, kIssue, kCore, 0,
     Shape::One, When::CleanEvictNoData},
    {"ModifiedLoad", hitGuard<D::M, Instr::Load>, retire, kHit, kCore},
    {"ModifiedStore", modifiedStoreGuard, modifiedStore, kHit, kCore},
    {"ModifiedEvict", issueGuard<D::M, Instr::Evict>,
     issue<D::MIA, D2HReqOp::DirtyEvict>, kIssue, kCore},

    {"ISAD_GO", goGuard<D::ISAD, D::S>, takeGo<D::ISD>, kGo, kH2dRsp},
    {"ISAD_Data", dataGuard<D::ISAD>, takeData<D::ISA>, kData, kH2dData},
    {"ISAD_GO_Data", goDataGuard<D::ISAD, D::S>,
     finishGoData<D::S, false>, kGoData, kH2dRsp},
    {"ISD_Data", dataGuard<D::ISD>, finishData<D::S, false>, kData,
     kH2dData},
    {"ISA_GO", goGuard<D::ISA, D::S>, finishGo<D::S, false>, kGo, kH2dRsp},
    {"IMAD_GO", goGuard<D::IMAD, D::M>, takeGo<D::IMD>, kGo, kH2dRsp},
    {"IMAD_Data", dataGuard<D::IMAD>, takeData<D::IMA>, kData, kH2dData},
    {"IMAD_GO_Data", goDataGuard<D::IMAD, D::M>,
     finishGoData<D::M, true>, kGoData, kH2dRsp},
    {"IMD_Data", dataGuard<D::IMD>, finishData<D::M, true>, kData,
     kH2dData},
    {"IMA_GO", goGuard<D::IMA, D::M>, finishGo<D::M, true>, kGo, kH2dRsp},
    {"SMAD_GO", goGuard<D::SMAD, D::M>, takeGo<D::SMD>, kGo, kH2dRsp},
    {"SMAD_Data", dataGuard<D::SMAD>, takeData<D::SMA>, kData, kH2dData},
    {"SMAD_GO_Data", goDataGuard<D::SMAD, D::M>,
     finishGoData<D::M, true>, kGoData, kH2dRsp},
    {"SMD_Data", dataGuard<D::SMD>, finishData<D::M, true>, kData,
     kH2dData},
    {"SMA_GO", goGuard<D::SMA, D::M>, finishGo<D::M, true>, kGo, kH2dRsp},

    // Dirty eviction: the pull triggers the implicit writeback (Table
    // 2's MIA_GO_WritePull step); a clean eviction completes with a
    // drop (Table 1's SIA_GO_WritePullDrop step) or the host pulls the
    // clean line; CleanEvictNoData promised no data, so only a drop
    // is legal.
    {"MIA_GO_WritePull", evictGoGuard<D::MIA, kWP>, evictDone<true, 0>,
     kPull, kH2dRsp},
    {"SIA_GO_WritePullDrop", evictGoGuard<D::SIA, kWPDrop>,
     evictDone<false, 0>, kGo, kH2dRsp},
    {"SIA_GO_WritePull", evictGoGuard<D::SIA, kWP>, evictDone<true, 0>,
     kPull, kH2dRsp},
    {"SIAC_GO_WritePullDrop", evictGoGuard<D::SIAC, kWPDrop>,
     evictDone<false, 0>, kGo, kH2dRsp},
    // A snoop hit the writeback: any data the device still sends for
    // the eviction must carry the Bogus flag (CXL 3.1 Section
    // 3.2.5.4); the Section 4.4 proposed fix lets the host drop
    // instead, saving the bogus data transfer entirely.
    {"IIA_GO_WritePull", evictGoGuard<D::IIA, kWP>, evictDone<true, 1>,
     kPull, kH2dRsp},
    {"IIA_GO_WritePullDrop", evictGoGuard<D::IIA, kWPDrop>,
     evictDone<false, 0>, kGo, kH2dRsp},
    // Read-once completion after an ISD-state snoop invalidation.
    {"ISDI_Data", dataGuard<D::ISDI>, dropReadOnce, kData, kH2dData},

    {"SharedSnpInv", snoopGuard<D::S, kInv, kPushesGo>,
     snoop<D::I, D2HRspOp::RspIHitSE, false>, kSnoop, kH2dReq},
    {"ModifiedSnpInv", snoopGuard<D::M, kInv, kPushesGo>,
     snoop<D::I, D2HRspOp::RspIFwdM, true>, kSnoopFwd, kH2dReq},
    {"ModifiedSnpData", snoopGuard<D::M, kSnpData, kPushesGo>,
     snoop<D::S, D2HRspOp::RspSFwdM, true>, kSnoopFwd, kH2dReq},
    {"MIASnpInv", snoopGuard<D::MIA, kInv, kPushesGo>,
     snoop<D::IIA, D2HRspOp::RspIFwdM, true>, kSnoopFwd, kH2dReq},
    {"MIASnpData", snoopGuard<D::MIA, kSnpData, kPushesGo>,
     snoop<D::SIA, D2HRspOp::RspSFwdM, true>, kSnoopFwd, kH2dReq},
    {"SIASnpInv", snoopGuard<D::SIA, kInv, kPushesGo>,
     snoop<D::IIA, D2HRspOp::RspIHitSE, false>, kSnoop, kH2dReq},
    {"SIACSnpInv", snoopGuard<D::SIAC, kInv, kPushesGo>,
     snoop<D::IIA, D2HRspOp::RspIHitSE, false>, kSnoop, kH2dReq},
    {"ISDSnpInv", snoopGuard<D::ISD, kInv, kPushesGo>,
     snoop<D::ISDI, D2HRspOp::RspIHitSE, false>, kSnoop, kH2dReq},
    {"SMADSnpInv", snoopGuard<D::SMAD, kInv, kSmadGuard>,
     snoop<D::IMAD, D2HRspOp::RspIHitSE, false>, kSnoop, kH2dReq},
    {"ISADSnpInv", brokenSnoopGuard<D::ISAD>, brokenSnoop, kBroken,
     kH2dReq, 0, Shape::One, When::RelaxSnoopPushesGo},
    {"IMADSnpInv", brokenSnoopGuard<D::IMAD>, brokenSnoop, kBroken,
     kH2dReq, 0, Shape::One, When::RelaxSnoopPushesGo},
};
const std::size_t kNumDeviceTemplates = std::size(kDeviceTemplates);

} // namespace cxl
