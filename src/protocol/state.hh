/**
 * @file
 * The whole-system state of the CXL.cache model (paper Fig. 2/3),
 * generalised from the paper's fixed two-device configuration to a
 * runtime-selected device count: up to kMaxDevices devices (cacheline
 * + six channels + buffer + program counter each), the host
 * cacheline/directory, and the transaction counter.
 *
 * The record is built exclusively from byte-sized fields, so it is
 * padding-free, trivially copyable and can be hashed/compared bytewise
 * by the model checker.  The host-side fields come *first* so that a
 * state with numDevices active devices occupies one contiguous prefix
 * of the record; hashing and comparison cover only that prefix, and
 * the unused device slots stay default-initialised in every state of
 * a run.
 */

#ifndef CXL_PROTOCOL_STATE_HH
#define CXL_PROTOCOL_STATE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "protocol/message.hh"
#include "protocol/types.hh"
#include "support/hash.hh"
#include "support/inline_vec.hh"

namespace cxl
{

/**
 * Channel capacity.  Reachable states keep every channel at length
 * <= 1 (the paper's "channels are singleton lists" invariant); the
 * extra slots guarantee mutated models overflow an invariant before
 * they would overflow storage.
 */
constexpr std::size_t kChanCap = 3;

/** Per-device portion of the system state. */
struct DeviceState {
    Val val = 0;                ///< cacheline value
    DState state = DState::I;   ///< cacheline state

    InlineVec<D2HReq, kChanCap> d2hReq;   ///< device -> host requests
    InlineVec<D2HRsp, kChanCap> d2hRsp;   ///< device -> host responses
    InlineVec<DataMsg, kChanCap> d2hData; ///< device -> host data
    InlineVec<H2DReq, kChanCap> h2dReq;   ///< host -> device snoops
    InlineVec<H2DRsp, kChanCap> h2dRsp;   ///< host -> device responses
    InlineVec<DataMsg, kChanCap> h2dData; ///< host -> device data

    DBuffer buffer;             ///< in-flight H2D message (Fig. 2)
    std::uint8_t pc = 0;        ///< next instruction in the program

    friend bool
    operator==(const DeviceState &a, const DeviceState &b)
    {
        return a.val == b.val && a.state == b.state &&
               a.d2hReq == b.d2hReq && a.d2hRsp == b.d2hRsp &&
               a.d2hData == b.d2hData && a.h2dReq == b.h2dReq &&
               a.h2dRsp == b.h2dRsp && a.h2dData == b.h2dData &&
               a.buffer == b.buffer && a.pc == b.pc;
    }
};

/**
 * Compile-time cap on the device count.  The paper fixes two devices
 * (Section 3.1); this reproduction selects the active count per run
 * (SystemState::ndev / Scenario::numDevices()) up to this cap, which
 * is where device-permutation symmetry reduction keeps 3-4 device
 * free-run spaces enumerable.
 */
constexpr int kMaxDevices = 4;

/** The paper's configuration, and the default everywhere. */
constexpr int kDefaultNumDevices = 2;

/** Complete system state. */
struct SystemState {
    // Host-side fields first: together with the first `ndev` device
    // slots they form the contiguous "active prefix" that hashing and
    // comparison cover.
    Val hval = 0;               ///< host/memory value of the location
    HState hstate = HState::I;  ///< host directory state
    std::uint8_t counter = 0;   ///< transaction-identifier counter

    /** Active device count (1..kMaxDevices); fixed per run. */
    std::uint8_t ndev = kDefaultNumDevices;

    /**
     * Requester tracking: while the host directory is mid-transaction
     * (hstate transient), the 1-based index of the device whose
     * request/eviction is being served; 0 otherwise.  In the paper's
     * two-device model the requester is always "the other device" and
     * needs no state; with N devices the transient host rules must
     * know whom to grant/collect from.
     */
    std::uint8_t hreq = 0;

    DeviceState dev[kMaxDevices];

    /**
     * The other device's index in the two-device configuration (used
     * by the paper-facing witnesses and two-device tests; N-device
     * code quantifies over device indices instead).
     */
    static constexpr int
    other(int d)
    {
        return 1 - d;
    }

    /** 1-based requester index as a 0-based device index (-1: none). */
    int requester() const { return static_cast<int>(hreq) - 1; }

    /**
     * Bytes covered by hashing/comparison: the host fields plus the
     * active device slots.  Inactive slots stay default-initialised
     * in every state of a run, so excluding them is sound and keeps
     * two-device runs from paying for the four-device capacity.
     */
    std::size_t
    activeBytes() const
    {
        return offsetof(SystemState, dev) +
               static_cast<std::size_t>(ndev) * sizeof(DeviceState);
    }

    friend bool
    operator==(const SystemState &a, const SystemState &b)
    {
        // All fields are bytes and InlineVec zeroes its tail, so the
        // raw prefix comparison is exact.
        return a.ndev == b.ndev &&
               std::memcmp(&a, &b, a.activeBytes()) == 0;
    }

    /**
     * 64-bit hash of the canonical byte encoding (active prefix only):
     * a function of the state's content alone, which orders violation
     * candidates the same at every thread count.  The state store
     * does not use it (it hashes interned slice ids).
     */
    std::uint64_t
    hash() const
    {
        return hashBytes(this, activeBytes());
    }

    /**
     * Relabel transaction identifiers in first-appearance order and
     * set the counter to the number of live tids.  Sound for all
     * properties we check (tids are only ever compared for equality);
     * makes the free-run state space finite (Section 3 of DESIGN.md).
     */
    void canonicaliseTids();

    /**
     * The image of this state under a device permutation: active
     * device slot n takes the contents of slot perm[n], and the
     * device-deterministic store values are relabelled to match
     * (stores write device_id + 1, so value perm[n]+1 becomes n+1 in
     * cachelines, host memory and every data message).  The host
     * requester index hreq is remapped the same way.  Every such
     * image is an automorphism of the free-run transition system.
     *
     * @param perm maps new index -> old index; entries [0, ndev) must
     *        be a permutation of [0, ndev).
     */
    SystemState permutedDevices(const std::uint8_t *perm) const;

    /**
     * The two-device special case: devices 1 and 2 exchanged (kept
     * for the paper-facing tests; implemented via permutedDevices).
     */
    SystemState swappedDevices() const;

    /**
     * Canonical representative of this state's device-permutation
     * orbit: the bytewise-least image over all ndev! permutations,
     * with tids re-canonicalised after each permutation when
     * @p canon_tids is set (permuting devices changes the
     * first-appearance order that tid relabelling scans in).  The
     * explorer's symmetryReduction maps every state through this
     * before lookup/insert.
     *
     * @param input_tid_canonical the caller guarantees this state's
     *        tids are already canonical, so the identity image needs
     *        no rescan (the explorer canonicalises every successor
     *        before reducing; arbitrary test inputs must pass false).
     * @param winning_perm if non-null, receives the first permutation
     *        (in next_permutation enumeration order; new index -> old
     *        index, ndev entries) whose image is the returned
     *        representative — the identity when the input already is.
     *        Deterministic, so the partial-order reduction can remap
     *        its rule masks through the same relabelling on every
     *        thread.
     */
    SystemState
    deviceCanonical(bool canon_tids, bool input_tid_canonical = false,
                    std::uint8_t *winning_perm = nullptr) const;

    /** Bytewise lexicographic order (total; used by symmetry reduction). */
    bool bytewiseLess(const SystemState &other) const;

    /** One-line summary used in traces and error messages. */
    std::string brief() const;

    /** Multi-line dump of every component. */
    std::string dump() const;
};

static_assert(sizeof(DeviceState) ==
                  2 +            // val + state
                      (2 * 3 + 1) +  // d2hReq
                      (2 * 3 + 1) +  // d2hRsp
                      (3 * 3 + 1) +  // d2hData
                      (2 * 3 + 1) +  // h2dReq
                      (3 * 3 + 1) +  // h2dRsp
                      (3 * 3 + 1) +  // h2dData
                      5 +            // buffer
                      1,             // pc
              "DeviceState must stay padding-free for bytewise hashing");

static_assert(sizeof(SystemState) ==
                  5 + kMaxDevices * sizeof(DeviceState),
              "SystemState must stay padding-free for bytewise hashing");

/**
 * Builders for the initial states used by litmus tests and the
 * explorer.  All caches invalid, channels empty, counter zero.
 */
SystemState initialAllInvalid(Val memory_val = 0,
                              int num_devices = kDefaultNumDevices);

/**
 * Every device and the host share the line with value @p v
 * (the Table 1 starting point).
 */
SystemState initialBothShared(Val v = 0,
                              int num_devices = kDefaultNumDevices);

/**
 * Device @p owner holds the line modified with value @p v; the host
 * directory records M (the Table 2 starting point).
 */
SystemState initialOneModified(int owner, Val owner_val, Val memory_val,
                               int num_devices = kDefaultNumDevices);

/**
 * Structural sanity: device count and requester index in range,
 * channel sizes within capacity, enum fields in range.  This is
 * *well-formedness*, not protocol correctness; the invariant library
 * handles the latter.
 */
bool structurallyWellFormed(const SystemState &s);

} // namespace cxl

#endif // CXL_PROTOCOL_STATE_HH
