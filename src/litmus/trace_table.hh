/**
 * @file
 * Renders a guided run as a transition table in the layout of the
 * paper's Tables 1-3: one row per rule firing, one column per selected
 * state component.  Columns exist for every device slot up to
 * kMaxDevices, so 3- and 4-device counterexamples render with one
 * column group per active device, as 2-device ones do.
 */

#ifndef CXL_LITMUS_TRACE_TABLE_HH
#define CXL_LITMUS_TRACE_TABLE_HH

#include <string>
#include <vector>

#include "litmus/litmus.hh"
#include "protocol/scenario.hh"

namespace cxl
{

/**
 * Identifies one printable component of the system state.  Per-device
 * columns are laid out kind-major: value = kind * kMaxDevices + dev
 * (0-based device), which is what deviceColumn() relies on; the named
 * enumerators keep the paper's two-device spellings at every call
 * site.
 */
enum class StateColumn : std::uint8_t {
    DProg1, DProg2, DProg3, DProg4,
    DCache1, DCache2, DCache3, DCache4,
    D2HReq1, D2HReq2, D2HReq3, D2HReq4,
    D2HRsp1, D2HRsp2, D2HRsp3, D2HRsp4,
    D2HData1, D2HData2, D2HData3, D2HData4,
    H2DReq1, H2DReq2, H2DReq3, H2DReq4,
    H2DRsp1, H2DRsp2, H2DRsp3, H2DRsp4,
    H2DData1, H2DData2, H2DData3, H2DData4,
    HCache,
    Counter,
};

/** The per-device column kinds, indexable by deviceColumn(). */
enum class DeviceColumn : std::uint8_t {
    DProg, DCache,
    D2HReq, D2HRsp, D2HData,
    H2DReq, H2DRsp, H2DData,
};

/** The @p kind column of device @p dev (0-based, < kMaxDevices). */
StateColumn deviceColumn(DeviceColumn kind, int dev);

/**
 * The default column set for rendering explorer witnesses of an
 * @p ndev -device model: caches (device 1, host, devices 2..N) then
 * the snoop/response channels of every active device.
 */
std::vector<StateColumn> defaultTraceColumns(int ndev);

/** Column header text as used in the paper ("DCache1", ...). */
std::string columnName(StateColumn col);

/** Format one component of @p state (programs need the scenario). */
std::string formatColumn(const SystemState &state,
                         const Scenario &scenario, StateColumn col);

/**
 * Render a trace — a guided run or a violation witness — as a
 * transition table.
 *
 * @param steps    the trace, including the initial state.
 * @param scenario needed to print remaining program text.
 * @param columns  which components to show, in order.
 * @param markdown render GitHub-style.
 */
std::string renderTraceTable(const std::vector<TraceStep> &steps,
                             const Scenario &scenario,
                             const std::vector<StateColumn> &columns,
                             bool markdown = false);

} // namespace cxl

#endif // CXL_LITMUS_TRACE_TABLE_HH
