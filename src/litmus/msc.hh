/**
 * @file
 * Message-sequence-chart renderer (paper Figure 5).
 *
 * Derives send/receive events generically by diffing the channel
 * contents of consecutive trace states, then draws an ASCII chart
 * with one lifeline per active device plus the host (device 1 | host
 * | device 2 | device 3 | ...) with cacheline-state annotations, in
 * the style of the CXL webinar chart the paper reproduces.  The
 * two-device layout is identical to the paper's Figure 5 chart;
 * larger device counts add a lane per device, and arrows between the
 * host and an outer device cross the intermediate lanes.
 */

#ifndef CXL_LITMUS_MSC_HH
#define CXL_LITMUS_MSC_HH

#include <string>
#include <vector>

#include "litmus/litmus.hh"

namespace cxl
{

/** One derived chart event. */
struct MscEvent {
    enum class Kind : std::uint8_t {
        DeviceSend, ///< device pushed a D2H message
        HostSend,   ///< host pushed an H2D message
        Deliver,    ///< a message was consumed off a channel
        Note,       ///< cacheline state change annotation
    };

    Kind kind;
    int device;       ///< device lifeline (0/1); -1 = host lifeline
    std::string text; ///< message or annotation text
    std::string rule; ///< rule that caused the event
};

/** Derive chart events from a trace. */
std::vector<MscEvent> deriveMscEvents(const std::vector<TraceStep> &steps);

/** Render the full chart. @p title is printed above the lifelines. */
std::string renderMsc(const std::vector<TraceStep> &steps,
                      const std::string &title);

} // namespace cxl

#endif // CXL_LITMUS_MSC_HH
