#include "litmus/msc.hh"

#include <algorithm>
#include <sstream>

namespace cxl
{
namespace
{

/** Messages appended to @p next relative to @p prev. */
template <typename T, std::size_t N>
std::vector<T>
appended(const InlineVec<T, N> &prev, const InlineVec<T, N> &next)
{
    // Channels are FIFO: pops remove from the front, pushes append at
    // the back.  A message in `next` is new if it is beyond the number
    // of surviving prefix messages from `prev`.
    std::vector<T> added;
    // Count how many of prev's messages survive (they form a prefix of
    // next once prev's popped heads are skipped).
    std::size_t survivors = 0;
    for (std::size_t skip = 0; skip <= prev.size(); ++skip) {
        bool match = true;
        std::size_t count = prev.size() - skip;
        if (count > next.size())
            continue;
        for (std::size_t i = 0; i < count; ++i) {
            if (!(prev[skip + i] == next[i])) {
                match = false;
                break;
            }
        }
        if (match) {
            survivors = count;
            break;
        }
    }
    for (std::size_t i = survivors; i < next.size(); ++i)
        added.push_back(next[i]);
    return added;
}

template <typename T, std::size_t N>
bool
popped(const InlineVec<T, N> &prev, const InlineVec<T, N> &next)
{
    if (prev.empty())
        return false;
    // The old head is gone if next doesn't start with it.
    return next.empty() || !(next.front() == prev.front());
}

void
diffDevice(const SystemState &prev, const SystemState &next, int d,
           const std::string &rule, std::vector<MscEvent> &events)
{
    const DeviceState &p = prev.dev[d];
    const DeviceState &n = next.dev[d];

    auto dev_send = [&](const std::string &chan, const std::string &msg) {
        events.push_back({MscEvent::Kind::DeviceSend, d,
                          chan + " " + msg, rule});
    };
    auto host_send = [&](const std::string &chan, const std::string &msg) {
        events.push_back({MscEvent::Kind::HostSend, d, chan + " " + msg,
                          rule});
    };
    auto deliver = [&](const std::string &chan) {
        events.push_back({MscEvent::Kind::Deliver, d, chan, rule});
    };

    for (const auto &m : appended(p.d2hReq, n.d2hReq))
        dev_send("D2HReq", toString(m));
    for (const auto &m : appended(p.d2hRsp, n.d2hRsp))
        dev_send("D2HRsp", toString(m));
    for (const auto &m : appended(p.d2hData, n.d2hData))
        dev_send("D2HData", toString(m));
    for (const auto &m : appended(p.h2dReq, n.h2dReq))
        host_send("H2DReq", toString(m));
    for (const auto &m : appended(p.h2dRsp, n.h2dRsp))
        host_send("H2DRsp", toString(m));
    for (const auto &m : appended(p.h2dData, n.h2dData))
        host_send("H2DData", toString(m));

    if (popped(p.h2dReq, n.h2dReq))
        deliver("takes " + toString(p.h2dReq.front()));
    if (popped(p.h2dRsp, n.h2dRsp))
        deliver("takes " + toString(p.h2dRsp.front()));
    if (popped(p.h2dData, n.h2dData))
        deliver("takes " + toString(p.h2dData.front()));

    auto host_deliver = [&](const std::string &txt) {
        events.push_back({MscEvent::Kind::Deliver, -1, txt, rule});
    };
    if (popped(p.d2hReq, n.d2hReq))
        host_deliver("host takes " + toString(p.d2hReq.front()));
    if (popped(p.d2hRsp, n.d2hRsp))
        host_deliver("host takes " + toString(p.d2hRsp.front()));
    if (popped(p.d2hData, n.d2hData))
        host_deliver("host takes " + toString(p.d2hData.front()));

    if (p.state != n.state) {
        events.push_back({MscEvent::Kind::Note, d,
                          "DCache" + std::to_string(d + 1) + ": " +
                              toString(p.state) + " -> " +
                              toString(n.state),
                          rule});
    }
}

} // namespace

std::vector<MscEvent>
deriveMscEvents(const std::vector<TraceStep> &steps)
{
    std::vector<MscEvent> events;
    for (std::size_t i = 1; i < steps.size(); ++i) {
        const SystemState &prev = steps[i - 1].state;
        const SystemState &next = steps[i].state;
        for (int d = 0; d < prev.ndev; ++d)
            diffDevice(prev, next, d, steps[i].ruleName, events);
        if (prev.hstate != next.hstate) {
            events.push_back({MscEvent::Kind::Note, -1,
                              "HCache: " + toString(prev.hstate) +
                                  " -> " + toString(next.hstate),
                              steps[i].ruleName});
        }
    }
    return events;
}

std::string
renderMsc(const std::vector<TraceStep> &steps, const std::string &title)
{
    constexpr int kLane = 26; ///< column width per lifeline

    std::ostringstream out;
    out << title << "\n\n";

    // Lane order keeps the paper's Figure 5 layout for two devices
    // and appends a lane per extra device: d1 | host | d2 | d3 | d4.
    const int ndev = steps.front().state.ndev;
    auto lane_of = [](int device) {
        return device < 0 ? 1 : device == 0 ? 0 : device + 1;
    };

    auto center = [](const std::string &txt, int width) {
        if (static_cast<int>(txt.size()) >= width)
            return txt;
        int pad = width - static_cast<int>(txt.size());
        return std::string(pad / 2, ' ') + txt +
               std::string(pad - pad / 2, ' ');
    };

    const SystemState &init = steps.front().state;
    std::string header, states;
    for (int lane = 0; lane < ndev + 1; ++lane) {
        // Which lifeline occupies this lane (inverse of lane_of).
        const int device = lane == 1 ? -1 : lane == 0 ? 0 : lane - 1;
        header += center(device < 0 ? "host"
                                    : "device " +
                                          std::to_string(device + 1),
                         kLane);
        const std::string st = device < 0
                                   ? toString(init.hstate)
                                   : toString(init.dev[device].state);
        states += center("(" + st + ")", kLane);
    }
    out << header << "\n" << states << "\n";

    // An arrow between the host lane and a device lane spans every
    // lane in between; the head points at the receiving lifeline.
    auto arrow = [&](const std::string &label, int from_lane,
                     int to_lane) {
        const int lo = std::min(from_lane, to_lane);
        const int hi = std::max(from_lane, to_lane);
        const int width = (hi - lo + 1) * kLane;
        std::string line(width, '-');
        std::string txt = label;
        if (static_cast<int>(txt.size()) > width - 4)
            txt = txt.substr(0, width - 4);
        int at = (width - static_cast<int>(txt.size())) / 2;
        line.replace(at, txt.size(), txt);
        if (to_lane > from_lane)
            line.back() = '>';
        else
            line.front() = '<';
        return std::string(lo * kLane, ' ') + line;
    };

    for (const MscEvent &ev : deriveMscEvents(steps)) {
        const int dev_lane = lane_of(ev.device);
        switch (ev.kind) {
          case MscEvent::Kind::DeviceSend:
            out << arrow(ev.text, dev_lane, lane_of(-1));
            break;
          case MscEvent::Kind::HostSend:
            out << arrow(ev.text, lane_of(-1), dev_lane);
            break;
          case MscEvent::Kind::Deliver:
            out << std::string(dev_lane * kLane, ' ') << "* "
                << ev.text;
            break;
          case MscEvent::Kind::Note:
            out << std::string(dev_lane * kLane, ' ') << "["
                << ev.text << "]";
            break;
        }
        out << "   (" << ev.rule << ")\n";
    }
    return out.str();
}

} // namespace cxl
