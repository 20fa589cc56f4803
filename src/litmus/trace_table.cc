#include "litmus/trace_table.hh"

#include <cassert>

#include "support/table.hh"

namespace cxl
{
namespace
{

constexpr int kDeviceColumnKinds = 8;

static_assert(kMaxDevices == 4,
              "the StateColumn enumerator grid spells out 4 device "
              "slots per kind");

template <typename T, std::size_t N>
std::string
chanText(const InlineVec<T, N> &chan)
{
    std::string txt = "[";
    for (std::size_t i = 0; i < chan.size(); ++i) {
        if (i)
            txt += ", ";
        txt += toString(chan[i]);
    }
    return txt + "]";
}

std::string
progText(const SystemState &s, const Scenario &scenario, int dev)
{
    if (scenario.freeRun)
        return "(free)";
    std::string txt = "[";
    const auto &prog = scenario.program[dev];
    for (std::size_t i = s.dev[dev].pc; i < prog.size(); ++i) {
        if (i != s.dev[dev].pc)
            txt += ", ";
        txt += toString(prog[i]);
    }
    return txt + "]";
}

std::string
cacheText(Val v, const std::string &state)
{
    return "(" + std::to_string(v) + ", " + state + ")";
}

} // namespace

StateColumn
deviceColumn(DeviceColumn kind, int dev)
{
    assert(dev >= 0 && dev < kMaxDevices);
    return static_cast<StateColumn>(
        static_cast<int>(kind) * kMaxDevices + dev);
}

std::vector<StateColumn>
defaultTraceColumns(int ndev)
{
    std::vector<StateColumn> cols;
    cols.push_back(deviceColumn(DeviceColumn::DCache, 0));
    cols.push_back(StateColumn::HCache);
    for (int d = 1; d < ndev; ++d)
        cols.push_back(deviceColumn(DeviceColumn::DCache, d));
    for (int d = 0; d < ndev; ++d) {
        cols.push_back(deviceColumn(DeviceColumn::H2DReq, d));
        cols.push_back(deviceColumn(DeviceColumn::H2DRsp, d));
        cols.push_back(deviceColumn(DeviceColumn::D2HRsp, d));
    }
    return cols;
}

std::string
columnName(StateColumn col)
{
    switch (col) {
      case StateColumn::HCache: return "HCache";
      case StateColumn::Counter: return "Counter";
      default: break;
    }
    const int v = static_cast<int>(col);
    const int dev = v % kMaxDevices;
    static const char *const kKindNames[kDeviceColumnKinds] = {
        "DProg", "DCache", "D2HReq", "D2HRsp",
        "D2HData", "H2DReq", "H2DRsp", "H2DData",
    };
    const int kind = v / kMaxDevices;
    if (kind >= kDeviceColumnKinds)
        return "?";
    return std::string(kKindNames[kind]) + std::to_string(dev + 1);
}

std::string
formatColumn(const SystemState &s, const Scenario &scenario,
             StateColumn col)
{
    switch (col) {
      case StateColumn::HCache:
        return cacheText(s.hval, toString(s.hstate));
      case StateColumn::Counter: return std::to_string(s.counter);
      default: break;
    }
    const int v = static_cast<int>(col);
    const int dev = v % kMaxDevices;
    const DeviceColumn kind =
        static_cast<DeviceColumn>(v / kMaxDevices);
    const DeviceState &d = s.dev[dev];
    switch (kind) {
      case DeviceColumn::DProg: return progText(s, scenario, dev);
      case DeviceColumn::DCache:
        return cacheText(d.val, toString(d.state));
      case DeviceColumn::D2HReq: return chanText(d.d2hReq);
      case DeviceColumn::D2HRsp: return chanText(d.d2hRsp);
      case DeviceColumn::D2HData: return chanText(d.d2hData);
      case DeviceColumn::H2DReq: return chanText(d.h2dReq);
      case DeviceColumn::H2DRsp: return chanText(d.h2dRsp);
      case DeviceColumn::H2DData: return chanText(d.h2dData);
    }
    return "?";
}

std::string
renderTraceTable(const std::vector<TraceStep> &steps,
                 const Scenario &scenario,
                 const std::vector<StateColumn> &columns, bool markdown)
{
    std::vector<std::string> header{"transition rule"};
    for (StateColumn col : columns)
        header.push_back(columnName(col));

    TextTable table(header);
    for (const TraceStep &step : steps) {
        std::vector<std::string> row;
        row.push_back(step.ruleName.empty() ? "(initial state)"
                                            : step.ruleName);
        for (StateColumn col : columns)
            row.push_back(formatColumn(step.state, scenario, col));
        table.addRow(std::move(row));
    }
    return table.render(markdown);
}

} // namespace cxl
