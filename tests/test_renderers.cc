/**
 * @file
 * Tests for the presentation layer: trace tables over explorer traces,
 * message-sequence charts of the snooping flows, and column formatting
 * edge cases.
 */

#include <gtest/gtest.h>

#include "checker/explorer.hh"
#include "litmus/litmus.hh"
#include "litmus/msc.hh"
#include "litmus/trace_table.hh"

namespace cxl
{
namespace
{

TEST(TraceTable, ColumnNamesMatchPaperHeaders)
{
    EXPECT_EQ(columnName(StateColumn::DProg1), "DProg1");
    EXPECT_EQ(columnName(StateColumn::DCache2), "DCache2");
    EXPECT_EQ(columnName(StateColumn::H2DRsp1), "H2DRsp1");
    EXPECT_EQ(columnName(StateColumn::HCache), "HCache");
    EXPECT_EQ(columnName(StateColumn::Counter), "Counter");
}

TEST(TraceTable, FormatsEveryColumnKind)
{
    Scenario sc;
    sc.program[0] = {Instr::Load, Instr::Store};
    SystemState s = initialBothShared(3);
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 1});
    s.dev[0].h2dData.pushBack({1, 3, 0});
    s.dev[1].d2hData.pushBack({0, 9, 1});
    s.counter = 2;

    EXPECT_EQ(formatColumn(s, sc, StateColumn::DProg1),
              "[Load, Store]");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::DProg2), "[]");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::DCache1), "(3, S)");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::D2HReq1),
              "[(RdOwn, 1)]");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::H2DData1),
              "[(Data(3), 1)]");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::D2HData2),
              "[(Data(9), 0)!bogus]");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::HCache), "(3, S)");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::Counter), "2");
}

TEST(TraceTable, ProgramColumnTracksPc)
{
    Scenario sc;
    sc.program[0] = {Instr::Load, Instr::Store, Instr::Evict};
    SystemState s;
    s.dev[0].pc = 2;
    EXPECT_EQ(formatColumn(s, sc, StateColumn::DProg1), "[Evict]");
    s.dev[0].pc = 3;
    EXPECT_EQ(formatColumn(s, sc, StateColumn::DProg1), "[]");
}

TEST(TraceTable, FreeRunProgramColumn)
{
    Scenario sc = Scenario::freeRunScenario();
    SystemState s;
    EXPECT_EQ(formatColumn(s, sc, StateColumn::DProg1), "(free)");
}

TEST(TraceTable, RendersExplorerViolationTraces)
{
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};
    InvariantSet swmr = InvariantSet::swmrOnly();

    Explorer ex(rules, sc, swmr);
    ExploreResult res = ex.run();
    ASSERT_TRUE(res.violation.has_value());

    std::string table = renderTraceTable(
        res.violation->trace, sc,
        {StateColumn::DCache1, StateColumn::DCache2});
    // One row per step plus header and rule line.
    std::size_t lines = 0;
    for (char c : table)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, res.violation->trace.size() + 2);
    EXPECT_NE(table.find("ISADSnpInv2"), std::string::npos)
        << "the mutated rule must appear on the violation path";
}

TEST(Msc, DirtyEvictChartShowsWritebackDirection)
{
    RuleSet rules(ProtocolConfig::correct());
    Scenario sc;
    sc.initial = initialOneModified(0, 1, 0);
    sc.program[0] = {Instr::Evict};
    auto steps = runGuided(rules, sc,
                           {"ModifiedEvict1", "HostModifiedDirtyEvict1",
                            "MIA_GO_WritePull1", "HostID_Data1"});

    auto events = deriveMscEvents(steps);
    // DirtyEvict + writeback data are device sends; GO_WritePull is a
    // host send; request/GO/data deliveries appear on both lifelines.
    int dev_sends = 0, host_sends = 0;
    bool saw_writeback = false;
    for (const auto &ev : events) {
        if (ev.kind == MscEvent::Kind::DeviceSend) {
            ++dev_sends;
            if (ev.text.find("D2HData") != std::string::npos)
                saw_writeback = true;
        }
        if (ev.kind == MscEvent::Kind::HostSend)
            ++host_sends;
    }
    EXPECT_EQ(dev_sends, 2);
    EXPECT_EQ(host_sends, 1);
    EXPECT_TRUE(saw_writeback);

    std::string chart = renderMsc(steps, "dirty evict");
    EXPECT_NE(chart.find("GO_WritePull"), std::string::npos);
    EXPECT_NE(chart.find("HCache: M -> ID"), std::string::npos);
}

TEST(Msc, StateNotesTrackAllThreeLifelines)
{
    ProtocolConfig cfg;
    cfg.relaxSnoopPushesGo = true;
    RuleSet rules(cfg);
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};
    auto steps = runGuided(
        rules, sc,
        {"InvalidStore1", "InvalidLoad2", "HostInvalidRdShared2",
         "HostSharedRdOwnSnp1", "ISADSnpInv2", "ISAD_GO_Data2",
         "HostMA_RspIHitI1", "IMAD_GO_Data1"});

    bool dev1_note = false, host_note = false, dev2_note = false;
    for (const auto &ev : deriveMscEvents(steps)) {
        if (ev.kind != MscEvent::Kind::Note)
            continue;
        if (ev.device == 0)
            dev1_note = true;
        if (ev.device == -1)
            host_note = true;
        if (ev.device == 1)
            dev2_note = true;
    }
    EXPECT_TRUE(dev1_note);
    EXPECT_TRUE(host_note);
    EXPECT_TRUE(dev2_note);
}

TEST(TraceTable, DeviceColumnCoversEveryKindAndSlot)
{
    // The kind-major grid must round-trip through columnName for all
    // kMaxDevices slots, including the paper's two-device spellings.
    EXPECT_EQ(deviceColumn(DeviceColumn::DCache, 0),
              StateColumn::DCache1);
    EXPECT_EQ(deviceColumn(DeviceColumn::H2DRsp, 1),
              StateColumn::H2DRsp2);
    EXPECT_EQ(columnName(deviceColumn(DeviceColumn::DCache, 2)),
              "DCache3");
    EXPECT_EQ(columnName(deviceColumn(DeviceColumn::D2HData, 3)),
              "D2HData4");
    EXPECT_EQ(columnName(deviceColumn(DeviceColumn::DProg, 2)),
              "DProg3");
}

TEST(TraceTable, FormatsThirdDeviceColumns)
{
    Scenario sc = Scenario::freeRunScenario(3);
    SystemState s = initialBothShared(4, 3);
    s.dev[2].d2hReq.pushBack({D2HReqOp::RdShared, 2});
    EXPECT_EQ(formatColumn(s, sc, StateColumn::DCache3), "(4, S)");
    EXPECT_EQ(formatColumn(s, sc, StateColumn::D2HReq3),
              "[(RdShared, 2)]");
}

TEST(TraceTable, DefaultColumnsScaleWithDeviceCount)
{
    const auto two = defaultTraceColumns(2);
    const auto four = defaultTraceColumns(4);
    // Caches (device 1, host, devices 2..N) + 3 channels per device.
    EXPECT_EQ(two.size(), 3u + 2u * 3u);
    EXPECT_EQ(four.size(), 5u + 4u * 3u);
    EXPECT_EQ(four[0], StateColumn::DCache1);
    EXPECT_EQ(four[1], StateColumn::HCache);
    EXPECT_EQ(four[4], StateColumn::DCache4);

    // A rendered 4-device table carries all four device headers.
    Scenario sc = Scenario::freeRunScenario(4);
    std::vector<TraceStep> steps{{"", sc.initial}};
    std::string table = renderTraceTable(steps, sc, four);
    for (const char *hdr : {"DCache1", "DCache2", "DCache3", "DCache4",
                            "HCache", "D2HRsp4"})
        EXPECT_NE(table.find(hdr), std::string::npos) << hdr;
}

TEST(Msc, ThreeDeviceChartAddsALanePerDevice)
{
    // Device 3 sends a request: the chart must grow a "device 3"
    // lifeline and place the send on its lane, right of device 2.
    Scenario sc = Scenario::freeRunScenario(3);
    SystemState next = sc.initial;
    next.dev[2].d2hReq.pushBack({D2HReqOp::RdShared, 0});
    next.dev[2].state = DState::ISAD;
    std::vector<TraceStep> steps{{"", sc.initial},
                                  {"InvalidLoad3", next}};

    auto events = deriveMscEvents(steps);
    bool dev3_send = false;
    for (const auto &ev : events)
        dev3_send |= ev.kind == MscEvent::Kind::DeviceSend &&
                     ev.device == 2;
    EXPECT_TRUE(dev3_send);

    std::string chart = renderMsc(steps, "three devices");
    EXPECT_NE(chart.find("device 3"), std::string::npos);
    EXPECT_NE(chart.find("device 2"), std::string::npos);
    EXPECT_GT(chart.find("device 3"), chart.find("device 2"));
    // The send from device 3 points left, towards the host lane.
    EXPECT_NE(chart.find("<"), std::string::npos);
}

TEST(Msc, EmptyTraceRendersHeaderOnly)
{
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    std::vector<TraceStep> steps{{"", sc.initial}};
    std::string chart = renderMsc(steps, "empty");
    EXPECT_NE(chart.find("device 1"), std::string::npos);
    EXPECT_NE(chart.find("(I)"), std::string::npos);
}

} // namespace
} // namespace cxl
