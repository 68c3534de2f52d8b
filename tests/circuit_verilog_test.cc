/**
 * @file
 * Tests for the structural Verilog exporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "rl/circuit/verilog.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_network.h"
#include "rl/graph/dag.h"

namespace {

using namespace racelogic;
using circuit::Netlist;
using circuit::NetId;
using circuit::VerilogPort;

std::string
emit(const Netlist &netlist, const std::vector<VerilogPort> &outputs)
{
    std::ostringstream os;
    circuit::writeVerilog(os, netlist, "dut", outputs);
    return os.str();
}

TEST(Verilog, BasicModuleStructure)
{
    Netlist n;
    NetId a = n.input("a");
    NetId b = n.input("b");
    NetId y = n.andGate({a, b});
    std::string v = emit(n, {{"y", y}});
    EXPECT_NE(v.find("module dut ("), std::string::npos);
    EXPECT_NE(v.find("input wire clk"), std::string::npos);
    EXPECT_NE(v.find("input wire rst"), std::string::npos);
    EXPECT_NE(v.find("input wire a"), std::string::npos);
    EXPECT_NE(v.find("output wire y"), std::string::npos);
    EXPECT_NE(v.find("a & b"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, EveryGateFlavourEmits)
{
    Netlist n;
    NetId a = n.input("a");
    NetId b = n.input("b");
    NetId s = n.input("s");
    n.constant(false);
    n.constant(true);
    n.bufGate(a);
    n.notGate(a);
    n.orGate({a, b});
    n.nandGate({a, b});
    n.norGate({a, b});
    n.xorGate(a, b);
    NetId y = n.xnorGate(a, b);
    n.mux(s, a, b);
    NetId q = n.dff(y, /*init=*/true);
    std::string v = emit(n, {{"q", q}});
    EXPECT_NE(v.find("1'b0;"), std::string::npos);
    EXPECT_NE(v.find("1'b1;"), std::string::npos);
    EXPECT_NE(v.find("= ~a"), std::string::npos);
    EXPECT_NE(v.find("a | b"), std::string::npos);
    EXPECT_NE(v.find("~(a & b)"), std::string::npos);
    EXPECT_NE(v.find("~(a | b)"), std::string::npos);
    EXPECT_NE(v.find("a ^ b"), std::string::npos);
    EXPECT_NE(v.find("~(a ^ b)"), std::string::npos);
    EXPECT_NE(v.find("s ? "), std::string::npos);
    EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
    EXPECT_NE(v.find("<= 1'b1;"), std::string::npos) << "reset init";
}

TEST(Verilog, EnableDffUsesElseIf)
{
    Netlist n;
    NetId d = n.input("d");
    NetId en = n.input("en");
    NetId q = n.dff(d, false, en);
    std::string v = emit(n, {{"q", q}});
    EXPECT_NE(v.find("else if (en)"), std::string::npos);
}

TEST(Verilog, RaceGridFabricExports)
{
    const core::GridFabric fabric =
        core::GridFabric::unitCells(bio::Alphabet::dna(), 3, 3);
    std::ostringstream os;
    circuit::writeVerilog(
        os, fabric.netlist(), "race_grid_3x3",
        {{"done", static_cast<NetId>(fabric.netlist().gateCount() - 1)}});
    std::string v = os.str();
    EXPECT_NE(v.find("module race_grid_3x3"), std::string::npos);
    // One wire/reg declaration per non-input gate.
    size_t regs = 0;
    for (size_t pos = 0; (pos = v.find("    reg  ", pos)) !=
                         std::string::npos;
         pos += 9)
        ++regs;
    EXPECT_EQ(regs, fabric.netlist().dffCount());
}

TEST(Verilog, CompiledDagRaceExports)
{
    graph::Dag dag = graph::makeFig3ExampleDag();
    core::RaceCircuit rc =
        core::compileRaceCircuit(dag, {0, 1}, core::RaceType::Or);
    std::ostringstream os;
    circuit::writeVerilog(os, rc.netlist, "fig3_or_race",
                          {{"sink", rc.nodeNets[4]}});
    std::string v = os.str();
    EXPECT_NE(v.find("input wire src0"), std::string::npos);
    EXPECT_NE(v.find("input wire src1"), std::string::npos);
    EXPECT_NE(v.find("assign sink = "), std::string::npos);
}

TEST(Verilog, DeterministicOutput)
{
    Netlist n;
    NetId a = n.input("a");
    NetId q = n.dff(n.notGate(a));
    auto first = emit(n, {{"q", q}});
    auto second = emit(n, {{"q", q}});
    EXPECT_EQ(first, second);
}

TEST(VerilogDeath, RequiresAnOutput)
{
    Netlist n;
    n.input("a");
    std::ostringstream os;
    EXPECT_DEATH(circuit::writeVerilog(os, n, "dut", {}),
                 "at least one output");
}

} // namespace
