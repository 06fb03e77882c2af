//===- tests/integration_test.cpp - End-to-end pipeline -------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-pipeline tests: VHDL1 source -> parse -> elaborate -> simulate,
/// checked against the software AES-128 reference (the SIM row of the
/// experiment index), plus analysis/simulation agreement checks.
///
//===----------------------------------------------------------------------===//

#include "aesref/Aes128.h"
#include "ifa/InformationFlow.h"
#include "ifa/Policy.h"
#include "parse/Parser.h"
#include "sim/Simulator.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

ElaboratedProgram elabDesign(const std::string &Source) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  auto P = elaborateDesign(F, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return std::move(*P);
}

unsigned sigId(const ElaboratedProgram &P, const std::string &Name) {
  for (const ElabSignal &S : P.Signals)
    if (S.Name == Name)
      return S.Id;
  ADD_FAILURE() << "no signal " << Name;
  return 0;
}

/// Runs the generated AES core on (Plain, Key) and returns the ct bytes.
std::optional<aes::Block> simulateAes(const ElaboratedProgram &P,
                                      const aes::Block &Plain,
                                      const aes::Key &Key) {
  Simulator Sim(P);
  for (int I = 0; I < 16; ++I) {
    Sim.driveSignal(sigId(P, "pt_" + std::to_string(I)),
                    Value::vector(LogicVector::fromUInt(Plain[I], 8)));
    Sim.driveSignal(sigId(P, "key_" + std::to_string(I)),
                    Value::vector(LogicVector::fromUInt(Key[I], 8)));
  }
  Sim.driveSignal(sigId(P, "go"), Value::scalar(StdLogic::One));
  if (Sim.run() == SimStatus::Stuck) {
    ADD_FAILURE() << "simulation stuck: " << Sim.stuckReason();
    return std::nullopt;
  }
  aes::Block Out{};
  for (int I = 0; I < 16; ++I) {
    const Value &V = Sim.presentValue(sigId(P, "ct_" + std::to_string(I)));
    std::optional<uint64_t> Byte = V.asVector().toUInt();
    if (!Byte) {
      ADD_FAILURE() << "ct_" << I << " is not binary: " << V.str();
      return std::nullopt;
    }
    Out[I] = static_cast<uint8_t>(*Byte);
  }
  return Out;
}

TEST(AesIntegration, FullEncryptionMatchesFips197AppendixB) {
  // The headline substrate-validation experiment: the VHDL1 AES core,
  // executed under the paper's SOS, reproduces FIPS-197.
  ElaboratedProgram P = elabDesign(workloads::aesCoreDesign(10));
  aes::Block Plain = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                      0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  aes::Key Key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                  0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  std::optional<aes::Block> Ct = simulateAes(P, Plain, Key);
  ASSERT_TRUE(Ct.has_value());
  EXPECT_EQ(*Ct, aes::encrypt(Plain, Key));
}

TEST(AesIntegration, SecondVectorAppendixC) {
  ElaboratedProgram P = elabDesign(workloads::aesCoreDesign(10));
  aes::Block Plain;
  aes::Key Key;
  for (int I = 0; I < 16; ++I) {
    Plain[I] = static_cast<uint8_t>(I * 0x11);
    Key[I] = static_cast<uint8_t>(I);
  }
  std::optional<aes::Block> Ct = simulateAes(P, Plain, Key);
  ASSERT_TRUE(Ct.has_value());
  aes::Block Expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                         0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  EXPECT_EQ(*Ct, Expected);
}

TEST(AesIntegration, AnalysisOfTheCoreFindsKeyToCiphertextFlows) {
  ElaboratedProgram P = elabDesign(workloads::aesCoreDesign(1));
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAResult R = analyzeInformationFlow(P, CFG);
  // Every ct byte depends on key and plaintext bytes (diffusion is not
  // complete after one round, but ct_0 certainly sees pt_0 and key_0).
  EXPECT_TRUE(R.Graph.hasEdge("pt_0", "ct_0"));
  EXPECT_TRUE(R.Graph.hasEdge("key_0", "ct_0"));
  // And the ct ports never flow back into pt.
  EXPECT_FALSE(R.Graph.hasEdge("ct_0", "pt_0"));
  // The whole graph, as the reference solvers compute it
  // (perfbench/expected.json, input aes1).
  EXPECT_EQ(R.Graph.numNodes(), 251u);
  EXPECT_EQ(R.Graph.numEdges(), 16896u);
}

TEST(AesIntegration, PolicyAuditOnLeakyCore) {
  ElaboratedProgram P = elabDesign(workloads::leakyCoreDesign());
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAOptions Opts;
  Opts.Improved = true;
  IFAResult R = analyzeInformationFlow(P, CFG, Opts);
  FlowPolicy Policy;
  Policy.Forbidden.push_back({"key", "ready"});
  Policy.Forbidden.push_back({"din", "ready"});
  auto Violations = checkFlowPolicy(R.Graph, Policy);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_EQ(Violations[0].From, "key");
  EXPECT_EQ(Violations[0].To, "ready");
}

//===----------------------------------------------------------------------===//
// Simulation/analysis agreement on random designs
//===----------------------------------------------------------------------===//

class RandomDesignPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDesignPipeline, ElaboratesAnalyzesAndSimulates) {
  std::string Source = workloads::randomDesign(GetParam(), 3, 7, 4);
  ElaboratedProgram P = elabDesign(Source);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAResult R = analyzeInformationFlow(P, CFG);
  EXPECT_GE(R.Graph.numNodes(), P.Signals.size());

  Simulator Sim(P);
  SimStatus Status = Sim.run(1000);
  EXPECT_NE(Status, SimStatus::Stuck) << Sim.stuckReason() << "\n"
                                      << Source;
  // Drive the clock a few times; the design must keep making progress
  // without getting stuck.
  for (int Tick = 0; Tick < 4; ++Tick) {
    Sim.driveSignal(sigId(P, "clk"),
                    Value::scalar(Tick % 2 ? StdLogic::Zero
                                           : StdLogic::One));
    EXPECT_NE(Sim.run(1000), SimStatus::Stuck) << Sim.stuckReason();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignPipeline,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// Analysis soundness vs simulation (differential check)
//===----------------------------------------------------------------------===//

TEST(Soundness, SimulatedFlowImpliesGraphEdge) {
  // A concrete two-path mux: which input reaches q depends on sel. Flip
  // each input and confirm: whenever flipping din changes q in simulation,
  // the graph has din -> q.
  const char *Source = R"(
    entity mux is port(d0 : in std_logic; d1 : in std_logic;
                       sel : in std_logic; q : out std_logic); end mux;
    architecture rtl of mux is
    begin
      p : process
      begin
        if sel = '1' then
          q <= d1;
        else
          q <= d0;
        end if;
        wait on d0, d1, sel;
      end process p;
    end rtl;)";
  ElaboratedProgram P = elabDesign(Source);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAResult R = analyzeInformationFlow(P, CFG);

  // All three inputs may influence q.
  EXPECT_TRUE(R.Graph.hasEdge("d0", "q"));
  EXPECT_TRUE(R.Graph.hasEdge("d1", "q"));
  EXPECT_TRUE(R.Graph.hasEdge("sel", "q"))
      << "implicit flow through the branch";

  // Differential simulation: sel='0', flipping d0 flips q.
  auto RunWith = [&](StdLogic D0, StdLogic D1, StdLogic Sel) {
    Simulator Sim(P);
    Sim.driveSignal(sigId(P, "d0"), Value::scalar(D0));
    Sim.driveSignal(sigId(P, "d1"), Value::scalar(D1));
    Sim.driveSignal(sigId(P, "sel"), Value::scalar(Sel));
    Sim.run();
    return Sim.presentValue(sigId(P, "q")).str();
  };
  EXPECT_EQ(RunWith(StdLogic::Zero, StdLogic::One, StdLogic::Zero), "'0'");
  EXPECT_EQ(RunWith(StdLogic::One, StdLogic::One, StdLogic::Zero), "'1'");
  EXPECT_EQ(RunWith(StdLogic::Zero, StdLogic::One, StdLogic::One), "'1'");
}

TEST(Soundness, NoEdgeMeansNoObservableInfluence) {
  // secret is xored into a dead variable; q depends only on din. The
  // analysis must produce no secret -> q edge, and simulation agrees.
  const char *Source = R"(
    entity core is port(secret : in std_logic; din : in std_logic;
                        q : out std_logic); end core;
    architecture rtl of core is
    begin
      p : process
        variable dead : std_logic;
        variable v : std_logic;
      begin
        dead := secret xor din;
        dead := '0';
        v := din;
        q <= v;
        wait on din, secret;
      end process p;
    end rtl;)";
  ElaboratedProgram P = elabDesign(Source);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAResult R = analyzeInformationFlow(P, CFG);
  EXPECT_FALSE(R.Graph.hasEdge("secret", "q"));

  auto RunWith = [&](StdLogic Secret) {
    Simulator Sim(P);
    Sim.driveSignal(sigId(P, "secret"), Value::scalar(Secret));
    Sim.driveSignal(sigId(P, "din"), Value::scalar(StdLogic::One));
    Sim.run();
    return Sim.presentValue(sigId(P, "q")).str();
  };
  EXPECT_EQ(RunWith(StdLogic::Zero), RunWith(StdLogic::One))
      << "flipping the secret is unobservable at q";
}

} // namespace
