//===- workloads/Synthetic.cpp --------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "workloads/Synthetic.h"

#include <sstream>

using namespace vif;
using namespace vif::workloads;

namespace {

/// SplitMix64: small deterministic PRNG, independent of the standard
/// library so generated programs are stable across platforms.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) {
    return static_cast<unsigned>(next() % N);
  }
};

} // namespace

std::string vif::workloads::chainStatements(unsigned N) {
  std::ostringstream OS;
  for (unsigned I = 0; I <= N; ++I)
    OS << "variable x_" << I << " : std_logic;\n";
  for (unsigned I = 1; I <= N; ++I)
    OS << "x_" << I << " := x_" << (I - 1) << ";\n";
  return OS.str();
}

std::string vif::workloads::independentCopies(unsigned N) {
  std::ostringstream OS;
  for (unsigned I = 0; I < N; ++I)
    OS << "variable a_" << I << " : std_logic;\n"
       << "variable x_" << I << " : std_logic;\n";
  for (unsigned I = 0; I < N; ++I)
    OS << "x_" << I << " := a_" << I << ";\n";
  return OS.str();
}

std::string vif::workloads::tempReuseLadder(unsigned Groups, unsigned Temps) {
  std::ostringstream OS;
  for (unsigned G = 0; G < Groups; ++G)
    for (unsigned T = 0; T < Temps; ++T)
      OS << "variable a_" << G << "_" << T << " : std_logic;\n";
  for (unsigned T = 0; T < Temps; ++T)
    OS << "variable t_" << T << " : std_logic;\n";
  for (unsigned G = 0; G < Groups; ++G) {
    // Rotate group G by (G mod Temps) + 1 positions through the shared
    // temporaries.
    unsigned Shift = (G % Temps) + 1;
    for (unsigned T = 0; T < Temps; ++T)
      OS << "t_" << T << " := a_" << G << "_" << (T + Shift) % Temps
         << ";\n";
    for (unsigned T = 0; T < Temps; ++T)
      OS << "a_" << G << "_" << T << " := t_" << T << ";\n";
  }
  return OS.str();
}

std::string vif::workloads::pipelineDesign(unsigned Stages) {
  std::ostringstream OS;
  OS << "entity pipe is\n  port(\n"
        "    s_0 : in std_logic;\n";
  for (unsigned K = 1; K < Stages; ++K)
    OS << "    s_" << K << " : inout std_logic;\n";
  OS << "    s_" << Stages << " : out std_logic\n  );\nend pipe;\n\n";
  OS << "architecture behav of pipe is\nbegin\n";
  for (unsigned K = 1; K <= Stages; ++K) {
    OS << "  st_" << K << " : process\n  begin\n"
       << "    s_" << K << " <= s_" << (K - 1) << ";\n"
       << "    wait on s_" << (K - 1) << ";\n"
       << "  end process st_" << K << ";\n";
  }
  OS << "end behav;\n";
  return OS.str();
}

std::string vif::workloads::syncMeshDesign(unsigned Procs, unsigned Waits,
                                           unsigned Sigs) {
  std::ostringstream OS;
  OS << "entity mesh is\n  port(\n    clk : in std_logic\n  );\nend "
        "mesh;\n\n";
  OS << "architecture behav of mesh is\n";
  for (unsigned S = 0; S < Sigs; ++S)
    OS << "  signal b_" << S << " : std_logic;\n";
  OS << "begin\n";
  for (unsigned P = 0; P < Procs; ++P) {
    OS << "  p_" << P << " : process\n  begin\n";
    for (unsigned W = 0; W < Waits; ++W) {
      // Drive a signal that depends on the process and phase, then
      // synchronize. Each process touches a different slice of the bus so
      // the may/must active sets differ across wait points.
      unsigned Dst = (P + W) % Sigs;
      unsigned Src = (P + W + 1) % Sigs;
      OS << "    b_" << Dst << " <= b_" << Src << ";\n";
      if (W % 2 == 1 && Sigs > 1)
        OS << "    b_" << (P * 7 + W) % Sigs << " <= clk;\n";
      OS << "    wait on clk;\n";
    }
    OS << "  end process p_" << P << ";\n";
  }
  OS << "end behav;\n";
  return OS.str();
}

std::string vif::workloads::randomDesign(uint64_t Seed, unsigned Procs,
                                         unsigned Stmts, unsigned Sigs) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "entity rnd is\n  port(\n    clk : in std_logic;\n"
        "    dout : out std_logic\n  );\nend rnd;\n\n";
  OS << "architecture behav of rnd is\n";
  for (unsigned S = 0; S < Sigs; ++S)
    OS << "  signal g_" << S << " : std_logic := '0';\n";
  OS << "begin\n";
  for (unsigned P = 0; P < Procs; ++P) {
    unsigned Vars = 2 + R.below(3);
    OS << "  p_" << P << " : process\n";
    for (unsigned V = 0; V < Vars; ++V)
      OS << "    variable v_" << V << " : std_logic := '0';\n";
    OS << "  begin\n";
    auto RandSig = [&]() { return "g_" + std::to_string(R.below(Sigs)); };
    auto RandVar = [&]() { return "v_" + std::to_string(R.below(Vars)); };
    auto RandRead = [&]() {
      switch (R.below(4)) {
      case 0:
        return RandSig();
      case 1:
        return std::string(R.below(2) ? "'1'" : "'0'");
      default:
        return RandVar();
      }
    };
    for (unsigned S = 0; S < Stmts; ++S) {
      switch (R.below(6)) {
      case 0: // signal assignment
        OS << "    " << RandSig() << " <= " << RandRead() << ";\n";
        break;
      case 1: // wait
        OS << "    wait on " << (R.below(2) ? RandSig() : "clk") << ";\n";
        break;
      case 2: { // conditional
        OS << "    if " << RandRead() << " = '1' then\n"
           << "      " << RandVar() << " := " << RandRead() << ";\n";
        if (R.below(2))
          OS << "    else\n      " << RandSig() << " <= " << RandRead()
             << ";\n";
        OS << "    end if;\n";
        break;
      }
      case 3: // logic
        OS << "    " << RandVar() << " := " << RandRead() << " xor "
           << RandRead() << ";\n";
        break;
      default: // plain copy
        OS << "    " << RandVar() << " := " << RandRead() << ";\n";
        break;
      }
    }
    // Every process ends with a synchronization so it does not spin.
    OS << "    wait on clk;\n";
    OS << "  end process p_" << P << ";\n";
  }
  // Tie the out port to the bus so the design has an observable output.
  OS << "  dout <= g_0;\n";
  OS << "end behav;\n";
  return OS.str();
}

std::string vif::workloads::randomPortedDesign(uint64_t Seed, unsigned Procs,
                                               unsigned Stmts, unsigned Ins,
                                               unsigned Outs) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "entity rport is\n  port(\n    clk : in std_logic;\n";
  for (unsigned I = 0; I < Ins; ++I)
    OS << "    i_" << I << " : in std_logic;\n";
  for (unsigned O = 0; O < Outs; ++O)
    OS << "    o_" << O << " : out std_logic" << (O + 1 < Outs ? ";" : "")
       << "\n";
  OS << "  );\nend rport;\n\n";
  OS << "architecture behav of rport is\n";
  unsigned Sigs = 2 + Outs;
  for (unsigned S = 0; S < Sigs; ++S)
    OS << "  signal g_" << S << " : std_logic := '0';\n";
  OS << "begin\n";
  for (unsigned P = 0; P < Procs; ++P) {
    unsigned Vars = 2 + R.below(3);
    OS << "  p_" << P << " : process\n";
    for (unsigned V = 0; V < Vars; ++V)
      OS << "    variable v_" << V << " : std_logic := '0';\n";
    OS << "  begin\n";
    auto RandIn = [&]() { return "i_" + std::to_string(R.below(Ins)); };
    auto RandSig = [&]() { return "g_" + std::to_string(R.below(Sigs)); };
    auto RandVar = [&]() { return "v_" + std::to_string(R.below(Vars)); };
    auto RandRead = [&]() {
      switch (R.below(5)) {
      case 0:
        return RandIn();
      case 1:
        return RandSig();
      case 2:
        return std::string(R.below(2) ? "'1'" : "'0'");
      default:
        return RandVar();
      }
    };
    for (unsigned S = 0; S < Stmts; ++S) {
      switch (R.below(5)) {
      case 0:
        OS << "    " << RandSig() << " <= " << RandRead() << ";\n";
        break;
      case 1:
        OS << "    if " << RandRead() << " = '1' then\n"
           << "      " << RandVar() << " := " << RandRead() << ";\n"
           << "    else\n      " << RandVar() << " := " << RandRead()
           << ";\n    end if;\n";
        break;
      case 2:
        OS << "    " << RandVar() << " := " << RandRead() << " xor "
           << RandRead() << ";\n";
        break;
      default:
        OS << "    " << RandVar() << " := " << RandRead() << ";\n";
        break;
      }
    }
    // Each process drives one output from a local value, then parks on
    // the clock.
    unsigned O = P % Outs;
    OS << "    o_" << O << " <= " << RandVar() << ";\n";
    OS << "    wait on clk;\n";
    OS << "  end process p_" << P << ";\n";
  }
  OS << "end behav;\n";
  return OS.str();
}

std::string vif::workloads::randomStatements(uint64_t Seed, unsigned Stmts,
                                             unsigned Vars) {
  Rng R(Seed);
  std::ostringstream OS;
  for (unsigned V = 0; V < Vars; ++V)
    OS << "variable y_" << V << " : std_logic;\n";
  auto RandVar = [&]() { return "y_" + std::to_string(R.below(Vars)); };
  for (unsigned S = 0; S < Stmts; ++S) {
    switch (R.below(4)) {
    case 0:
      OS << "if " << RandVar() << " = '1' then\n  " << RandVar() << " := "
         << RandVar() << ";\nelse\n  " << RandVar() << " := " << RandVar()
         << ";\nend if;\n";
      break;
    case 1:
      OS << RandVar() << " := " << RandVar() << " and " << RandVar()
         << ";\n";
      break;
    default:
      OS << RandVar() << " := " << RandVar() << ";\n";
      break;
    }
  }
  return OS.str();
}
