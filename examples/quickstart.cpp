//===- examples/quickstart.cpp - Library tour in 80 lines -----------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
//
// Parse a small two-process VHDL1 design, run the Information Flow analysis
// and print the resulting non-transitive flow graph next to Kemmerer's
// transitive closure.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "parse/Parser.h"

#include <iostream>

using namespace vif;

int main() {
  // A producer drives `data` from the secret; a consumer copies `data` to
  // the output, and separately copies `pub` to `mirror`. There is no flow
  // secret -> mirror, which the non-transitive graph shows and a
  // transitive method cannot.
  const char *Source = R"(
    entity demo is
      port(
        secret : in std_logic;
        pub    : in std_logic;
        dout   : out std_logic;
        mirror : out std_logic
      );
    end demo;

    architecture rtl of demo is
      signal data : std_logic;
    begin
      producer : process
      begin
        data <= secret;
        wait on secret;
      end process producer;

      consumer : process
        variable v : std_logic;
      begin
        v := data;
        dout <= v;
        v := pub;
        mirror <= v;
        wait on data, pub;
      end process consumer;
    end rtl;
  )";

  DiagnosticEngine Diags;
  DesignFile File = parseDesign(Source, Diags);
  std::optional<ElaboratedProgram> Program = elaborateDesign(File, Diags);
  if (!Program) {
    Diags.print(std::cerr);
    return 1;
  }

  ProgramCFG CFG = ProgramCFG::build(*Program);
  IFAResult Ours = analyzeInformationFlow(*Program, CFG);
  KemmererResult Base = analyzeKemmerer(*Program, CFG);

  std::cout << "== RD-guided information-flow graph ("
            << Ours.Graph.numEdges() << " edges)\n";
  Ours.Graph.forEachSortedEdge([](std::string_view From, std::string_view To) {
    std::cout << "  " << From << " -> " << To << '\n';
  });

  std::cout << "\n== Kemmerer's transitive closure ("
            << Base.Graph.numEdges() << " edges)\n";
  Base.Graph.forEachSortedEdge([](std::string_view From, std::string_view To) {
    std::cout << "  " << From << " -> " << To << '\n';
  });

  std::cout << "\nfalse positives of the transitive method: "
            << Base.Graph.edgesNotIn(Ours.Graph).size() << '\n';
  std::cout << "our graph transitive? "
            << (Ours.Graph.isTransitive() ? "yes" : "no — as the paper"
                                                    " promises")
            << '\n';
  return 0;
}
