// Quickstart: build a safe Petri net with the public API, check it for
// deadlock with generalized partial-order analysis, and inspect the witness.
//
//   $ ./example_quickstart
//
// The net models two workers that each grab two shared tools in opposite
// order — the textbook recipe for a deadlock.
#include <iostream>

#include "core/gpo.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

int main() {
  using namespace gpo;

  // 1. Describe the net. Places hold at most one token (safe nets);
  //    transitions consume from every input place and fill every output.
  petri::NetBuilder builder("two_workers");
  auto idle_a = builder.add_place("idle_a", /*marked=*/true);
  auto idle_b = builder.add_place("idle_b", /*marked=*/true);
  auto tool1 = builder.add_place("tool1", /*marked=*/true);
  auto tool2 = builder.add_place("tool2", /*marked=*/true);
  auto has1_a = builder.add_place("a_has_tool1");
  auto has2_b = builder.add_place("b_has_tool2");
  auto done_a = builder.add_place("done_a");
  auto done_b = builder.add_place("done_b");

  // Worker A grabs tool1 then tool2; worker B grabs tool2 then tool1.
  auto grab1_a = builder.add_transition("a_grabs_tool1");
  builder.connect(grab1_a, {idle_a, tool1}, {has1_a});
  auto grab2_a = builder.add_transition("a_grabs_tool2");
  builder.connect(grab2_a, {has1_a, tool2}, {done_a, tool1, tool2});
  auto grab2_b = builder.add_transition("b_grabs_tool2");
  builder.connect(grab2_b, {idle_b, tool2}, {has2_b});
  auto grab1_b = builder.add_transition("b_grabs_tool1");
  builder.connect(grab1_b, {has2_b, tool1}, {done_b, tool1, tool2});

  petri::PetriNet net = builder.build();
  std::cout << "net '" << net.name() << "': " << net.place_count()
            << " places, " << net.transition_count() << " transitions\n";

  // 2. Run generalized partial-order analysis: the `gpo` engine, which
  //    stores every set family as a canonical ZDD (run_gpo_explicit runs
  //    the same search over the paper-literal enumerated families).
  core::GpoResult result = core::run_gpo(net);

  std::cout << "explored " << result.state_count << " GPN states ("
            << result.multiple_steps << " simultaneous steps, "
            << result.single_steps << " single steps)\n";

  // 3. Inspect the verdict.
  if (result.deadlock_found) {
    std::cout << "DEADLOCK: "
              << reach::marking_to_string(net, *result.deadlock_witness)
              << "\n";
  } else {
    std::cout << "no deadlock reachable\n";
  }

  // 4. Cross-check with exhaustive search (feasible here — tiny net).
  auto ground = reach::ExplicitExplorer(net).explore();
  std::cout << "exhaustive search: " << ground.state_count << " markings, "
            << (ground.deadlock_found ? "deadlock" : "no deadlock") << "\n";
  if (ground.deadlock_found) {
    std::cout << "shortest counterexample:";
    for (auto t : ground.counterexample)
      std::cout << " " << net.transition(t).name;
    std::cout << "\n";
  }
  return result.deadlock_found == ground.deadlock_found ? 0 : 1;
}
