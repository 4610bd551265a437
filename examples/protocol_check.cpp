// File-driven verification, the way an end user would drive the library:
// parse a .net description, run generalized partial-order analysis, fall
// back to an exhaustive check for the counterexample trace, and export the
// net as Graphviz DOT.
//
//   $ ./example_protocol_check examples/nets/overtake3.net
//   $ ./example_protocol_check my_protocol.net out.dot
#include <fstream>
#include <iostream>
#include <optional>

#include "core/gpo.hpp"
#include "parser/net_format.hpp"
#include "petri/dot.hpp"
#include "reach/explorer.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " <file.net> [out.dot]\n";
    return 2;
  }

  std::optional<gpo::petri::PetriNet> loaded;
  try {
    loaded = gpo::parser::parse_net_file(argv[1]);
  } catch (const std::exception& e) {
    std::cerr << "failed to load " << argv[1] << ": " << e.what() << "\n";
    return 1;
  }
  const gpo::petri::PetriNet& net = *loaded;
  std::cout << "loaded '" << net.name() << "': " << net.place_count()
            << " places, " << net.transition_count() << " transitions, "
            << net.initial_marking().count() << " initial tokens\n";

  auto result = gpo::core::run_gpo(net);
  std::cout << "GPO: " << result.state_count << " states, "
            << (result.deadlock_found ? "DEADLOCK" : "no deadlock") << " ("
            << result.seconds << "s";
  if (result.delegated_states > 0)
    std::cout << ", +" << result.delegated_states
              << " delegated classical states";
  std::cout << ")\n";

  if (result.deadlock_found) {
    std::cout << "dead marking: "
              << gpo::reach::marking_to_string(net, *result.deadlock_witness)
              << "\n";
    // Reconstruct a concrete firing sequence with the exhaustive engine.
    gpo::reach::ExplorerOptions eo;
    eo.stop_at_first_deadlock = true;
    eo.max_states = 5'000'000;
    auto ground = gpo::reach::ExplicitExplorer(net, eo).explore();
    if (ground.deadlock_found) {
      std::cout << "replayable trace:";
      for (auto t : ground.counterexample)
        std::cout << " " << net.transition(t).name;
      std::cout << "\n";
    }
  }

  if (argc > 2) {
    std::ofstream out(argv[2]);
    gpo::petri::write_net_dot(out, net);
    std::cout << "wrote DOT to " << argv[2] << "\n";
  }
  return result.deadlock_found ? 10 : 0;
}
