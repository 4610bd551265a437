// Regenerates the Figure 1 experiment: n concurrently enabled independent
// transitions. Interleaving semantics explodes the full graph to 2^n states
// (n! firing sequences); partial-order analysis needs n+1; generalized
// partial-order analysis fires the whole step at once and needs 2.
#include <iomanip>
#include <iostream>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

int main() {
  std::cout << "Figure 1 reproduction — interleavings of n concurrent "
               "transitions\n\n"
            << std::setw(4) << "n" << std::setw(12) << "full" << std::setw(12)
            << "stubborn" << std::setw(12) << "GPO" << "\n"
            << std::string(40, '-') << "\n";
  for (std::size_t n : {1u, 2u, 4u, 8u, 12u, 16u}) {
    auto net = gpo::models::make_diamond(n);
    gpo::reach::ExplorerOptions eo;
    eo.max_states = 1u << 20;
    auto full = gpo::reach::ExplicitExplorer(net, eo).explore();
    auto por = gpo::por::StubbornExplorer(net).explore();
    auto g = gpo::core::run_gpo(net);
    std::cout << std::setw(4) << n << std::setw(12)
              << (full.limit_hit ? std::string("> cap")
                                 : std::to_string(full.state_count))
              << std::setw(12) << por.state_count << std::setw(12)
              << g.state_count << "\n";
  }
  std::cout << "\nexpected shape: full = 2^n, stubborn = n+1, GPO = 2\n";
  return 0;
}
