// Regenerates the Figure 2 experiment — the paper's motivating case for
// generalized partial-order analysis. n concurrently *marked conflict
// places*: classical partial-order methods still enumerate every combination
// of choices (the "anticipated reachability graph" of 2^{n+1}-1 states);
// GPO's multiple firing rule collapses the whole family to 2 states.
#include <iomanip>
#include <iostream>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

int main() {
  std::cout << "Figure 2 reproduction — n concurrently marked conflict "
               "places\n\n"
            << std::setw(4) << "n" << std::setw(12) << "full"      //
            << std::setw(14) << "stubborn" << std::setw(16)        //
            << "2^{n+1}-1" << std::setw(10) << "GPO" << std::setw(12)
            << "GPO-t(s)" << "\n"
            << std::string(68, '-') << "\n";
  for (std::size_t n : {1u, 2u, 4u, 8u, 12u, 16u, 20u}) {
    auto net = gpo::models::make_conflict_chain(n);
    gpo::reach::ExplorerOptions eo;
    eo.max_states = 2u << 20;
    auto full = gpo::reach::ExplicitExplorer(net, eo).explore();
    gpo::por::StubbornOptions so;
    so.max_states = 2u << 21;
    auto por = gpo::por::StubbornExplorer(net, so).explore();
    auto g = gpo::core::run_gpo(net);
    std::cout << std::setw(4) << n << std::setw(12)
              << (full.limit_hit ? std::string("> cap")
                                 : std::to_string(full.state_count))
              << std::setw(14)
              << (por.limit_hit ? std::string("> cap")
                                : std::to_string(por.state_count))
              << std::setw(16) << ((std::size_t{2} << n) - 1)  //
              << std::setw(10) << g.state_count << std::setw(12) << std::fixed
              << std::setprecision(4) << g.seconds << "\n";
  }
  std::cout << "\nexpected shape: full = 3^n, stubborn = 2^{n+1}-1, GPO = 2\n";
  return 0;
}
