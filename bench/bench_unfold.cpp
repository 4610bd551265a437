// Extended comparison (ours): McMillan's finite complete prefix versus the
// engines of Table 1. Unfoldings collapse the *interleaving* dimension
// (concurrent transitions appear once); generalized partial-order analysis
// additionally collapses the *conflict* dimension — the numbers below show
// where each pays off.
#include <iomanip>
#include <iostream>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "reach/explorer.hpp"
#include "unfold/unfolding.hpp"

int main() {
  std::cout << "Unfolding prefix vs GPO vs full graph\n\n"
            << std::left << std::setw(12) << "model" << std::right
            << std::setw(10) << "full" << std::setw(12) << "events"
            << std::setw(10) << "cutoffs" << std::setw(10) << "GPO" << "\n"
            << std::string(54, '-') << "\n";
  struct Case {
    std::string label;
    gpo::petri::PetriNet net;
  };
  std::vector<Case> cases;
  for (std::size_t n : {4u, 8u, 12u})
    cases.push_back({"diamond" + std::to_string(n),
                     gpo::models::make_diamond(n)});
  for (std::size_t n : {4u, 8u})
    cases.push_back({"chain" + std::to_string(n),
                     gpo::models::make_conflict_chain(n)});
  for (std::size_t n : {2u, 4u})
    cases.push_back({"nsdp" + std::to_string(n), gpo::models::make_nsdp(n)});
  for (std::size_t n : {3u, 4u})
    cases.push_back({"over" + std::to_string(n),
                     gpo::models::make_overtake(n)});
  for (std::size_t n : {4u, 8u})
    cases.push_back({"cysched" + std::to_string(n),
                     gpo::models::make_cyclic_scheduler(n)});
  for (std::size_t n : {4u, 6u})
    cases.push_back({"rw" + std::to_string(n),
                     gpo::models::make_readers_writers(n)});

  for (const Case& c : cases) {
    gpo::reach::ExplorerOptions eo;
    eo.max_states = 5'000'000;
    auto full = gpo::reach::ExplicitExplorer(c.net, eo).explore();
    gpo::unfold::UnfoldOptions uo;
    uo.max_events = 500'000;
    auto prefix = gpo::unfold::unfold(c.net, uo);
    gpo::core::GpoOptions go;
    go.max_seconds = 30;
    auto g = gpo::core::run_gpo(c.net, go);
    std::cout << std::left << std::setw(12) << c.label << std::right
              << std::setw(10)
              << (full.limit_hit ? std::string("> cap")
                                 : std::to_string(full.state_count))
              << std::setw(12)
              << (prefix.limit_hit ? std::string("> cap")
                                   : std::to_string(prefix.events.size()))
              << std::setw(10) << prefix.cutoff_count << std::setw(10)
              << g.state_count << "\n";
  }
  return 0;
}
