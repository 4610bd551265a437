// Ablation of the stubborn-set seed strategy (por::SeedStrategy): the
// best-over-seeds search pays more per state for smaller graphs; the
// first-enabled and whole-conflict-set ("anticipation", Section 2.3 of the
// paper) variants are cheaper per state but reduce less. Reported counters
// show the reduced-graph size so the time/states tradeoff is visible.
//
// BM_ExplicitSearch is the layer row of the shared sequential BFS core:
// `full` (every enabled transition) against `por` (best-over-seeds stubborn
// sets) on the same models, with a states_per_s counter.
#include <benchmark/benchmark.h>

#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

namespace {

using gpo::por::SeedStrategy;
using gpo::por::StubbornExplorer;
using gpo::por::StubbornOptions;

const char* strategy_name(SeedStrategy s) {
  switch (s) {
    case SeedStrategy::kBestOverSeeds: return "best";
    case SeedStrategy::kFirstEnabled: return "first";
    default: return "anticipation";
  }
}

gpo::petri::PetriNet model_for(int id, int n) {
  switch (id) {
    case 0: return gpo::models::make_nsdp(n);
    case 1: return gpo::models::make_arbiter_tree(n);
    case 2: return gpo::models::make_overtake(n);
    default: return gpo::models::make_readers_writers(n);
  }
}

const char* model_name(int id) {
  switch (id) {
    case 0: return "nsdp";
    case 1: return "asat";
    case 2: return "over";
    default: return "rw";
  }
}

void BM_Stubborn(benchmark::State& state) {
  auto strategy = static_cast<SeedStrategy>(state.range(0));
  auto net = model_for(static_cast<int>(state.range(1)),
                       static_cast<int>(state.range(2)));
  StubbornOptions opt;
  opt.strategy = strategy;
  opt.max_seconds = 30;
  for (auto _ : state) {
    auto r = StubbornExplorer(net, opt).explore();
    benchmark::DoNotOptimize(r.state_count);
    state.counters["states"] = static_cast<double>(r.state_count);
  }
  state.SetLabel(std::string(model_name(static_cast<int>(state.range(1)))) +
                 "(" + std::to_string(state.range(2)) + ")/" +
                 strategy_name(strategy));
}

const char* const kSearchModels[] = {"cyclic:12", "nsdp:8", "ring:6"};

void BM_ExplicitSearch(benchmark::State& state) {
  const bool por = state.range(0) != 0;
  const char* spec = kSearchModels[state.range(1)];
  auto net = *gpo::models::make_by_spec(spec);
  std::size_t states = 0;
  for (auto _ : state) {
    gpo::reach::ExplorerResult r =
        por ? StubbornExplorer(net).explore()
            : gpo::reach::ExplicitExplorer(net).explore();
    benchmark::DoNotOptimize(r.state_count);
    states = r.state_count;
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_s"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(spec) + (por ? "/por-best" : "/full"));
}

void register_all() {
  for (int model = 0; model < 3; ++model)
    for (int por : {0, 1})
      benchmark::RegisterBenchmark("BM_ExplicitSearch", BM_ExplicitSearch)
          ->Args({por, model})
          ->Unit(benchmark::kMillisecond);
  for (int strategy : {0, 1, 2}) {
    for (auto [model, size] : std::initializer_list<std::pair<int, int>>{
             {0, 6}, {1, 4}, {2, 5}, {3, 9}}) {
      benchmark::RegisterBenchmark("BM_Stubborn", BM_Stubborn)
          ->Args({strategy, model, size})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
