// Ablation for DESIGN.md decision 2: the explicit (sorted-vector) set-family
// oracle versus the ZDD store of the `gpo` engine, on the full GPO analysis
// and on the construction of the initial valid-set family r0 alone. The
// explicit family enumerates every maximal conflict-free set (exponential
// in the number of choice points), the ZDD builds r0 as a product of
// per-component factors — the measurements below show where the crossover
// sits.
#include <benchmark/benchmark.h>

#include "core/gpo.hpp"
#include "core/set_family.hpp"
#include "core/zdd_family.hpp"
#include "models/models.hpp"
#include "petri/conflict.hpp"

namespace {

using gpo::petri::PetriNet;

PetriNet model_for(int id, int n) {
  switch (id) {
    case 0: return gpo::models::make_nsdp(n);
    case 1: return gpo::models::make_readers_writers(n);
    case 2: return gpo::models::make_conflict_chain(n);
    default: return gpo::models::make_arbiter_tree(n);
  }
}

const char* model_name(int id) {
  switch (id) {
    case 0: return "nsdp";
    case 1: return "rw";
    case 2: return "chain";
    default: return "asat";
  }
}

void BM_GpoAnalysis(benchmark::State& state) {
  const bool use_zdd = state.range(0) == 1;
  PetriNet net = model_for(static_cast<int>(state.range(1)),
                           static_cast<int>(state.range(2)));
  gpo::core::GpoOptions opt;
  opt.max_seconds = 30;
  for (auto _ : state) {
    auto r = use_zdd ? gpo::core::run_gpo(net, opt)
                     : gpo::core::run_gpo_explicit(net, opt);
    benchmark::DoNotOptimize(r.state_count);
    state.counters["gpn_states"] = static_cast<double>(r.state_count);
  }
  state.SetLabel(std::string(model_name(static_cast<int>(state.range(1)))) +
                 "(" + std::to_string(state.range(2)) + ")/" +
                 (use_zdd ? "zdd" : "explicit"));
}

// family store {0 explicit, 1 zdd} x model x size
BENCHMARK(BM_GpoAnalysis)
    ->Args({0, 0, 2})->Args({1, 0, 2})    // NSDP(2)
    ->Args({0, 0, 4})->Args({1, 0, 4})    // NSDP(4)
    ->Args({0, 0, 6})->Args({1, 0, 6})    // NSDP(6)
    ->Args({1, 0, 10})                    // NSDP(10): explicit r0 infeasible
    ->Args({0, 1, 6})->Args({1, 1, 6})    // RW(6)
    ->Args({0, 1, 12})->Args({1, 1, 12})  // RW(12)
    ->Args({0, 2, 8})->Args({1, 2, 8})    // chain(8)
    ->Args({1, 2, 20})                    // chain(20): 2^20 explicit sets
    ->Args({0, 3, 4})->Args({1, 3, 4})    // ASAT(4)
    ->Unit(benchmark::kMillisecond);

void BM_InitialValidSets(benchmark::State& state) {
  const bool use_zdd = state.range(0) == 1;
  PetriNet net = gpo::models::make_conflict_chain(
      static_cast<std::size_t>(state.range(1)));
  gpo::petri::ConflictInfo ci(net);
  for (auto _ : state) {
    if (use_zdd) {
      gpo::core::ZddFamily::Context ctx(net.transition_count());
      auto r0 = ctx.initial_valid_sets(ci);
      benchmark::DoNotOptimize(r0.count());
    } else {
      gpo::core::ExplicitFamily::Context ctx(net.transition_count());
      auto r0 = ctx.initial_valid_sets(ci);
      benchmark::DoNotOptimize(r0.count());
    }
  }
  state.SetLabel(std::string("chain(") + std::to_string(state.range(1)) +
                 ")/" + (use_zdd ? "zdd" : "explicit"));
}

BENCHMARK(BM_InitialValidSets)
    ->Args({0, 8})->Args({1, 8})
    ->Args({0, 12})->Args({1, 12})
    ->Args({0, 16})->Args({1, 16})
    ->Args({1, 64})->Args({1, 256})  // explicit is hopeless past ~20
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
