#include "bdd/symbolic_reach.hpp"

#include <deque>
#include <utility>

#include "util/stopwatch.hpp"

namespace gpo::bdd {

using petri::PlaceId;
using petri::TransitionId;

std::vector<PlaceId> compute_place_order(const petri::PetriNet& net,
                                         VariableOrder order) {
  const std::size_t np = net.place_count();
  std::vector<PlaceId> out;
  out.reserve(np);
  if (order == VariableOrder::kDeclaration) {
    for (PlaceId p = 0; p < np; ++p) out.push_back(p);
    return out;
  }

  // BFS over places: p is adjacent to q when some transition connects them.
  std::vector<bool> visited(np, false);
  std::deque<PlaceId> queue;
  auto push = [&](PlaceId p) {
    if (!visited[p]) {
      visited[p] = true;
      queue.push_back(p);
    }
  };
  for (std::size_t p = net.initial_marking().find_first(); p < np;
       p = net.initial_marking().find_next(p + 1))
    push(static_cast<PlaceId>(p));
  for (PlaceId p = 0; p < np; ++p) push(p);  // cover disconnected parts

  while (!queue.empty()) {
    PlaceId p = queue.front();
    queue.pop_front();
    out.push_back(p);
    for (TransitionId t : net.place(p).post)
      for (PlaceId q : net.transition(t).post) push(q);
    for (TransitionId t : net.place(p).pre)
      for (PlaceId q : net.transition(t).pre) push(q);
  }
  return out;
}

SymbolicReachability::SymbolicReachability(const petri::PetriNet& net,
                                           SymbolicOptions options)
    : net_(net), options_(std::move(options)) {
  order_ = compute_place_order(net, options_.order);
  position_.assign(net.place_count(), 0);
  for (std::uint32_t i = 0; i < order_.size(); ++i) position_[order_[i]] = i;
  manager_.emplace(static_cast<Var>(net.place_count()), options_.node_limit);
}

SymbolicResult SymbolicReachability::analyze() {
  SymbolicResult result;
  util::Stopwatch timer;
  BddManager& mgr = *manager_;
  const std::size_t np = net_.place_count();
  const std::size_t nt = net_.transition_count();

  // The poll between two transition images: a chaining sweep covers the
  // whole reached set, so polling once per sweep would let a cancelled or
  // timed-out run finish a long sweep first.
  auto must_stop = [&](std::size_t sweep, TransitionId t) {
    if (options_.before_image) options_.before_image(sweep, t);
    if (timer.elapsed_seconds() > options_.max_seconds)
      result.blowup_reason = "time limit";
    else if (util::cancel_requested(options_.cancel))
      result.blowup_reason = "cancelled";
    else
      return false;
    result.blowup = true;
    return true;
  };

  try {
    Ref reached = kTrue;
    {
      obs::Span span(options_.tracer, "symbolic-fixpoint");
      // Initial state: the full assignment of the initial marking.
      for (PlaceId p = 0; p < np; ++p) {
        Ref lit = net_.initial_marking().test(p) ? mgr.var(var_of(p))
                                                 : mgr.nvar(var_of(p));
        reached = mgr.apply_and(reached, lit);
      }

      // Each transition as a local update: a pre-place is tested and stays
      // marked iff it is also a post-place; a post-only place becomes
      // marked whatever it held.
      std::vector<UpdateId> update(nt);
      for (TransitionId t = 0; t < nt; ++t) {
        const auto& tr = net_.transition(t);
        std::vector<VarUpdate> u;
        for (PlaceId p : tr.pre)
          u.push_back({var_of(p), true, tr.post_bits.test(p)});
        for (PlaceId p : tr.post)
          if (!tr.pre_bits.test(p)) u.push_back({var_of(p), false, true});
        update[t] = mgr.add_update(std::move(u));
      }

      for (bool grew = true; grew && !result.blowup;) {
        ++result.iterations;
        const Ref before = reached;
        for (TransitionId t = 0; t < nt; ++t) {
          if (must_stop(result.iterations, t)) break;
          reached = mgr.apply_or(reached, mgr.fire(reached, update[t]));
        }
        grew = reached != before;
      }
    }
    result.peak_nodes = mgr.total_nodes();

    if (!result.blowup) {
      obs::Span span(options_.tracer, "deadlock-check");
      std::vector<Var> all_vars(np);
      for (Var v = 0; v < np; ++v) all_vars[v] = v;
      result.state_count = mgr.sat_count(reached, all_vars);

      // Deadlock: a reachable state where no transition is enabled. Taking
      // each enabling cube out of the reached set in turn keeps every
      // intermediate a subset of it; the disjunction of all enabling cubes
      // can be far larger than the reached set.
      Ref dead = reached;
      for (TransitionId t = 0; t < nt && dead != kFalse; ++t) {
        Ref en = kTrue;
        for (PlaceId p : net_.transition(t).pre)
          en = mgr.apply_and(en, mgr.var(var_of(p)));
        dead = mgr.apply_diff(dead, en);
      }
      if (options_.required_deadlock_place)
        dead = mgr.apply_and(
            dead, mgr.var(var_of(*options_.required_deadlock_place)));
      result.peak_nodes = mgr.total_nodes();
      if (dead != kFalse) {
        result.deadlock_found = true;
        util::Bitset assignment = mgr.pick_one_sat(dead);
        petri::Marking witness(np);
        for (PlaceId p = 0; p < np; ++p)
          if (assignment.test(var_of(p))) witness.set(p);
        result.deadlock_witness = witness;
      }
    }
  } catch (const BddLimitExceeded& e) {
    result.blowup = true;
    result.blowup_reason = e.what();
    result.peak_nodes = mgr.total_nodes();
  }
  result.seconds = timer.elapsed_seconds();
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    const std::string& p = options_.metrics_prefix;
    const BddStats stats = mgr.stats();
    reg.counter(p + "iterations").store(result.iterations);
    reg.counter(p + "states")
        .store(static_cast<std::uint64_t>(result.state_count));
    reg.gauge(p + "peak_nodes").set(static_cast<double>(result.peak_nodes));
    // The terminals live in the arena but not in the unique table.
    reg.gauge(p + "unique_table_load")
        .set(static_cast<double>(stats.nodes - 2) /
             static_cast<double>(stats.unique_slots));
    for (std::size_t op = 0; op < BddStats::kOpCount; ++op) {
      // The engine looks up four of the seven ops; the rest would read 0.
      if (stats.op_hits[op] + stats.op_misses[op] == 0) continue;
      const std::string name = p + "cache." + BddStats::kOpNames[op];
      reg.counter(name + ".hits").store(stats.op_hits[op]);
      reg.counter(name + ".misses").store(stats.op_misses[op]);
    }
    reg.timer(p + "seconds")
        .record_ns(static_cast<std::uint64_t>(result.seconds * 1e9));
    reg.gauge("mem." + p + "node_bytes")
        .set(static_cast<double>(stats.memory_bytes));
  }
  return result;
}

}  // namespace gpo::bdd
