#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace gpo::bdd {

BddManager::BddManager(Var num_vars, std::size_t node_limit,
                       std::size_t cache_entries)
    : table_(num_vars, node_limit, "BDD"), cache_(cache_entries) {}

Ref BddManager::make_node(Var var, Ref low, Ref high) {
  if (low == high) return low;  // redundant-test elimination
  return table_.insert(var, low, high);
}

Ref BddManager::var(Var v) { return make_node(v, kFalse, kTrue); }
Ref BddManager::nvar(Var v) { return make_node(v, kTrue, kFalse); }

Ref BddManager::apply_rec(Op op, Ref f, Ref g) {
  // Terminal cases; anything left has a non-terminal operand to split on.
  switch (op) {
    case kOpAnd:
      if (f == kFalse || g == kFalse) return kFalse;
      if (f == kTrue || f == g) return g;
      if (g == kTrue) return f;
      break;
    case kOpOr:
      if (f == kTrue || g == kTrue) return kTrue;
      if (f == kFalse || f == g) return g;
      if (g == kFalse) return f;
      break;
    default:  // kOpDiff
      if (f == kFalse || g == kTrue || f == g) return kFalse;
      if (g == kFalse) return f;
      break;
  }
  if (op != kOpDiff && f > g) std::swap(f, g);  // ∧ and ∨ commute

  Ref out;
  if (cache_.lookup(op, f, g, 0, out)) return out;

  // Copy: recursion below may grow the node arena and invalidate references.
  const dd::Node nf = node(f);
  const dd::Node ng = node(g);
  const Var top = std::min(nf.var, ng.var);
  Ref lo =
      apply_rec(op, nf.var == top ? nf.low : f, ng.var == top ? ng.low : g);
  Ref hi =
      apply_rec(op, nf.var == top ? nf.high : f, ng.var == top ? ng.high : g);
  Ref result = make_node(top, lo, hi);
  cache_.store(op, f, g, 0, result);
  return result;
}

Ref BddManager::ite(Ref f, Ref g, Ref h) { return ite_rec(f, g, h); }

Ref BddManager::ite_rec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  Ref out;
  if (cache_.lookup(kOpIte, f, g, h, out)) return out;

  Var top = node(f).var;
  top = std::min(top, node(g).var);
  top = std::min(top, node(h).var);

  auto cof = [&](Ref x, bool hi) -> Ref {
    if (node(x).var != top) return x;
    return hi ? node(x).high : node(x).low;
  };

  Ref lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  Ref hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  Ref result = make_node(top, lo, hi);
  cache_.store(kOpIte, f, g, h, result);
  return result;
}

Ref BddManager::cube(const std::vector<Var>& vars) {
  std::vector<Var> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  Ref c = kTrue;
  for (Var v : sorted) c = make_node(v, kFalse, c);
  return c;
}

Ref BddManager::exists(Ref f, Ref cube) {
  return exists_rec(f, cube, /*universal=*/false);
}

Ref BddManager::forall(Ref f, Ref cube) {
  return exists_rec(f, cube, /*universal=*/true);
}

Ref BddManager::exists_rec(Ref f, Ref cube, bool universal) {
  if (is_terminal(f)) return f;
  // Skip quantified variables above f's top level: they don't constrain f.
  while (!is_terminal(cube) && node(cube).var < node(f).var)
    cube = node(cube).high;
  if (cube == kTrue) return f;

  const Ref flag = universal ? 1 : 0;
  Ref out;
  if (cache_.lookup(kOpExists, f, cube, flag, out)) return out;

  // Copy: recursion below may grow the node arena and invalidate references.
  const dd::Node n = node(f);
  Ref result;
  if (n.var == node(cube).var) {
    Ref lo = exists_rec(n.low, node(cube).high, universal);
    Ref hi = exists_rec(n.high, node(cube).high, universal);
    result = universal ? apply_and(lo, hi) : apply_or(lo, hi);
  } else {
    Ref lo = exists_rec(n.low, cube, universal);
    Ref hi = exists_rec(n.high, cube, universal);
    result = make_node(n.var, lo, hi);
  }
  cache_.store(kOpExists, f, cube, flag, result);
  return result;
}

Ref BddManager::and_exists(Ref f, Ref g, Ref cube) {
  return and_exists_rec(f, g, cube);
}

Ref BddManager::and_exists_rec(Ref f, Ref g, Ref cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (cube == kTrue) return apply_and(f, g);
  if (f == kTrue && g == kTrue) return kTrue;
  if (f > g) std::swap(f, g);  // ∧ is commutative

  Ref out;
  if (cache_.lookup(kOpAndExists, f, g, cube, out)) return out;
  const Ref key_cube = cube;

  Var top = std::min(node(f).var, node(g).var);
  // Quantified variables above both supports contribute nothing.
  while (!is_terminal(cube) && node(cube).var < top)
    cube = node(cube).high;

  auto cof = [&](Ref x, bool hi) -> Ref {
    if (node(x).var != top) return x;
    return hi ? node(x).high : node(x).low;
  };

  Ref result;
  if (cube == kTrue) {
    result = apply_and(f, g);
  } else if (node(cube).var == top) {
    Ref inner = node(cube).high;
    Ref lo = and_exists_rec(cof(f, false), cof(g, false), inner);
    if (lo == kTrue) {
      result = kTrue;  // short-circuit: ∨ with anything is true
    } else {
      Ref hi = and_exists_rec(cof(f, true), cof(g, true), inner);
      result = apply_or(lo, hi);
    }
  } else {
    Ref lo = and_exists_rec(cof(f, false), cof(g, false), cube);
    Ref hi = and_exists_rec(cof(f, true), cof(g, true), cube);
    result = make_node(top, lo, hi);
  }
  cache_.store(kOpAndExists, f, g, key_cube, result);
  return result;
}

UpdateId BddManager::add_update(std::vector<VarUpdate> updates) {
  std::sort(updates.begin(), updates.end(),
            [](const VarUpdate& a, const VarUpdate& b) {
              return a.var < b.var;
            });
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (updates[i].var >= num_vars())
      throw std::invalid_argument(
          "BddManager::add_update: variable out of range");
    if (i > 0 && updates[i - 1].var == updates[i].var)
      throw std::invalid_argument(
          "BddManager::add_update: repeated variable");
  }
  const auto id = static_cast<UpdateId>(updates_.size());
  updates_.insert(updates_.end(), updates.begin(), updates.end());
  updates_.push_back({num_vars(), false, false});
  return id;
}

Ref BddManager::fire_rec(Ref f, UpdateId i) {
  if (f == kFalse) return kFalse;
  const VarUpdate u = updates_[i];
  if (u.var == num_vars()) return f;  // every update applied

  Ref out;
  if (cache_.lookup(kOpFire, f, i, 0, out)) return out;

  // Copy: recursion below may grow the node arena and invalidate references.
  const dd::Node n = node(f);
  Ref result;
  if (n.var < u.var) {
    // A level the update does not touch passes through.
    Ref lo = fire_rec(n.low, i);
    Ref hi = fire_rec(n.high, i);
    result = make_node(n.var, lo, hi);
  } else {
    // f's cofactors on u.var (both f itself if f does not test it).
    const Ref f0 = n.var == u.var ? n.low : f;
    const Ref f1 = n.var == u.var ? n.high : f;
    // Untested: the OR of both cofactors' images. Firing each cofactor
    // before the OR keeps the intermediate functions smaller than firing
    // their OR (about half the peak nodes on the Table-1 models).
    Ref rest;
    if (u.test || f0 == f1)
      rest = fire_rec(u.test ? f1 : f0, i + 1);
    else
      rest = apply_or(fire_rec(f0, i + 1), fire_rec(f1, i + 1));
    result = u.value ? make_node(u.var, kFalse, rest)
                     : make_node(u.var, rest, kFalse);
  }
  cache_.store(kOpFire, f, i, 0, result);
  return result;
}

Ref BddManager::restrict_var(Ref f, Var v, bool value) {
  if (is_terminal(f) || node(f).var > v) return f;
  if (node(f).var == v) return value ? node(f).high : node(f).low;
  // f's top var is above v: rebuild.
  std::unordered_map<Ref, Ref> cache;
  std::function<Ref(Ref)> rec = [&](Ref x) -> Ref {
    if (is_terminal(x) || node(x).var > v) return x;
    if (node(x).var == v) return value ? node(x).high : node(x).low;
    if (auto it = cache.find(x); it != cache.end()) return it->second;
    // Copy: the recursive calls below may grow the arena.
    const dd::Node n = node(x);
    Ref r = make_node(n.var, rec(n.low), rec(n.high));
    cache.emplace(x, r);
    return r;
  };
  return rec(f);
}

double BddManager::sat_count(Ref f, const std::vector<Var>& counted_vars) {
  std::vector<Var> sorted = counted_vars;
  std::sort(sorted.begin(), sorted.end());
  const Var nv = num_vars();
  // position[v] = index of v in the counted list; num_vars sentinel if absent.
  std::vector<std::uint32_t> position(nv + 1, static_cast<std::uint32_t>(-1));
  for (std::size_t i = 0; i < sorted.size(); ++i) position[sorted[i]] = i;
  position[nv] = static_cast<std::uint32_t>(sorted.size());

  for (Var v : support(f))
    if (position[v] == static_cast<std::uint32_t>(-1))
      throw std::invalid_argument(
          "sat_count: support not contained in counted variables");

  std::unordered_map<Ref, double> cache;
  std::function<double(Ref)> rec = [&](Ref x) -> double {
    if (x == kFalse) return 0.0;
    if (x == kTrue) return 1.0;
    if (auto it = cache.find(x); it != cache.end()) return it->second;
    const dd::Node& n = node(x);
    auto weight = [&](Ref child) {
      // Levels skipped between x and child double the count each.
      std::uint32_t from = position[n.var] + 1;
      std::uint32_t to = position[node(child).var];
      return rec(child) * std::pow(2.0, static_cast<double>(to - from));
    };
    double r = weight(n.low) + weight(n.high);
    cache.emplace(x, r);
    return r;
  };
  double top_skip = static_cast<double>(position[node(f).var]);
  return rec(f) * std::pow(2.0, top_skip);
}

util::Bitset BddManager::pick_one_sat(Ref f) {
  if (f == kFalse)
    throw std::invalid_argument("pick_one_sat: function is false");
  util::Bitset assignment(num_vars());
  Ref cur = f;
  while (!is_terminal(cur)) {
    const dd::Node& n = node(cur);
    if (n.low != kFalse) {
      cur = n.low;
    } else {
      assignment.set(n.var);
      cur = n.high;
    }
  }
  return assignment;
}

bool BddManager::enumerate_sats(
    Ref f, const std::vector<Var>& universe_vars, std::size_t max_count,
    const std::function<void(const util::Bitset&)>& visit) {
  std::vector<Var> sorted = universe_vars;
  std::sort(sorted.begin(), sorted.end());
  for (Var v : support(f))
    if (!std::binary_search(sorted.begin(), sorted.end(), v))
      throw std::invalid_argument(
          "enumerate_sats: support not contained in universe");

  std::size_t emitted = 0;
  util::Bitset assignment(num_vars());
  // Depth-first over the universe variables, expanding don't-cares.
  std::function<bool(Ref, std::size_t)> rec = [&](Ref x,
                                                  std::size_t depth) -> bool {
    if (x == kFalse) return true;
    if (depth == sorted.size()) {
      if (emitted++ >= max_count) return false;
      visit(assignment);
      return true;
    }
    Var v = sorted[depth];
    Ref lo = x, hi = x;
    if (!is_terminal(x) && node(x).var == v) {
      lo = node(x).low;
      hi = node(x).high;
    }
    assignment.reset(v);
    if (!rec(lo, depth + 1)) return false;
    assignment.set(v);
    if (!rec(hi, depth + 1)) return false;
    assignment.reset(v);
    return true;
  };
  return rec(f, 0);
}

std::vector<Var> BddManager::support(Ref f) const {
  std::vector<bool> seen(table_.size(), false);
  std::vector<bool> in_support(num_vars(), false);
  std::vector<Ref> stack{f};
  while (!stack.empty()) {
    Ref x = stack.back();
    stack.pop_back();
    if (is_terminal(x) || seen[x]) continue;
    seen[x] = true;
    in_support[node(x).var] = true;
    stack.push_back(node(x).low);
    stack.push_back(node(x).high);
  }
  std::vector<Var> out;
  for (Var v = 0; v < num_vars(); ++v)
    if (in_support[v]) out.push_back(v);
  return out;
}

std::size_t BddManager::node_count(Ref f) const {
  std::vector<bool> seen(table_.size(), false);
  std::vector<Ref> stack{f};
  std::size_t count = 0;
  bool saw_false = false, saw_true = false;
  while (!stack.empty()) {
    Ref x = stack.back();
    stack.pop_back();
    if (x == kFalse) {
      saw_false = true;
      continue;
    }
    if (x == kTrue) {
      saw_true = true;
      continue;
    }
    if (seen[x]) continue;
    seen[x] = true;
    ++count;
    stack.push_back(node(x).low);
    stack.push_back(node(x).high);
  }
  return count + (saw_false ? 1 : 0) + (saw_true ? 1 : 0);
}

BddStats BddManager::stats() const {
  BddStats s;
  s.nodes = table_.size();
  s.unique_slots = table_.slot_count();
  s.memory_bytes = table_.memory_bytes() + cache_.memory_bytes();
  for (std::size_t op = 0; op < BddStats::kOpCount; ++op) {
    s.op_hits[op] = cache_.op_hits(static_cast<std::uint8_t>(op));
    s.op_misses[op] = cache_.op_misses(static_cast<std::uint8_t>(op));
  }
  return s;
}

}  // namespace gpo::bdd
