// A from-scratch reduced ordered binary decision diagram (ROBDD) package
// [Bryant 1986], built as the substrate for the symbolic-model-checking
// baseline (the paper compares against SMV) and as the second representation
// of GPN set families (src/core/set_family.hpp).
//
// Design notes:
//  * Nodes live in one arena and are hash-consed through a unique table
//    (dd::NodeTable, the kernel shared with the zero-suppressed package in
//    zdd.hpp), so two equivalent functions always have the same Ref —
//    equality is O(1). The BDD-specific reduction rule (redundant-test
//    elimination: low == high ⇒ low) is applied here in make_node; the
//    shared table is a pure structural interner.
//  * No complement edges: negation is a cached O(|f|) traversal. This keeps
//    the invariants simple; the verification workloads here are bounded by
//    variable ordering, not by the constant factor complement edges buy.
//  * No garbage collection: nodes are never freed, and total_nodes() is by
//    construction the peak live size — exactly the "Peak BDD-size" statistic
//    Table 1 reports for SMV. A configurable node limit turns pathological
//    orderings into a clean BddLimitExceeded instead of memory exhaustion.
//  * Every memoized operation (and/or/diff, ite, the quantifiers,
//    and_exists, fire) shares one bounded direct-mapped computed table
//    (the kernel's, with three key operands; 64K entries by default), so
//    memo memory is fixed however long a fixpoint runs; an overwritten
//    entry is recomputed.
//  * fire() is the image step of the symbolic reachability engine: a local
//    update that tests and sets a few variables and passes every other level
//    through, over the same variables (no next-state copies, no relation
//    BDDs, no rename).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/dd_kernel.hpp"
#include "util/bitset.hpp"

namespace gpo::bdd {

using Var = dd::Var;
/// Index of a node in the manager arena. Refs are stable for the lifetime of
/// the manager and canonical: equal Refs <=> equal Boolean functions.
using Ref = dd::Ref;

inline constexpr Ref kFalse = dd::kTerminal0;
inline constexpr Ref kTrue = dd::kTerminal1;

/// Thrown when an operation would grow the arena past the node limit.
using BddLimitExceeded = dd::DdLimitExceeded;

/// One variable of a local update (see BddManager::fire): with `test` the
/// variable must be 1 before the update; afterwards it is `value`.
struct VarUpdate {
  Var var;
  bool test;
  bool value;
};

/// Handle of an update registered with BddManager::add_update.
using UpdateId = std::uint32_t;

/// Counters for the telemetry layer (bdd.* gauges of the run report).
struct BddStats {
  /// Op kinds in the per-op cache breakdown (index == BddManager's Op enum).
  static constexpr std::size_t kOpCount = 7;
  /// Registry-friendly op names, parallel to the per-op arrays. "exists"
  /// covers both quantifiers.
  static constexpr const char* kOpNames[kOpCount] = {
      "and", "or", "diff", "ite", "exists", "and_exists", "fire"};

  std::size_t nodes = 0;         ///< arena size == peak live nodes (no GC)
  std::size_t unique_slots = 0;  ///< unique-table slots
  std::size_t memory_bytes = 0;  ///< arena + unique table + computed table
  /// Computed-table hits and misses per op.
  std::array<std::size_t, kOpCount> op_hits{};
  std::array<std::size_t, kOpCount> op_misses{};
};

class BddManager {
 public:
  /// `num_vars` fixes the variable universe 0..num_vars-1 (variable index ==
  /// level: smaller index is closer to the root). `node_limit` bounds the
  /// arena size; `cache_entries` bounds the computed table (rounded up to a
  /// power of two; it starts at up to 1K entries and doubles toward the
  /// bound as it fills).
  explicit BddManager(Var num_vars,
                      std::size_t node_limit = std::size_t{1} << 23,
                      std::size_t cache_entries = std::size_t{1} << 16);

  [[nodiscard]] Var num_vars() const { return table_.num_vars(); }

  /// The function "variable v".
  [[nodiscard]] Ref var(Var v);
  /// The function "not variable v".
  [[nodiscard]] Ref nvar(Var v);

  [[nodiscard]] Ref ite(Ref f, Ref g, Ref h);
  [[nodiscard]] Ref apply_not(Ref f) { return apply_diff(kTrue, f); }
  [[nodiscard]] Ref apply_and(Ref f, Ref g) { return apply_rec(kOpAnd, f, g); }
  [[nodiscard]] Ref apply_or(Ref f, Ref g) { return apply_rec(kOpOr, f, g); }
  [[nodiscard]] Ref apply_xor(Ref f, Ref g) {
    return ite(f, apply_not(g), g);
  }
  /// f ∧ ¬g — set difference when functions encode families of sets.
  [[nodiscard]] Ref apply_diff(Ref f, Ref g) {
    return apply_rec(kOpDiff, f, g);
  }
  [[nodiscard]] Ref apply_imp(Ref f, Ref g) { return ite(f, g, kTrue); }
  [[nodiscard]] Ref apply_iff(Ref f, Ref g) { return ite(f, g, apply_not(g)); }

  /// Conjunction of the listed (positive) variables; the canonical cube
  /// representation used by the quantifiers below.
  [[nodiscard]] Ref cube(const std::vector<Var>& vars);

  /// ∃ vars(cube) . f
  [[nodiscard]] Ref exists(Ref f, Ref cube);
  /// ∀ vars(cube) . f
  [[nodiscard]] Ref forall(Ref f, Ref cube);
  /// ∃ vars(cube) . (f ∧ g) — the relational-product workhorse of image
  /// computation, without building f ∧ g in full.
  [[nodiscard]] Ref and_exists(Ref f, Ref g, Ref cube);

  /// Registers a local update over distinct variables (any order) and
  /// returns its handle for fire(). Updates live as long as the manager.
  [[nodiscard]] UpdateId add_update(std::vector<VarUpdate> updates);

  /// Image of f under update u: every assignment of f that has each tested
  /// variable at 1, with each updated variable set to its new value. One
  /// memoized pass over f: at an updated level it continues on the high
  /// cofactor (tested) or on both cofactors, ORing their images (untested),
  /// and rebuilds the node with the new value; every other level passes
  /// through unchanged. For a 1-safe Petri net transition this is the
  /// successor set of f.
  [[nodiscard]] Ref fire(Ref f, UpdateId u) { return fire_rec(f, u); }

  /// Cofactor: f with variable v fixed to `value`.
  [[nodiscard]] Ref restrict_var(Ref f, Var v, bool value);

  /// Number of assignments to `counted_vars` satisfying f. Requires
  /// support(f) ⊆ counted_vars (checked). Exact while the count fits a
  /// double's 53-bit mantissa; beyond that it is a faithful rounding.
  [[nodiscard]] double sat_count(Ref f, const std::vector<Var>& counted_vars);

  /// One satisfying assignment as a bitset over all variables (don't-care
  /// variables are reported as 0). Precondition: f != kFalse.
  [[nodiscard]] util::Bitset pick_one_sat(Ref f);

  /// Enumerates satisfying assignments over `universe_vars` (don't-cares
  /// expanded), invoking `visit` for each; stops early after `max_count`.
  /// Returns false if truncated. Requires support(f) ⊆ universe_vars.
  bool enumerate_sats(Ref f, const std::vector<Var>& universe_vars,
                      std::size_t max_count,
                      const std::function<void(const util::Bitset&)>& visit);

  /// Variables f depends on.
  [[nodiscard]] std::vector<Var> support(Ref f) const;

  /// Number of distinct nodes in f (including terminals).
  [[nodiscard]] std::size_t node_count(Ref f) const;

  /// Arena size == peak live nodes (no GC), the Table-1 "peak BDD" metric.
  [[nodiscard]] std::size_t total_nodes() const { return table_.size(); }

  [[nodiscard]] BddStats stats() const;

  [[nodiscard]] Var var_of(Ref f) const { return table_.node(f).var; }
  [[nodiscard]] Ref low_of(Ref f) const { return table_.node(f).low; }
  [[nodiscard]] Ref high_of(Ref f) const { return table_.node(f).high; }
  [[nodiscard]] bool is_terminal(Ref f) const { return f <= kTrue; }

 private:
  /// Computed-table op codes (index into BddStats::kOpNames).
  enum Op : std::uint8_t {
    kOpAnd = 0,
    kOpOr = 1,
    kOpDiff = 2,
    kOpIte = 3,
    kOpExists = 4,  // third key operand: 1 for forall, 0 for exists
    kOpAndExists = 5,
    kOpFire = 6,
  };

  [[nodiscard]] const dd::Node& node(Ref r) const { return table_.node(r); }

  Ref make_node(Var var, Ref low, Ref high);

  Ref apply_rec(Op op, Ref f, Ref g);
  Ref ite_rec(Ref f, Ref g, Ref h);
  Ref exists_rec(Ref f, Ref cube, bool universal);
  Ref and_exists_rec(Ref f, Ref g, Ref cube);
  /// `i` indexes updates_: the suffix of one update still to apply.
  Ref fire_rec(Ref f, UpdateId i);

  dd::NodeTable table_;
  dd::BasicComputedCache<3> cache_;
  /// Every registered update, flattened and each closed by an entry whose
  /// var is num_vars(); a suffix index is a fire() memo key.
  std::vector<VarUpdate> updates_;
};

}  // namespace gpo::bdd
