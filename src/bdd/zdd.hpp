// Zero-suppressed decision diagrams [Minato 1993] over a fixed variable
// universe, built on the shared kernel in dd_kernel.hpp.
//
// A ZDD node (v, low, high) denotes the family  low ∪ {S ∪ {v} | S ∈ high};
// the two terminals denote ∅ (kEmpty: no sets) and {∅} (kUnit: the family
// holding only the empty set). The zero-suppression rule — a node whose high
// edge is kEmpty is identified with its low child — together with
// hash-consing makes the representation canonical: two families are equal
// iff their Refs are equal. Unlike the BDD reduction rule, zero-suppression
// favors *sparse* sets: a variable absent from every member set costs no
// node at all, which is exactly the shape of GPN transition-set families
// (few transitions of the universe appear in any one scenario).
//
// The manager provides the family algebra the GPO engine needs — unite,
// intersect, subtract, containing(t) (the subset of members that include t)
// and the unordered product {S ∪ T} — as computed-table-memoized recursions
// over canonical Refs. Like the BDD package there is no garbage collection:
// total_nodes() is the peak live size, and the node limit turns blowups
// into a clean DdLimitExceeded.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "bdd/dd_kernel.hpp"
#include "util/bitset.hpp"

namespace gpo::zdd {

using Var = dd::Var;
/// Canonical family handle: equal Refs <=> equal families of sets.
using Ref = dd::Ref;

/// The empty family (no sets at all).
inline constexpr Ref kEmpty = dd::kTerminal0;
/// The family containing exactly the empty set.
inline constexpr Ref kUnit = dd::kTerminal1;

/// Thrown when an operation would grow the arena past the node limit.
using ZddLimitExceeded = dd::DdLimitExceeded;

/// Counters for the telemetry layer (zdd.* gauges of the run report).
struct ZddStats {
  /// Op kinds in the per-op cache breakdown (index == ZddManager's Op enum).
  static constexpr std::size_t kOpCount = 5;
  /// Registry-friendly op names, parallel to the per-op arrays.
  static constexpr const char* kOpNames[kOpCount] = {
      "unite", "intersect", "subtract", "containing", "product"};

  std::size_t nodes = 0;  ///< arena size == peak live nodes (no GC)
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_occupied = 0;
  std::size_t cache_entries = 0;  ///< current computed-table slots
  std::size_t memory_bytes = 0;  ///< arena + unique table + computed table
  /// Per-op decomposition of the hit/miss streams; sums to
  /// cache_hits/cache_misses.
  std::array<std::size_t, kOpCount> op_hits{};
  std::array<std::size_t, kOpCount> op_misses{};
};

class ZddManager {
 public:
  /// `num_vars` fixes the element universe 0..num_vars-1 (variable index ==
  /// level: smaller index closer to the root, matching the BDD convention).
  /// `cache_entries` bounds the direct-mapped computed table (rounded up to
  /// a power of two); the table starts at up to 1K entries and doubles
  /// toward the bound as it fills.
  explicit ZddManager(Var num_vars,
                      std::size_t node_limit = std::size_t{1} << 23,
                      std::size_t cache_entries = std::size_t{1} << 16)
      : table_(num_vars, node_limit, "ZDD"), cache_(cache_entries) {}

  [[nodiscard]] Var num_vars() const { return table_.num_vars(); }

  /// The canonical node for (v, low, high), applying zero-suppression
  /// (high == kEmpty ⇒ low). Precondition: every variable in low/high is
  /// strictly greater than v (callers maintain the order invariant).
  [[nodiscard]] Ref make_node(Var v, Ref low, Ref high) {
    if (high == kEmpty) return low;  // zero-suppression
    return table_.insert(v, low, high);
  }

  /// The family {set}.
  [[nodiscard]] Ref single(const util::Bitset& set);
  /// The family holding exactly the listed sets (duplicates collapse).
  [[nodiscard]] Ref from_sets(const std::vector<util::Bitset>& sets);

  /// f ∪ g.
  [[nodiscard]] Ref unite(Ref f, Ref g);
  /// f ∩ g.
  [[nodiscard]] Ref intersect(Ref f, Ref g);
  /// f \ g.
  [[nodiscard]] Ref subtract(Ref f, Ref g);
  /// {S ∈ f | t ∈ S} — the subsumption walk behind m_enabled.
  [[nodiscard]] Ref containing(Ref f, Var t);
  /// {S ∪ T | S ∈ f, T ∈ g} — the unordered product, used to compose the
  /// per-conflict-component factors of the initial valid-set family.
  [[nodiscard]] Ref product(Ref f, Ref g);

  /// Membership test for one explicit set; an O(|set| + depth) walk.
  [[nodiscard]] bool contains(Ref f, const util::Bitset& set) const;

  /// Number of member sets (memoized per call; saturates at SIZE_MAX).
  [[nodiscard]] std::size_t count(Ref f) const;

  /// Enumerates member sets as bitsets over the universe, invoking `visit`
  /// for each; stops after `max_count`. Returns false if truncated. The
  /// order is the diagram's DFS order (not ExplicitFamily's sorted order).
  bool enumerate(Ref f, std::size_t max_count,
                 const std::function<void(const util::Bitset&)>& visit) const;

  /// Number of distinct nodes in f (including terminals).
  [[nodiscard]] std::size_t node_count(Ref f) const;

  /// Arena size == peak live nodes (no GC).
  [[nodiscard]] std::size_t total_nodes() const { return table_.size(); }

  [[nodiscard]] ZddStats stats() const {
    ZddStats s;
    s.nodes = table_.size();
    s.cache_hits = cache_.hits();
    s.cache_misses = cache_.misses();
    s.cache_evictions = cache_.evictions();
    s.cache_occupied = cache_.occupied();
    s.cache_entries = cache_.entries();
    s.memory_bytes = table_.memory_bytes() + cache_.memory_bytes();
    for (std::size_t op = 0; op < ZddStats::kOpCount; ++op) {
      s.op_hits[op] = cache_.op_hits(static_cast<std::uint8_t>(op));
      s.op_misses[op] = cache_.op_misses(static_cast<std::uint8_t>(op));
    }
    return s;
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return table_.memory_bytes() + cache_.memory_bytes();
  }

  [[nodiscard]] Var var_of(Ref f) const { return table_.node(f).var; }
  [[nodiscard]] Ref low_of(Ref f) const { return table_.node(f).low; }
  [[nodiscard]] Ref high_of(Ref f) const { return table_.node(f).high; }
  [[nodiscard]] bool is_terminal(Ref f) const { return f <= kUnit; }

 private:
  enum Op : std::uint8_t {
    kOpUnite = 0,
    kOpIntersect = 1,
    kOpSubtract = 2,
    kOpContaining = 3,
    kOpProduct = 4,
  };

  [[nodiscard]] const dd::Node& node(Ref r) const { return table_.node(r); }

  Ref unite_rec(Ref f, Ref g);
  Ref intersect_rec(Ref f, Ref g);
  Ref subtract_rec(Ref f, Ref g);
  Ref containing_rec(Ref f, Var t);
  Ref product_rec(Ref f, Ref g);

  dd::NodeTable table_;
  mutable dd::ComputedCache cache_;
};

}  // namespace gpo::zdd
