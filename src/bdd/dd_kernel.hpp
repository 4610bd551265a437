// Shared decision-diagram kernel: the representation-independent substrate
// under both the ROBDD package (bdd.hpp) and the zero-suppressed package
// (zdd.hpp).
//
// What is shared and what is not:
//   * NodeTable — the arena + unique table ("hash consing"). Both diagram
//     kinds store (var, low, high) triples, never free nodes, and rely on
//     insert() returning one canonical Ref per structurally distinct triple.
//     The *reduction rule* is deliberately NOT here: BDDs drop redundant
//     tests (low == high ⇒ low), ZDDs drop positive-empty edges
//     (high == ∅ ⇒ low). Each manager applies its own rule in make_node
//     before asking the table for a Ref, so the table stays a pure
//     structural interner and canonicity remains the manager's invariant.
//     The unique table is open-addressed: a flat power-of-two array of
//     Refs probed linearly and compared against the arena, so a new node
//     costs no heap allocation of its own.
//   * ComputedCache — a bounded direct-mapped memo table for binary node
//     operations, the classical "computed table" of OBDD packages. A
//     colliding entry is overwritten (counted as an eviction), so memory is
//     bounded without eviction scans; recomputation after overwrite is
//     sound because ops are deterministic functions of canonical Refs. It
//     starts small and doubles up to its bound, so a short run does not pay
//     for a table sized for a long one.
//   * DdLimitExceeded — the clean out-of-budget escape both managers throw
//     instead of exhausting memory on a pathological variable order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/hash.hpp"

namespace gpo::dd {

using Var = std::uint32_t;
/// Index of a node in a NodeTable arena. Refs are stable for the lifetime of
/// the table and canonical under the owning manager's reduction rule:
/// equal Refs <=> equal functions/families.
using Ref = std::uint32_t;

/// The two terminal nodes every diagram kind seeds at fixed indices. Their
/// meaning is per-manager (BDD: false/true; ZDD: ∅ / {∅}).
inline constexpr Ref kTerminal0 = 0;
inline constexpr Ref kTerminal1 = 1;

inline constexpr Ref kInvalidRef = 0xFFFFFFFFu;

/// Thrown when an operation would grow a node arena past its limit.
class DdLimitExceeded : public std::runtime_error {
 public:
  DdLimitExceeded(const char* kind, std::size_t limit)
      : std::runtime_error(std::string(kind) + " node limit exceeded (" +
                           std::to_string(limit) + " nodes)"),
        limit_(limit) {}

  [[nodiscard]] std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_;
};

struct Node {
  Var var;  // == num_vars for the two terminals (below every real level)
  Ref low;
  Ref high;
};

/// Arena-allocated, hash-consed node store. Insert-only: nodes are never
/// freed, so size() is by construction the peak live size — the "peak
/// DD-size" statistic the benchmarks report — and a Ref stays valid forever.
class NodeTable {
 public:
  /// Unique-table slots a fresh table starts with (a power of two).
  static constexpr std::size_t kInitialSlots = 256;

  /// `kind` labels DdLimitExceeded messages ("BDD"/"ZDD"); it must outlive
  /// the table (string literals do).
  NodeTable(Var num_vars, std::size_t node_limit, const char* kind)
      : num_vars_(num_vars),
        node_limit_(node_limit),
        kind_(kind),
        slots_(kInitialSlots, kInvalidRef) {
    nodes_.push_back({num_vars_, kTerminal0, kTerminal0});
    nodes_.push_back({num_vars_, kTerminal1, kTerminal1});
  }

  /// The Ref of the unique node (var, low, high), allocating it on first
  /// sight. Pure structural interning: callers apply their reduction rule
  /// *before* calling (the table never inspects low/high semantics).
  Ref insert(Var var, Ref low, Ref high) {
    std::size_t i = slot_of(var, low, high);
    for (; slots_[i] != kInvalidRef; i = (i + 1) & (slots_.size() - 1)) {
      const Node& n = nodes_[slots_[i]];
      if (n.var == var && n.low == low && n.high == high) return slots_[i];
    }
    if (nodes_.size() >= node_limit_) throw DdLimitExceeded(kind_, node_limit_);
    Ref ref = static_cast<Ref>(nodes_.size());
    nodes_.push_back({var, low, high});
    slots_[i] = ref;
    // Load ½: the terminals live in the arena but not in the table.
    if (2 * (nodes_.size() - 2) > slots_.size()) rehash(2 * slots_.size());
    return ref;
  }

  /// The reference is invalidated by the next insert() (vector growth); copy
  /// the Node before recursing, as every manager's recursion does.
  [[nodiscard]] const Node& node(Ref r) const { return nodes_[r]; }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Var num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t node_limit() const { return node_limit_; }
  /// Unique-table slots (a power of two, at least twice the stored nodes).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Heap bytes of the arena + unique table, the backing of the "mem.*"
  /// gauges.
  [[nodiscard]] std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node) + slots_.capacity() * sizeof(Ref);
  }

 private:
  [[nodiscard]] std::size_t slot_of(Var var, Ref low, Ref high) const {
    return static_cast<std::size_t>(util::mix64(
               (std::uint64_t{var} << 40) ^ (std::uint64_t{low} << 20) ^
               high)) &
           (slots_.size() - 1);
  }

  /// Rebuilds the unique table at `slots` from the arena, which holds every
  /// node exactly once.
  void rehash(std::size_t slots) {
    slots_.assign(slots, kInvalidRef);
    for (Ref r = 2; r < nodes_.size(); ++r) {
      const Node& n = nodes_[r];
      std::size_t i = slot_of(n.var, n.low, n.high);
      while (slots_[i] != kInvalidRef) i = (i + 1) & (slots - 1);
      slots_[i] = r;
    }
  }

  Var num_vars_;
  std::size_t node_limit_;
  const char* kind_;
  std::vector<Node> nodes_;
  std::vector<Ref> slots_;  // Refs into nodes_; kInvalidRef marks a free slot
};

/// Bounded direct-mapped computed table for (op, f, g) -> result memoization.
/// The counters decompose the miss stream: `evictions` counts colliding
/// overwrites (capacity misses), so hit rate shortfalls can be attributed to
/// cache size vs. compulsory first-sight misses.
///
/// The table starts at kInitialEntries (or the bound, if smaller) and
/// doubles once half its slots are occupied, until it reaches the bound.
/// Doubling re-places every live entry: the slot of an entry in the larger
/// table agrees with its old slot in the low bits, so distinct old slots
/// never collide and growth loses nothing.
class ComputedCache {
 public:
  /// Slots a fresh cache starts with (a power of two).
  static constexpr std::size_t kInitialEntries = 1024;

  /// `max_entries` bounds the table (rounded up to a power of two).
  explicit ComputedCache(std::size_t max_entries) {
    while (max_entries_ < max_entries) max_entries_ <<= 1;
    slots_.resize(std::min(kInitialEntries, max_entries_));
  }

  [[nodiscard]] bool lookup(std::uint8_t op, Ref a, Ref b, Ref& out) {
    const Entry& e = slots_[index(op, a, b)];
    if (e.a == a && e.b == b && e.op == op) {
      ++hits_;
      ++op_hits_[op & (kOpKinds - 1)];
      out = e.result;
      return true;
    }
    ++misses_;
    ++op_misses_[op & (kOpKinds - 1)];
    return false;
  }

  void store(std::uint8_t op, Ref a, Ref b, Ref result) {
    Entry& e = slots_[index(op, a, b)];
    if (e.a == kInvalidRef)
      ++occupied_;
    else if (e.a != a || e.b != b || e.op != op)
      ++evictions_;
    e = {a, b, result, op};
    if (2 * occupied_ >= slots_.size() && slots_.size() < max_entries_) grow();
  }

  /// Distinct op kinds the per-op breakdown tracks; op codes are folded
  /// into this range (managers use small contiguous enums, so in practice
  /// the mapping is the identity).
  static constexpr std::size_t kOpKinds = 8;

  /// Current slots; never more than max_entries().
  [[nodiscard]] std::size_t entries() const { return slots_.size(); }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }
  /// Per-op-kind decomposition of the hit/miss streams (op folded mod
  /// kOpKinds); sums to hits()/misses().
  [[nodiscard]] std::size_t op_hits(std::uint8_t op) const {
    return op_hits_[op & (kOpKinds - 1)];
  }
  [[nodiscard]] std::size_t op_misses(std::uint8_t op) const {
    return op_misses_[op & (kOpKinds - 1)];
  }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }
  [[nodiscard]] std::size_t occupied() const { return occupied_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    Ref a = kInvalidRef;  // kInvalidRef marks a never-written slot
    Ref b = 0;
    Ref result = 0;
    std::uint8_t op = 0;
  };

  [[nodiscard]] std::size_t index(std::uint8_t op, Ref a, Ref b) const {
    return static_cast<std::size_t>(
               util::mix64((std::uint64_t{a} << 34) ^
                           (std::uint64_t{op} << 32) ^ std::uint64_t{b})) &
           (slots_.size() - 1);
  }

  /// Doubles the table, re-placing every live entry.
  void grow() {
    std::vector<Entry> old(2 * slots_.size());
    old.swap(slots_);
    for (const Entry& e : old)
      if (e.a != kInvalidRef) slots_[index(e.op, e.a, e.b)] = e;
  }

  std::size_t max_entries_ = 1;
  std::vector<Entry> slots_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t occupied_ = 0;
  std::array<std::size_t, kOpKinds> op_hits_{};
  std::array<std::size_t, kOpKinds> op_misses_{};
};

}  // namespace gpo::dd
