// The visited-marking store of the sequential breadth-first searches
// (`full` and `por`): every marking is `word_count` 64-bit words in one
// arena, found again through an open-addressed, power-of-two table of
// uint32 state ids with linear probing. Ids are handed out in discovery
// order, so a BFS frontier is simply the id range [head, size()).
// Each id also records its (parent, via) breadcrumb for counterexample
// reconstruction. See DESIGN.md, "Sequential marking store".
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "petri/net.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"

namespace gpo::reach {

class MarkingStore {
 public:
  using Word = util::Bitset::Word;
  using StateId = std::uint32_t;
  /// The parent of a root; also marks an empty table slot.
  static constexpr StateId kNoId = UINT32_MAX;
  /// Most states a store can hold: every uint32 except kNoId. Callers keep
  /// under it (the search clamps its state limit, see bfs_core.hpp).
  static constexpr std::size_t kMaxStates = kNoId;

  explicit MarkingStore(std::size_t word_count)
      : words_(word_count), table_(kInitialSlots, Slot{kNoId, 0}) {}

  [[nodiscard]] std::size_t size() const { return crumbs_.size(); }

  /// The words of state `id`. Valid until the next intern() that adds a
  /// state (the arena may move).
  [[nodiscard]] const Word* marking(StateId id) const {
    return arena_.data() + static_cast<std::size_t>(id) * words_;
  }

  /// Looks marking `m` (`word_count` words) up and adds it, with
  /// breadcrumb (parent, via), when absent. Returns its id and whether it
  /// is new. The store must not be full (size() < kMaxStates).
  std::pair<StateId, bool> intern(const Word* m, StateId parent,
                                  petri::TransitionId via) {
    const std::uint32_t h = hash_words(m);
    std::size_t mask = table_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot slot = table_[i];
      if (slot.id == kNoId) break;
      if (slot.hash == h &&
          std::equal(m, m + words_, marking(slot.id)))
        return {slot.id, false};
    }
    assert(size() < kMaxStates);
    const auto id = static_cast<StateId>(size());
    arena_.insert(arena_.end(), m, m + words_);
    crumbs_.push_back({parent, via});
    // Keep the load at or under 1/2 while the table can still double; a
    // full-size table (2^32 slots) always keeps an empty slot, because
    // kMaxStates < 2^32.
    if (2 * size() > table_.size() && table_.size() < kMaxSlots) {
      grow();
      mask = table_.size() - 1;
    }
    std::size_t i = h & mask;
    while (table_[i].id != kNoId) i = (i + 1) & mask;
    table_[i] = Slot{id, h};
    return {id, true};
  }

  /// Transitions from the root that reached `id` to `id`.
  [[nodiscard]] std::vector<petri::TransitionId> trace_to(StateId id) const {
    std::vector<petri::TransitionId> seq;
    while (crumbs_[id].via != petri::kInvalidTransition) {
      seq.push_back(crumbs_[id].via);
      id = crumbs_[id].parent;
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  }

  /// Heap bytes held: arena, id table and breadcrumbs.
  [[nodiscard]] std::size_t memory_bytes() const {
    return arena_.capacity() * sizeof(Word) +
           table_.capacity() * sizeof(Slot) +
           crumbs_.capacity() * sizeof(Breadcrumb);
  }

 private:
  /// One table entry: a state id (kNoId = empty) and the 32-bit hash of its
  /// marking. The hash rejects most mismatches without touching the arena
  /// and lets grow() rehash without reading it.
  struct Slot {
    StateId id;
    std::uint32_t hash;
  };
  struct Breadcrumb {
    StateId parent;
    petri::TransitionId via;
  };

  static constexpr std::size_t kInitialSlots = 256;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 32;

  [[nodiscard]] std::uint32_t hash_words(const Word* m) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t w = 0; w < words_; ++w)
      h = (h ^ m[w]) * 0xff51afd7ed558ccdull;
    return static_cast<std::uint32_t>(util::mix64(h) >> 32);
  }

  void grow() {
    std::vector<Slot> bigger(table_.size() * 2, Slot{kNoId, 0});
    const std::size_t mask = bigger.size() - 1;
    for (const Slot& slot : table_) {
      if (slot.id == kNoId) continue;
      std::size_t i = slot.hash & mask;
      while (bigger[i].id != kNoId) i = (i + 1) & mask;
      bigger[i] = slot;
    }
    table_.swap(bigger);
  }

  std::size_t words_;
  std::vector<Word> arena_;
  std::vector<Slot> table_;
  std::vector<Breadcrumb> crumbs_;
};

}  // namespace gpo::reach
