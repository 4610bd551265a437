// Hash-consed set-family interner with a memoized operation cache.
//
// The GPO engine's states hold one family per place plus the valid-set family
// r, and successor families are small edits of their parents: across a run the
// same canonical families recur massively (r0 alone appears in every initially
// marked place of every early state). Storing each distinct family once and
// referring to it by a 32-bit FamilyId turns
//   * deep per-place copies into id copies,
//   * family equality into id comparison, and
//   * visited-set hashing into a flat pass over ids (the content hash is
//     computed once, at intern time).
// On top of the unique table sits a BDD-style computed table: a bounded,
// direct-mapped cache mapping (op, FamilyId, FamilyId) -> FamilyId for
// intersect/unite/subtract/containing, the four operations that dominate the
// multiple-firing rule. Both ideas are lifted verbatim from OBDD packages
// (see src/bdd/bdd.cpp), where they are the difference between exponential
// and near-linear behaviour.
//
// Concurrency v2 (this PR — see DESIGN.md "Lock-free unique table"): the
// intra-state parallel engine turns every worker into a continuous intern
// stream, and the PR 4 64-stripe mutex table became the shared bottleneck.
// The unique table is now genuinely lock-free on its fast paths:
//   * One atomic 64-bit word per slot, packing [tag:32 | id_plus_1:32] where
//     the tag is 30 bits of the routed hash with the top bit forced set, so
//     0 unambiguously means "empty". Slots are write-once: empty -> claimed
//     (tag published, id still 0) -> published (id filled in, release
//     store). A claimant is the unique creator of its canonical family, so
//     ids stay dense and exactly one arena slot is ever allocated per value.
//   * Probes are acquire loads; an equal-tag claim that is not yet published
//     is spun on (the only wait on the insert path). The arena write
//     happens before the publishing release store, so a reader that
//     acquires the published word may read the family without further
//     synchronization.
//   * Growth is cooperative: the thread that trips the load factor installs
//     a double-size successor table with one CAS, then every inserting
//     thread helps migrate — empty slots are frozen (CAS 0 -> FROZEN so no
//     late claim can land in the dying table), claimed slots are waited out,
//     published slots are re-probed into the successor. Tables are
//     insert-only, so migration never races a delete and retired tables are
//     kept until the interner dies (no reclamation protocol needed).
//   * The arena is an insert-only radix of geometrically growing segments
//     (64, 128, 256, ... slots) published with a release-CAS, so family(id)/
//     hash_of(id) stay lock-free loads, a FamilyId stays valid forever, and
//     a tiny model touches a few KB instead of the old fixed 4096-slot
//     chunk + 64K-pointer directory (the diamond:8 setup-cost fix).
//   * The computed table is per-thread (registered on first use, found via a
//     thread-local serial check) and now lazily sized: it starts at 1K slots
//     and doubles (dropping contents — it is a cache) as its occupancy
//     crosses 3/4, up to the configured bound. stats() aggregates every
//     thread's hit/miss counters; in the engine this happens at join time.
// Single-threaded runs see exactly the old behaviour: ids are assigned
// densely in intern order and the arena is byte-identical with the cache on
// or off (the property test relies on this).
//
// InternedFamily is the third interchangeable family representation (next to
// ExplicitFamily and BddFamily in set_family.hpp): a {interner, id} handle
// satisfying the same compile-time interface, so GpnAnalyzer<InternedFamily>
// runs on interned states — GpnState<InternedFamily> is effectively
// {vector<FamilyId> marking, FamilyId r} — with no engine changes.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/gpo_result.hpp"
#include "core/set_family.hpp"
#include "util/hash.hpp"

namespace gpo::core {

/// Index of a canonical family inside a FamilyInterner's arena.
using FamilyId = std::uint32_t;

/// The empty family is interned first, so its id is fixed; emptiness tests
/// become an id comparison.
inline constexpr FamilyId kEmptyFamilyId = 0;
inline constexpr FamilyId kInvalidFamilyId = 0xFFFFFFFFu;

/// Counters the interner keeps while an analysis runs; surfaced through
/// GpoResult::family_stats and the bench_gpo_intern driver.
struct FamilyInternerStats {
  std::size_t distinct_families = 0;  ///< arena size (== peak, nothing is freed)
  std::size_t intern_calls = 0;       ///< families presented for interning
  std::size_t op_cache_hits = 0;
  std::size_t op_cache_misses = 0;
  /// Colliding overwrites of an occupied computed-table slot: the capacity
  /// component of the miss stream (misses - evictions ≈ compulsory misses).
  std::size_t op_cache_evictions = 0;
  /// Slots currently written, summed over per-thread caches.
  std::size_t op_cache_occupied = 0;
  /// Total slots across per-thread caches (current sizes summed).
  std::size_t op_cache_capacity = 0;
  std::size_t families_bytes = 0;  ///< payload bytes of the canonical arena
  /// Lock-free unique table: current slot count and completed growths.
  std::size_t unique_table_capacity = 0;
  std::size_t unique_table_growths = 0;

  /// Families that would have been constructed/stored without hash-consing,
  /// per family actually stored.
  [[nodiscard]] double dedup_ratio() const {
    return distinct_families == 0
               ? 0.0
               : static_cast<double>(intern_calls) /
                     static_cast<double>(distinct_families);
  }
  [[nodiscard]] double op_cache_hit_rate() const {
    std::size_t total = op_cache_hits + op_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(op_cache_hits) /
                            static_cast<double>(total);
  }
};

/// Arena-backed unique table of canonical ExplicitFamily values plus the
/// memoized family operations. Non-copyable and non-movable: ids and the
/// per-thread caches refer back into the arena.
///
/// Thread-safety contract:
///   * intern() and every operation (intersect/unite/subtract/containing,
///     single/from_sets/...) may be called concurrently; none of them takes
///     a lock on its fast path (the only mutexes guard the rare table-
///     registration events: a new growth table, a new thread cache).
///   * family(id)/hash_of(id) are lock-free; they are safe for an id the
///     calling thread produced itself, or one received through a
///     synchronizing channel from the producing thread (the parallel
///     engine's work queues, fork-join joins and thread join provide that
///     happens-before).
///   * size()/stats() are exact once the calling threads quiesce.
class FamilyInterner {
 public:
  explicit FamilyInterner(std::size_t num_transitions,
                          std::size_t op_cache_entries = std::size_t{1} << 16,
                          std::size_t initial_table_capacity = 256)
      : num_transitions_(num_transitions),
        base_(num_transitions),
        serial_(next_serial()) {
    // Round both sizes to powers of two for mask indexing.
    std::size_t entries = 1;
    while (entries < op_cache_entries) entries <<= 1;
    op_cache_entries_ = entries;
    std::size_t cap = 4;  // floor: claim + frozen headroom even in tests
    while (cap < initial_table_capacity) cap <<= 1;
    auto first = std::make_unique<Table>(cap);
    table_.store(first.get(), std::memory_order_relaxed);
    tables_.push_back(std::move(first));
    // Pin kEmptyFamilyId == 0: the empty family lives at arena slot 0 and
    // intern() short-circuits on emptiness, so it never hits the table.
    ExplicitFamily e = base_.empty();
    const std::size_t h = e.hash();
    (void)allocate(std::move(e), h);
    intern_calls_.store(1, std::memory_order_relaxed);
  }

  FamilyInterner(const FamilyInterner&) = delete;
  FamilyInterner& operator=(const FamilyInterner&) = delete;

  ~FamilyInterner() {
    for (std::size_t s = 0; s < kMaxSegments; ++s)
      delete[] dir_[s].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t num_transitions() const { return num_transitions_; }

  /// Canonicalizes `f`: returns the id of the arena family equal to it,
  /// storing it first if it is new. The content hash is computed once here
  /// and cached for the family's lifetime. Thread-safe and lock-free except
  /// for the publish-spin on a racing equal-tag claim and the cooperative
  /// migration when the table grows.
  FamilyId intern(ExplicitFamily f) {
    intern_calls_.fetch_add(1, std::memory_order_relaxed);
    if (f.is_empty()) return kEmptyFamilyId;
    const std::size_t h = f.hash();
    const std::uint64_t route = util::mix64(h);
    const std::uint64_t tag =
        kTagClaimBit | ((route >> 34) & kTagHashMask);  // != 0, != frozen tag

    while (true) {
      Table* t = table_.load(std::memory_order_acquire);
      if (t->next.load(std::memory_order_acquire) != nullptr) {
        help_migrate(*t);
        continue;  // reload table_, now (or soon) the successor
      }
      std::size_t i = route & t->mask;
      bool table_died = false;
      while (!table_died) {
        std::uint64_t e = t->slots[i].load(std::memory_order_acquire);
        if (e == kFrozenSlot) {
          table_died = true;  // migration beat us to this slot
          break;
        }
        if (e == 0) {
          if ((t->used.load(std::memory_order_relaxed) + 1) * 4 >
              (t->mask + 1) * 3) {
            grow(*t);
            table_died = true;
            break;
          }
          std::uint64_t expected = 0;
          if (t->slots[i].compare_exchange_strong(expected, tag << 32,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
            // We are the unique creator: allocate the next dense id, then
            // publish it. The arena writes in allocate() happen-before this
            // release store, so any thread that acquires the published word
            // may read the family lock-free.
            FamilyId id = allocate(std::move(f), h);
            t->slots[i].store((tag << 32) | (std::uint64_t{id} + 1),
                              std::memory_order_release);
            t->used.fetch_add(1, std::memory_order_relaxed);
            return id;
          }
          continue;  // lost the claim; re-examine the slot
        }
        if ((e >> 32) == tag) {
          e = wait_published(*t, i, e);
          const FamilyId id =
              static_cast<FamilyId>((e & 0xFFFFFFFFull) - 1);
          if (hash_of(id) == h && family(id) == f) return id;
        }
        i = (i + 1) & t->mask;
      }
      // Fell off a dying table: help finish its migration, then retry on
      // the successor (our family may have been inserted there meanwhile —
      // the retry probe will find it).
      help_migrate(*t);
    }
  }

  /// Lock-free arena read; see the thread-safety contract above.
  [[nodiscard]] const ExplicitFamily& family(FamilyId id) const {
    return slot_at(id).family;
  }
  /// The content hash cached at intern time.
  [[nodiscard]] std::size_t hash_of(FamilyId id) const {
    return slot_at(id).hash;
  }
  /// Families stored; exact once interning threads quiesce.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(next_id_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool is_empty(FamilyId id) const {
    return id == kEmptyFamilyId;
  }

  // -- family constructors (canonicalized on entry) -------------------------

  FamilyId empty() { return kEmptyFamilyId; }
  FamilyId single(const TransitionSet& set) { return intern(base_.single(set)); }
  FamilyId from_sets(std::vector<TransitionSet> sets) {
    return intern(base_.from_sets(std::move(sets)));
  }
  FamilyId initial_valid_sets(const petri::ConflictInfo& conflicts) {
    return intern(base_.initial_valid_sets(conflicts));
  }

  // -- memoized operations --------------------------------------------------

  FamilyId intersect(FamilyId a, FamilyId b) {
    if (a == b) return a;
    if (a == kEmptyFamilyId || b == kEmptyFamilyId) return kEmptyFamilyId;
    if (a > b) std::swap(a, b);  // commutative: canonical operand order
    return cached_apply(kOpIntersect, a, b);
  }
  FamilyId unite(FamilyId a, FamilyId b) {
    if (a == b || b == kEmptyFamilyId) return a;
    if (a == kEmptyFamilyId) return b;
    if (a > b) std::swap(a, b);
    return cached_apply(kOpUnite, a, b);
  }
  FamilyId subtract(FamilyId a, FamilyId b) {
    if (b == kEmptyFamilyId) return a;
    if (a == kEmptyFamilyId || a == b) return kEmptyFamilyId;
    return cached_apply(kOpSubtract, a, b);
  }
  FamilyId containing(FamilyId a, petri::TransitionId t) {
    if (a == kEmptyFamilyId) return kEmptyFamilyId;
    return cached_apply(kOpContaining, a, static_cast<FamilyId>(t));
  }

  /// Disabling the computed table forces every operation through the plain
  /// ExplicitFamily algebra + intern(); because intern() canonicalizes, the
  /// resulting arena and id assignment are byte-identical either way — the
  /// property test relies on this.
  void set_op_cache_enabled(bool enabled) {
    op_cache_enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool op_cache_enabled() const {
    return op_cache_enabled_.load(std::memory_order_relaxed);
  }
  /// Upper bound one thread's computed table may grow to (slots start at
  /// 1K and double on occupancy, so tiny models never pay for this).
  [[nodiscard]] std::size_t op_cache_entries() const {
    return op_cache_entries_;
  }
  /// Computed tables currently registered (== threads that did memoized ops).
  [[nodiscard]] std::size_t op_cache_thread_count() const {
    std::lock_guard<std::mutex> lock(caches_mu_);
    return caches_.size();
  }


  /// Current unique-table slot count (exact once growers quiesce).
  [[nodiscard]] std::size_t unique_table_capacity() const {
    return table_.load(std::memory_order_acquire)->mask + 1;
  }
  [[nodiscard]] std::size_t unique_table_growths() const {
    return grow_count_.load(std::memory_order_relaxed);
  }

  /// Aggregated counters: arena totals plus every thread's cache hits and
  /// misses. Exact once the operating threads quiesce (engine join time).
  [[nodiscard]] FamilyInternerStats stats() const {
    FamilyInternerStats s;
    s.distinct_families = size();
    s.intern_calls = intern_calls_.load(std::memory_order_relaxed);
    s.families_bytes = families_bytes_.load(std::memory_order_relaxed);
    s.unique_table_capacity = unique_table_capacity();
    s.unique_table_growths = unique_table_growths();
    std::lock_guard<std::mutex> lock(caches_mu_);
    for (const ThreadCache& tc : caches_) {
      s.op_cache_hits += tc.cache->hits.load(std::memory_order_relaxed);
      s.op_cache_misses += tc.cache->misses.load(std::memory_order_relaxed);
      s.op_cache_evictions +=
          tc.cache->evictions.load(std::memory_order_relaxed);
      s.op_cache_occupied +=
          tc.cache->occupied.load(std::memory_order_relaxed);
      s.op_cache_capacity +=
          tc.cache->capacity.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  enum Op : std::uint8_t {
    kOpIntersect = 0,
    kOpUnite = 1,
    kOpSubtract = 2,
    kOpContaining = 3,
  };

  /// One computed-table slot. Direct-mapped: a colliding result simply
  /// overwrites the previous tenant (bounded memory, no eviction scans);
  /// a recomputation after overwrite re-interns to the same id.
  struct CacheEntry {
    FamilyId a = kInvalidFamilyId;  // kInvalidFamilyId marks an empty slot
    FamilyId b = 0;
    FamilyId result = 0;
    std::uint8_t op = 0;
  };

  /// Per-thread computed table. Slots are touched only by the owning thread
  /// (including the occupancy-triggered doubling, which drops the contents —
  /// it is a cache); the tallies are relaxed atomics so stats() may read
  /// them while the owner still runs.
  struct OpCache {
    explicit OpCache(std::size_t initial) : slots(initial) {
      capacity.store(initial, std::memory_order_relaxed);
    }
    std::vector<CacheEntry> slots;
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};
    std::atomic<std::size_t> evictions{0};
    std::atomic<std::size_t> occupied{0};
    std::atomic<std::size_t> capacity{0};
  };

  struct ThreadCache {
    std::thread::id tid;
    std::unique_ptr<OpCache> cache;
  };

  // -- arena: radix of never-moving, geometrically growing segments ---------

  struct ArenaSlot {
    ExplicitFamily family;
    std::size_t hash = 0;
  };

  // Segment s holds 64 << s slots starting at id ((1 << s) - 1) * 64, so the
  // first segment is 64 families (a tiny model touches ~KBs, not the old
  // 4096-slot chunk) and 24 segments cover the full 2^28 id budget.
  static constexpr std::size_t kSeg0Bits = 6;
  static constexpr std::size_t kMaxSegments = 24;
  static constexpr std::size_t kMaxFamilies = std::size_t{1} << 28;

  [[nodiscard]] static std::size_t segment_of(FamilyId id) {
    return static_cast<std::size_t>(
               std::bit_width((std::uint64_t{id} >> kSeg0Bits) + 1)) -
           1;
  }
  [[nodiscard]] static FamilyId segment_start(std::size_t s) {
    return static_cast<FamilyId>(((std::size_t{1} << s) - 1) << kSeg0Bits);
  }
  [[nodiscard]] static std::size_t segment_size(std::size_t s) {
    return std::size_t{1} << (kSeg0Bits + s);
  }

  [[nodiscard]] const ArenaSlot& slot_at(FamilyId id) const {
    const std::size_t s = segment_of(id);
    const ArenaSlot* seg = dir_[s].load(std::memory_order_acquire);
    return seg[id - segment_start(s)];
  }

  [[nodiscard]] ArenaSlot* segment_for(std::size_t s) {
    ArenaSlot* seg = dir_[s].load(std::memory_order_acquire);
    if (seg != nullptr) return seg;
    ArenaSlot* fresh = new ArenaSlot[segment_size(s)];
    ArenaSlot* expected = nullptr;
    if (dir_[s].compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
      return fresh;
    delete[] fresh;  // another thread published first
    return expected;
  }

  /// Stores `f` at the next dense id. Caller must guarantee uniqueness (the
  /// unique table's claim protocol does, for everything but the pinned
  /// empty family).
  FamilyId allocate(ExplicitFamily f, std::size_t h) {
    const std::uint64_t raw = next_id_.load(std::memory_order_relaxed);
    if (raw >= kMaxFamilies || raw >= kInvalidFamilyId)
      throw std::length_error("FamilyInterner: id space exhausted");
    const FamilyId id = static_cast<FamilyId>(
        next_id_alloc_.fetch_add(1, std::memory_order_relaxed));
    families_bytes_.fetch_add(f.memory_bytes(), std::memory_order_relaxed);
    const std::size_t s = segment_of(id);
    ArenaSlot& slot = segment_for(s)[id - segment_start(s)];
    slot.family = std::move(f);
    slot.hash = h;
    // size() counts only fully published families: bump the visible bound
    // once our predecessor ids are all published.
    std::uint64_t expected = id;
    while (!next_id_.compare_exchange_weak(expected, id + 1,
                                           std::memory_order_release,
                                           std::memory_order_relaxed))
      expected = id;
    return id;
  }

  // -- lock-free unique table -----------------------------------------------
  //
  // Slot word: 0 = empty; kFrozenSlot = migrated-away (growth only);
  // otherwise [tag:32 | id_plus_1:32] with id_plus_1 == 0 while the claimant
  // is still allocating. Tags carry kTagClaimBit and 30 hash bits, so they
  // can collide with neither 0 nor the frozen sentinel's 0xFFFFFFFF.

  static constexpr std::uint64_t kTagClaimBit = 0x80000000ull;
  static constexpr std::uint64_t kTagHashMask = 0x3FFFFFFFull;
  static constexpr std::uint64_t kFrozenSlot = 0xFFFFFFFF00000000ull;

  struct Table {
    explicit Table(std::size_t capacity)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)) {}
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;  // value-init: empty
    std::atomic<std::size_t> used{0};
    std::atomic<Table*> next{nullptr};     // successor once growth starts
    std::atomic<std::size_t> migrate_pos{0};  // cooperative migration cursor
    std::atomic<std::size_t> migrated{0};     // slots fully dealt with
  };

  /// Spins until the claimed slot publishes its id (the claimant is in
  /// allocate(); claimed slots are never frozen, so this terminates with a
  /// published word).
  std::uint64_t wait_published(Table& t, std::size_t i, std::uint64_t e) {
    while ((e & 0xFFFFFFFFull) == 0) {
      std::this_thread::yield();
      e = t.slots[i].load(std::memory_order_acquire);
    }
    return e;
  }

  /// Installs a double-size successor (first CAS wins) and helps migrate.
  void grow(Table& t) {
    if (t.next.load(std::memory_order_acquire) == nullptr) {
      auto fresh = std::make_unique<Table>((t.mask + 1) * 2);
      Table* expected = nullptr;
      if (t.next.compare_exchange_strong(expected, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        grow_count_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(tables_mu_);
        tables_.push_back(std::move(fresh));
      }
      // else: lost the race; fresh is freed here, the winner's table stands.
    }
    help_migrate(t);
  }

  /// Cooperative migration: claim 64-slot chunks of the dying table, freeze
  /// empties (so no claim can land behind the sweep), wait out in-flight
  /// claims, re-probe published entries into the successor. Blocks until
  /// every chunk (including other helpers') is done, then swings table_.
  void help_migrate(Table& t) {
    Table* next = t.next.load(std::memory_order_acquire);
    if (next == nullptr) return;
    const std::size_t cap = t.mask + 1;
    constexpr std::size_t kChunk = 64;
    while (true) {
      const std::size_t start =
          t.migrate_pos.fetch_add(kChunk, std::memory_order_relaxed);
      if (start >= cap) break;
      const std::size_t end = std::min(start + kChunk, cap);
      for (std::size_t i = start; i < end; ++i) {
        std::uint64_t e = t.slots[i].load(std::memory_order_acquire);
        while (true) {
          if (e == kFrozenSlot) break;
          if (e == 0) {
            if (t.slots[i].compare_exchange_weak(e, kFrozenSlot,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire))
              break;
            continue;  // e reloaded by the failed CAS
          }
          if ((e & 0xFFFFFFFFull) == 0) {  // in-flight claim: wait it out
            std::this_thread::yield();
            e = t.slots[i].load(std::memory_order_acquire);
            continue;
          }
          reinsert(*next, e);
          break;
        }
      }
      t.migrated.fetch_add(end - start, std::memory_order_acq_rel);
    }
    while (t.migrated.load(std::memory_order_acquire) < cap)
      std::this_thread::yield();
    Table* cur = &t;
    table_.compare_exchange_strong(cur, next, std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  }

  /// Moves one published word into the successor. Every old slot is owned by
  /// exactly one migrator and distinct slots hold distinct families, so a
  /// plain claim-first-empty probe cannot create duplicates.
  void reinsert(Table& next, std::uint64_t e) {
    const FamilyId id = static_cast<FamilyId>((e & 0xFFFFFFFFull) - 1);
    const std::uint64_t route = util::mix64(hash_of(id));
    std::size_t i = route & next.mask;
    std::uint64_t expected = 0;
    while (!next.slots[i].compare_exchange_strong(expected, e,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
      expected = 0;
      i = (i + 1) & next.mask;
    }
    next.used.fetch_add(1, std::memory_order_relaxed);
  }

  // -- per-thread computed tables -------------------------------------------

  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's computed table for *this* interner. A single
  /// thread-local slot caches the last (interner serial -> table) pairing,
  /// so the steady state — one interner per analysis — costs one integer
  /// compare; switching interners re-resolves through the registry mutex.
  OpCache& local_cache() {
    struct Tls {
      std::uint64_t serial = 0;
      OpCache* cache = nullptr;
    };
    static thread_local Tls tls;
    if (tls.serial != serial_) {
      tls.cache = register_thread_cache();
      tls.serial = serial_;
    }
    return *tls.cache;
  }

  OpCache* register_thread_cache() {
    const std::thread::id me = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(caches_mu_);
    for (const ThreadCache& tc : caches_)
      if (tc.tid == me) return tc.cache.get();
    caches_.push_back(
        {me, std::make_unique<OpCache>(
                 std::min<std::size_t>(op_cache_entries_, 1024))});
    return caches_.back().cache.get();
  }

  static std::size_t cache_slot(Op op, FamilyId a, FamilyId b,
                                std::size_t size) {
    return static_cast<std::size_t>(
               util::mix64((std::uint64_t{a} << 34) ^
                           (std::uint64_t{op} << 32) ^ std::uint64_t{b})) &
           (size - 1);
  }

  /// Doubles the computed table, rehashing the live entries. Collision-free:
  /// an old slot holds one entry and distinct old slots differ in their low
  /// index bits, so no two entries land on the same doubled slot. Occupancy
  /// and hit history are preserved exactly — growth is invisible except in
  /// the capacity counter.
  static void grow_cache(OpCache& c) {
    std::vector<CacheEntry> next(c.slots.size() * 2);
    for (const CacheEntry& e : c.slots)
      if (e.a != kInvalidFamilyId)
        next[cache_slot(static_cast<Op>(e.op), e.a, e.b, next.size())] = e;
    c.slots = std::move(next);
    c.capacity.store(c.slots.size(), std::memory_order_relaxed);
  }

  FamilyId cached_apply(Op op, FamilyId a, FamilyId b) {
    OpCache* cache = op_cache_enabled() ? &local_cache() : nullptr;
    std::size_t slot = 0;
    if (cache != nullptr) {
      slot = cache_slot(op, a, b, cache->slots.size());
      const CacheEntry& e = cache->slots[slot];
      if (e.a == a && e.b == b && e.op == op) {
        cache->hits.fetch_add(1, std::memory_order_relaxed);
        return e.result;
      }
      cache->misses.fetch_add(1, std::memory_order_relaxed);
    }
    const ExplicitFamily& fa = family(a);
    ExplicitFamily r = op == kOpIntersect ? fa.intersect(family(b))
                       : op == kOpUnite   ? fa.unite(family(b))
                       : op == kOpSubtract
                           ? fa.subtract(family(b))
                           : fa.containing(static_cast<petri::TransitionId>(b));
    FamilyId id = intern(std::move(r));
    if (cache != nullptr) {
      // Lazy sizing: below the configured bound the table doubles (rehashing
      // its contents) instead of evicting, on either 3/4 occupancy or a
      // colliding overwrite. Tiny models therefore never touch megabytes,
      // and a nonzero eviction count genuinely means the configured bound
      // is too small.
      while (cache->slots.size() < op_cache_entries_) {
        const CacheEntry& tenant = cache->slots[slot];
        const bool collides =
            tenant.a != kInvalidFamilyId &&
            (tenant.a != a || tenant.b != b || tenant.op != op);
        const bool crowded =
            (cache->occupied.load(std::memory_order_relaxed) + 1) * 4 >
            cache->slots.size() * 3;
        if (!collides && !crowded) break;
        grow_cache(*cache);
        slot = cache_slot(op, a, b, cache->slots.size());
      }
      CacheEntry& e = cache->slots[slot];
      if (e.a == kInvalidFamilyId)
        cache->occupied.fetch_add(1, std::memory_order_relaxed);
      else if (e.a != a || e.b != b || e.op != op)
        cache->evictions.fetch_add(1, std::memory_order_relaxed);
      e = {a, b, id, op};
    }
    return id;
  }

  std::size_t num_transitions_;
  ExplicitFamily::Context base_;
  std::uint64_t serial_;  // unique per interner instance, for the TLS lookup
  std::size_t op_cache_entries_ = 0;

  std::atomic<Table*> table_{nullptr};
  mutable std::mutex tables_mu_;
  std::vector<std::unique_ptr<Table>> tables_;  // all generations, owned
  std::atomic<std::size_t> grow_count_{0};

  std::atomic<ArenaSlot*> dir_[kMaxSegments] = {};
  std::atomic<std::uint64_t> next_id_alloc_{0};  // ids handed out
  std::atomic<std::uint64_t> next_id_{0};        // ids fully published

  mutable std::mutex caches_mu_;
  std::vector<ThreadCache> caches_;
  std::atomic<bool> op_cache_enabled_{true};
  std::atomic<std::size_t> intern_calls_{0};
  std::atomic<std::size_t> families_bytes_{0};
};

// ---------------------------------------------------------------------------
// InternedFamily — the Family-interface handle over a FamilyInterner
// ---------------------------------------------------------------------------

class InternedFamily {
 public:
  /// Owns the interner all families of one analysis share. Non-copyable;
  /// families hold a pointer back to it (mirrors BddFamily::Context).
  class Context {
   public:
    explicit Context(std::size_t num_transitions,
                     std::size_t op_cache_entries = std::size_t{1} << 16)
        : interner_(std::make_unique<FamilyInterner>(num_transitions,
                                                     op_cache_entries)) {}

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    [[nodiscard]] std::size_t num_transitions() const {
      return interner_->num_transitions();
    }
    [[nodiscard]] FamilyInterner& interner() const { return *interner_; }

    [[nodiscard]] InternedFamily empty() const {
      return InternedFamily(interner_.get(), kEmptyFamilyId);
    }
    [[nodiscard]] InternedFamily single(const TransitionSet& set) const {
      return InternedFamily(interner_.get(), interner_->single(set));
    }
    [[nodiscard]] InternedFamily from_sets(
        std::vector<TransitionSet> sets) const {
      return InternedFamily(interner_.get(),
                            interner_->from_sets(std::move(sets)));
    }
    [[nodiscard]] InternedFamily initial_valid_sets(
        const petri::ConflictInfo& conflicts) const {
      return InternedFamily(interner_.get(),
                            interner_->initial_valid_sets(conflicts));
    }

    /// GpoResult hook: GpnAnalyzer::explore() detects this method at compile
    /// time and surfaces the counters in GpoResult::family_stats.
    void fill_stats(GpoFamilyStats& out) const {
      FamilyInternerStats s = interner_->stats();
      out.available = true;
      out.backend = "interned";
      out.distinct_families = s.distinct_families;
      out.intern_calls = s.intern_calls;
      out.dedup_ratio = s.dedup_ratio();
      out.op_cache_hits = s.op_cache_hits;
      out.op_cache_misses = s.op_cache_misses;
      out.op_cache_hit_rate = s.op_cache_hit_rate();
      out.op_cache_evictions = s.op_cache_evictions;
      out.op_cache_occupied = s.op_cache_occupied;
      out.op_cache_capacity = s.op_cache_capacity;
      out.families_bytes = s.families_bytes;
    }

   private:
    std::unique_ptr<FamilyInterner> interner_;
  };

  /// Detached handle (no interner): only valid as a placeholder, e.g. in
  /// default-constructed GpnStates inside arena chunks.
  InternedFamily() = default;

  [[nodiscard]] InternedFamily intersect(const InternedFamily& o) const {
    return with(interner_->intersect(id_, o.id_));
  }
  [[nodiscard]] InternedFamily unite(const InternedFamily& o) const {
    return with(interner_->unite(id_, o.id_));
  }
  [[nodiscard]] InternedFamily subtract(const InternedFamily& o) const {
    return with(interner_->subtract(id_, o.id_));
  }
  [[nodiscard]] InternedFamily containing(petri::TransitionId t) const {
    return with(interner_->containing(id_, t));
  }

  [[nodiscard]] bool is_empty() const { return id_ == kEmptyFamilyId; }
  [[nodiscard]] bool contains(const TransitionSet& v) const {
    return interner_->family(id_).contains(v);
  }
  [[nodiscard]] double count() const { return interner_->family(id_).count(); }
  [[nodiscard]] std::vector<TransitionSet> members(
      std::size_t max = SIZE_MAX) const {
    return interner_->family(id_).members(max);
  }

  /// Ids are hash-consed, so mixing the id is a perfect hash; equality is id
  /// comparison (families of one analysis share one interner, as with the
  /// BDD manager).
  [[nodiscard]] std::size_t hash() const {
    return static_cast<std::size_t>(util::mix64(id_));
  }
  bool operator==(const InternedFamily& o) const { return id_ == o.id_; }

  [[nodiscard]] std::size_t universe() const {
    return interner_->num_transitions();
  }
  [[nodiscard]] FamilyId id() const { return id_; }

 private:
  friend class Context;
  InternedFamily(FamilyInterner* interner, FamilyId id)
      : interner_(interner), id_(id) {}
  [[nodiscard]] InternedFamily with(FamilyId id) const {
    return InternedFamily(interner_, id);
  }

  FamilyInterner* interner_ = nullptr;
  FamilyId id_ = kEmptyFamilyId;
};

}  // namespace gpo::core
