#include "unfold/unfolding.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>

#include "petri/builder.hpp"
#include "util/stopwatch.hpp"

namespace gpo::unfold {

using petri::Marking;
using petri::PetriNet;
using petri::PlaceId;
using petri::TransitionId;

namespace {

/// Sorted-vector intersection.
std::vector<std::size_t> intersect(const std::vector<std::size_t>& a,
                                   const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

struct Candidate {
  std::size_t local_size;  // |[e]| (for the McMillan order)
  TransitionId transition;
  std::vector<std::size_t> preset;  // sorted condition ids

  bool operator>(const Candidate& o) const {
    if (local_size != o.local_size) return local_size > o.local_size;
    if (transition != o.transition) return transition > o.transition;
    return preset > o.preset;
  }
};

class Unfolder {
 public:
  Unfolder(const PetriNet& net, const UnfoldOptions& options)
      : net_(net), options_(options) {
    if (obs::kHotCountersEnabled && options_.metrics != nullptr) {
      live_events_ = &options_.metrics->counter("progress.states");
      live_queue_ = &options_.metrics->gauge("progress.frontier");
    }
  }

  Prefix run() {
    // Initial conditions: one per initially marked place, pairwise co.
    for (std::size_t p = net_.initial_marking().find_first();
         p < net_.place_count(); p = net_.initial_marking().find_next(p + 1))
      prefix_.conditions.push_back(
          {static_cast<PlaceId>(p), kNoEvent});
    const std::size_t k = prefix_.conditions.size();
    co_.assign(k, {});
    extendable_.assign(k, true);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        if (i != j) co_[i].push_back(j);

    seen_marks_.emplace(net_.initial_marking(), 0);
    for (std::size_t c = 0; c < k; ++c) find_extensions(c);

    while (!queue_.empty()) {
      if (prefix_.events.size() >= options_.max_events ||
          prefix_.conditions.size() >= options_.max_conditions ||
          timer_.elapsed_seconds() > options_.max_seconds ||
          util::cancel_requested(options_.cancel)) {
        prefix_.limit_hit = true;
        break;
      }
      Candidate cand = queue_.top();
      queue_.pop();
      insert_event(cand);
      if (live_queue_ != nullptr)
        live_queue_->set(static_cast<double>(queue_.size()));
    }
    if (options_.metrics != nullptr) {
      obs::MetricsRegistry& reg = *options_.metrics;
      const std::string p = options_.metrics_prefix;
      reg.counter(p + "events").store(prefix_.events.size());
      reg.counter(p + "conditions").store(prefix_.conditions.size());
      reg.counter(p + "cutoffs").store(prefix_.cutoff_count);
      std::size_t prefix_bytes = 0;
      for (const Event& e : prefix_.events)
        prefix_bytes += sizeof(Event) + e.mark.memory_bytes() +
                        (e.preset.capacity() + e.postset.capacity()) *
                            sizeof(std::size_t);
      prefix_bytes += prefix_.conditions.size() * sizeof(Condition);
      reg.gauge("mem." + p + "prefix_bytes")
          .set(static_cast<double>(prefix_bytes));
    }
    return std::move(prefix_);
  }

 private:
  /// Local configuration of a would-be event with the given preset: union of
  /// the producers' local configurations (event indices, sorted).
  std::vector<std::size_t> config_of(const std::vector<std::size_t>& preset)
      const {
    std::vector<std::size_t> config;
    for (std::size_t c : preset) {
      std::size_t producer = prefix_.conditions[c].producer;
      if (producer == kNoEvent) continue;
      std::vector<std::size_t> merged;
      std::set_union(config.begin(), config.end(),
                     configs_[producer].begin(), configs_[producer].end(),
                     std::back_inserter(merged));
      config = std::move(merged);
    }
    return config;
  }

  /// Mark(C ∪ {e}) where the event itself fires `tr`: the token count of
  /// every place is M0 + Σ post − Σ pre over the transitions of C ∪ {e}.
  Marking mark_of(const std::vector<std::size_t>& config,
                  const petri::Transition& tr) {
    tokens_.assign(net_.place_count(), 0);
    const Marking& m0 = net_.initial_marking();
    for (std::size_t p = m0.find_first(); p < m0.size();
         p = m0.find_next(p + 1))
      tokens_[p] = 1;
    auto fire = [&](const petri::Transition& t) {
      for (PlaceId p : t.pre) --tokens_[p];
      for (PlaceId p : t.post) ++tokens_[p];
    };
    for (std::size_t e : config)
      fire(net_.transition(prefix_.events[e].transition));
    fire(tr);
    Marking m(net_.place_count());
    for (std::size_t p = 0; p < tokens_.size(); ++p)
      if (tokens_[p] > 0) m.set(p);
    return m;
  }

  void insert_event(const Candidate& cand) {
    const petri::Transition& tr = net_.transition(cand.transition);
    std::vector<std::size_t> config = config_of(cand.preset);
    Event ev;
    ev.transition = cand.transition;
    ev.preset = cand.preset;
    ev.local_size = config.size() + 1;
    ev.mark = mark_of(config, tr);

    // McMillan cut-off: a smaller configuration already produced this mark.
    auto it = seen_marks_.find(ev.mark);
    ev.cutoff = it != seen_marks_.end() && it->second < ev.local_size;
    if (it == seen_marks_.end()) seen_marks_.emplace(ev.mark, ev.local_size);

    std::size_t eid = prefix_.events.size();
    config.push_back(eid);  // [e] = predecessors + e (eid is the maximum)
    configs_.push_back(std::move(config));

    // Output conditions.
    std::vector<std::size_t> common;
    bool first = true;
    for (std::size_t b : cand.preset) {
      common = first ? co_[b] : intersect(common, co_[b]);
      first = false;
    }
    std::vector<std::size_t> outputs;
    for (PlaceId p : tr.post) {
      std::size_t cid = prefix_.conditions.size();
      prefix_.conditions.push_back({p, eid});
      co_.emplace_back();
      extendable_.push_back(!ev.cutoff);
      outputs.push_back(cid);
    }
    for (std::size_t o : outputs) {
      for (std::size_t sibling : outputs)
        if (sibling != o) co_[o].push_back(sibling);
      for (std::size_t c : common) {
        co_[o].push_back(c);
        co_[c].push_back(o);  // o has the max index: stays sorted
      }
      std::sort(co_[o].begin(), co_[o].end());
    }

    ev.postset = outputs;
    bool cutoff = ev.cutoff;
    prefix_.events.push_back(std::move(ev));
    if (live_events_ != nullptr) live_events_->add();
    if (cutoff) {
      ++prefix_.cutoff_count;
      return;
    }
    for (std::size_t o : outputs) find_extensions(o);
  }

  /// Enqueues every possible extension whose preset contains condition c.
  void find_extensions(std::size_t c) {
    PlaceId cp = prefix_.conditions[c].place;
    for (TransitionId t : net_.place(cp).post) {
      const petri::Transition& tr = net_.transition(t);
      // Anchor c on its place; choose co conditions for the other inputs.
      std::vector<PlaceId> rest;
      for (PlaceId p : tr.pre)
        if (p != cp) rest.push_back(p);
      std::vector<std::size_t> chosen{c};
      search_presets(t, rest, 0, chosen, co_[c]);
    }
  }

  void search_presets(TransitionId t, const std::vector<PlaceId>& rest,
                      std::size_t idx, std::vector<std::size_t>& chosen,
                      const std::vector<std::size_t>& allowed) {
    if (idx == rest.size()) {
      Candidate cand;
      cand.transition = t;
      cand.preset = chosen;
      std::sort(cand.preset.begin(), cand.preset.end());
      if (!known_.insert({t, cand.preset}).second) return;
      cand.local_size = config_of(cand.preset).size() + 1;
      queue_.push(std::move(cand));
      return;
    }
    for (std::size_t d : allowed) {
      if (prefix_.conditions[d].place != rest[idx] || !extendable_[d])
        continue;
      chosen.push_back(d);
      // The last input needs no further co-set: skip the intersection.
      search_presets(t, rest, idx + 1, chosen,
                     idx + 1 < rest.size() ? intersect(allowed, co_[d])
                                           : std::vector<std::size_t>{});
      chosen.pop_back();
    }
  }

  const PetriNet& net_;
  UnfoldOptions options_;
  util::Stopwatch timer_;
  Prefix prefix_;
  std::vector<std::vector<std::size_t>> co_;       // per condition, sorted
  std::vector<bool> extendable_;                   // false past cut-offs
  std::vector<std::vector<std::size_t>> configs_;  // per event, sorted
  std::vector<int> tokens_;                        // mark_of scratch
  std::unordered_map<Marking, std::size_t> seen_marks_;
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      queue_;
  obs::Counter* live_events_ = nullptr;  // "progress.states"
  obs::Gauge* live_queue_ = nullptr;     // "progress.frontier"
  std::set<std::pair<TransitionId, std::vector<std::size_t>>> known_;
};

}  // namespace

Prefix unfold(const PetriNet& net, const UnfoldOptions& options) {
  return Unfolder(net, options).run();
}

PetriNet prefix_as_net(const PetriNet& net, const Prefix& prefix) {
  petri::NetBuilder b(std::string(net.name()) + "_prefix");
  // Names built with += (not operator+ chains): GCC 12's -Wrestrict fires a
  // bogus overlap warning on `const char* + std::string&&` at -O3.
  for (std::size_t c = 0; c < prefix.conditions.size(); ++c) {
    std::string cname = "c";
    cname += std::to_string(c);
    cname += '_';
    cname += net.place(prefix.conditions[c].place).name;
    b.add_place(cname, prefix.conditions[c].producer == kNoEvent);
  }
  for (std::size_t e = 0; e < prefix.events.size(); ++e) {
    std::string ename = "e";
    ename += std::to_string(e);
    ename += '_';
    ename += net.transition(prefix.events[e].transition).name;
    TransitionId t = b.add_transition(ename);
    for (std::size_t c : prefix.events[e].preset)
      b.add_input_arc(static_cast<PlaceId>(c), t);
    for (std::size_t c : prefix.events[e].postset)
      b.add_output_arc(t, static_cast<PlaceId>(c));
  }
  return b.build();
}

Marking cut_to_marking(const PetriNet& net, const Prefix& prefix,
                       const Marking& cut) {
  Marking m(net.place_count());
  for (std::size_t c = cut.find_first(); c < cut.size();
       c = cut.find_next(c + 1))
    m.set(prefix.conditions[c].place);
  return m;
}

namespace {

/// Depth-first enumeration of the prefix's cut-off-free configurations, each
/// exactly once and without a visited set: a configuration is reached only
/// from its canonical parent, the configuration without its highest-numbered
/// maximal event. The search keeps one cut (a bitset over conditions) and
/// the configuration's maximal events, and undoes each event on the way
/// back.
class CutSearch {
 public:
  CutSearch(const PetriNet& net, const Prefix& prefix)
      : net_(net),
        prefix_(prefix),
        consumers_(prefix.conditions.size()),
        cut_(prefix.conditions.size()),
        maximal_(prefix.events.size()) {
    // Each non-cut-off event is listed under the first condition of its
    // preset, so scanning a cut finds every enabled event once.
    for (std::size_t e = 0; e < prefix.events.size(); ++e)
      if (!prefix.events[e].cutoff && !prefix.events[e].preset.empty())
        consumers_[prefix.events[e].preset.front()].push_back(e);
    for (std::size_t c = 0; c < prefix.conditions.size(); ++c)
      if (prefix.conditions[c].producer == kNoEvent) cut_.set(c);
  }

  PrefixDeadlockResult run(std::size_t max_cuts,
                           const util::CancelToken* cancel,
                           double max_seconds) {
    util::Stopwatch timer;
    PrefixDeadlockResult result;
    // One frame per event on the current path (the root applies none). A
    // frame's children are pending_[begin, end), where end is the next
    // frame's begin, or pending_.size() for the last frame.
    struct Frame {
      std::size_t event;
      std::size_t begin;
      std::size_t next;  // first child not yet visited
    };
    std::vector<Frame> frames{{kNoEvent, 0, 0}};
    result.cuts_explored = 1;
    expand(result);
    while (!frames.empty() && !result.deadlock_found) {
      Frame& top = frames.back();
      if (top.next == pending_.size()) {  // every child visited: back up
        if (top.event != kNoEvent) undo(top.event);
        pending_.resize(top.begin);
        frames.pop_back();
        continue;
      }
      if (result.cuts_explored >= max_cuts ||
          timer.elapsed_seconds() > max_seconds ||
          util::cancel_requested(cancel)) {
        result.limit_hit = true;
        result.interrupted_phase = "prefix-deadlock-check";
        break;
      }
      const std::size_t e = pending_[top.next++];
      apply(e);
      ++result.cuts_explored;
      frames.push_back({e, pending_.size(), pending_.size()});
      expand(result);
    }
    return result;
  }

 private:
  /// Appends the canonical children of the current configuration to
  /// pending_. With no event enabled, maps the cut back and records a
  /// deadlock if its marking is dead (an event enabled means a transition
  /// enabled, so only such cuts can be dead).
  void expand(PrefixDeadlockResult& result) {
    bool any_enabled = false;
    const std::size_t n = cut_.size();
    for (std::size_t c = cut_.find_first(); c < n; c = cut_.find_next(c + 1))
      for (std::size_t e : consumers_[c]) {
        const std::vector<std::size_t>& pre = prefix_.events[e].preset;
        if (!std::all_of(pre.begin() + 1, pre.end(),
                         [&](std::size_t b) { return cut_.test(b); }))
          continue;
        any_enabled = true;
        if (canonical(e)) pending_.push_back(e);
      }
    if (any_enabled) return;
    Marking m = cut_to_marking(net_, prefix_, cut_);
    if (net_.is_deadlocked(m)) {
      result.deadlock_found = true;
      result.witness = std::move(m);
    }
  }

  /// True iff e, enabled at the current configuration C, is the
  /// highest-numbered maximal event of C ∪ {e}: every maximal event of C
  /// that does not produce e's preset has a smaller number.
  bool canonical(std::size_t e) const {
    const std::vector<std::size_t>& pre = prefix_.events[e].preset;
    const std::size_t count = maximal_.size();
    // maximal_ holds event f at bit count-1-f: find_first is the highest.
    for (std::size_t i = maximal_.find_first(); i < count;
         i = maximal_.find_next(i + 1)) {
      const std::size_t f = count - 1 - i;
      if (std::none_of(pre.begin(), pre.end(), [&](std::size_t b) {
            return prefix_.conditions[b].producer == f;
          }))
        return f < e;
    }
    return true;
  }

  void apply(std::size_t e) {
    const Event& ev = prefix_.events[e];
    for (std::size_t b : ev.preset) {
      cut_.reset(b);
      std::size_t f = prefix_.conditions[b].producer;
      if (f != kNoEvent) maximal_.reset(maximal_.size() - 1 - f);
    }
    for (std::size_t b : ev.postset) cut_.set(b);
    maximal_.set(maximal_.size() - 1 - e);
  }

  void undo(std::size_t e) {
    const Event& ev = prefix_.events[e];
    maximal_.reset(maximal_.size() - 1 - e);
    for (std::size_t b : ev.postset) cut_.reset(b);
    for (std::size_t b : ev.preset) cut_.set(b);
    // A producer is maximal again once its whole postset is back in the cut.
    for (std::size_t b : ev.preset) {
      std::size_t f = prefix_.conditions[b].producer;
      if (f == kNoEvent) continue;
      const std::vector<std::size_t>& post = prefix_.events[f].postset;
      if (std::all_of(post.begin(), post.end(),
                      [&](std::size_t d) { return cut_.test(d); }))
        maximal_.set(maximal_.size() - 1 - f);
    }
  }

  const PetriNet& net_;
  const Prefix& prefix_;
  std::vector<std::vector<std::size_t>> consumers_;
  Marking cut_;                       // conditions of the configuration
  util::Bitset maximal_;              // its maximal events, bit reversed
  std::vector<std::size_t> pending_;  // children still to visit, per frame
};

}  // namespace

PrefixDeadlockResult deadlock_via_prefix(const PetriNet& net,
                                         const Prefix& prefix,
                                         std::size_t max_cuts,
                                         const util::CancelToken* cancel,
                                         double max_seconds) {
  return CutSearch(net, prefix).run(max_cuts, cancel, max_seconds);
}

PrefixDeadlockResult deadlock_via_unfolding(const PetriNet& net,
                                            const UnfoldOptions& options,
                                            std::size_t max_cuts) {
  util::Stopwatch timer;
  obs::MetricsRegistry* reg = options.metrics;
  auto phase_timer = [&](const char* name) {
    return reg != nullptr ? &reg->timer(options.metrics_prefix + name)
                          : nullptr;
  };
  PrefixDeadlockResult result;
  Prefix prefix;
  {
    obs::Span span(options.tracer, "prefix-construction");
    obs::ScopedTimer t(phase_timer("prefix_seconds"));
    prefix = unfold(net, options);
  }
  if (prefix.limit_hit) {
    result.limit_hit = true;
    result.interrupted_phase = "prefix-construction";
    return result;
  }
  {
    obs::Span span(options.tracer, "prefix-deadlock-check");
    obs::ScopedTimer t(phase_timer("check_seconds"));
    result = deadlock_via_prefix(net, prefix, max_cuts, options.cancel,
                                 options.max_seconds - timer.elapsed_seconds());
  }
  if (reg != nullptr)
    reg->counter(options.metrics_prefix + "cuts").store(result.cuts_explored);
  return result;
}

}  // namespace gpo::unfold
