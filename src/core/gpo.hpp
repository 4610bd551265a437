// Front-end of generalized partial-order analysis: the entry points the CLI,
// the portfolio service, the safety reduction and the benches use. Library
// code that wants the full API instantiates GpnAnalyzer directly.
#pragma once

#include "core/family_interner.hpp"
#include "core/gpn_analyzer.hpp"
#include "core/gpo_result.hpp"
#include "core/zdd_family.hpp"
#include "petri/net.hpp"

namespace gpo::core {

/// Set-family representation of one GPN search (DESIGN.md decision 2).
enum class FamilyKind {
  kExplicit,  // canonical sorted vector of transition sets (the oracle)
  kBdd,       // Boolean function over |T| BDD variables
  kInterned,  // hash-consed explicit families behind 32-bit ids + op cache
  kZdd,       // one canonical zero-suppressed DD per family (`gpo`)
};

/// A GPN state of the interned engine: per-place markings and r are 32-bit
/// FamilyIds into the shared interner, so visited-set hashing and equality
/// run over flat id vectors and successor construction copies ids, not sets.
using InternedGpnState = GpnState<InternedFamily>;

/// The `gpo` engine: the Section 3.3 analysis procedure on `net`, with every
/// set family a canonical ZDD (GpnAnalyzer<ZddFamily>). The initial family
/// r0 is built compositionally, so no net is too conflict-rich to start.
/// Reports the store's counters in GpoResult::family_stats.
[[nodiscard]] GpoResult run_gpo(const petri::PetriNet& net,
                                const GpoOptions& options = {});

/// The same search over a chosen family representation. kZdd is run_gpo()
/// above; kInterned reports its interner counters. With kExplicit or
/// kInterned, nets whose explicit r0 would exceed the enumeration cap throw
/// std::length_error.
[[nodiscard]] GpoResult run_gpo(const petri::PetriNet& net, FamilyKind kind,
                                const GpoOptions& options = {});

/// The search over the paper-literal ExplicitFamily (sorted vectors of
/// transition sets): the reference oracle the tests and the bench's seed
/// column compare `gpo` against. Same as run_gpo(net, kExplicit, options).
[[nodiscard]] GpoResult run_gpo_explicit(const petri::PetriNet& net,
                                         const GpoOptions& options = {});

[[nodiscard]] inline const char* family_kind_name(FamilyKind k) {
  switch (k) {
    case FamilyKind::kExplicit:
      return "explicit";
    case FamilyKind::kBdd:
      return "bdd";
    case FamilyKind::kInterned:
      return "interned";
    case FamilyKind::kZdd:
      return "zdd";
  }
  return "unknown";
}

}  // namespace gpo::core
