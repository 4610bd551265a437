#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace gpo::bdd {
namespace {

TEST(Bdd, TerminalsAndVars) {
  BddManager mgr(4);
  EXPECT_NE(kFalse, kTrue);
  Ref x0 = mgr.var(0);
  EXPECT_EQ(mgr.var(0), x0);  // hash-consed
  EXPECT_NE(mgr.var(1), x0);
  EXPECT_EQ(mgr.var_of(x0), 0u);
  EXPECT_EQ(mgr.low_of(x0), kFalse);
  EXPECT_EQ(mgr.high_of(x0), kTrue);
}

TEST(Bdd, CanonicityOfEquivalentFormulas) {
  BddManager mgr(4);
  Ref a = mgr.var(0), b = mgr.var(1);
  // a AND b == NOT(NOT a OR NOT b)
  Ref lhs = mgr.apply_and(a, b);
  Ref rhs = mgr.apply_not(mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b)));
  EXPECT_EQ(lhs, rhs);
  // XOR expansions agree.
  EXPECT_EQ(mgr.apply_xor(a, b),
            mgr.apply_or(mgr.apply_and(a, mgr.apply_not(b)),
                         mgr.apply_and(mgr.apply_not(a), b)));
  // Constants.
  EXPECT_EQ(mgr.apply_and(a, kFalse), kFalse);
  EXPECT_EQ(mgr.apply_or(a, kTrue), kTrue);
  EXPECT_EQ(mgr.apply_and(a, kTrue), a);
  EXPECT_EQ(mgr.apply_xor(a, a), kFalse);
  EXPECT_EQ(mgr.apply_diff(a, a), kFalse);
}

TEST(Bdd, IteIdentities) {
  BddManager mgr(4);
  Ref a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  EXPECT_EQ(mgr.ite(kTrue, b, c), b);
  EXPECT_EQ(mgr.ite(kFalse, b, c), c);
  EXPECT_EQ(mgr.ite(a, kTrue, kFalse), a);
  EXPECT_EQ(mgr.ite(a, b, b), b);
  EXPECT_EQ(mgr.ite(a, b, c),
            mgr.apply_or(mgr.apply_and(a, b),
                         mgr.apply_and(mgr.apply_not(a), c)));
}

TEST(Bdd, ImpAndIff) {
  BddManager mgr(3);
  Ref a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(mgr.apply_imp(a, b), mgr.apply_or(mgr.apply_not(a), b));
  EXPECT_EQ(mgr.apply_iff(a, b), mgr.apply_not(mgr.apply_xor(a, b)));
}

TEST(Bdd, CubeIsSortedConjunction) {
  BddManager mgr(6);
  Ref c1 = mgr.cube({4, 0, 2});
  Ref c2 = mgr.apply_and(mgr.var(0), mgr.apply_and(mgr.var(2), mgr.var(4)));
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(mgr.cube({}), kTrue);
}

TEST(Bdd, ExistsQuantification) {
  BddManager mgr(4);
  Ref a = mgr.var(0), b = mgr.var(1);
  Ref f = mgr.apply_and(a, b);
  EXPECT_EQ(mgr.exists(f, mgr.cube({0})), b);
  EXPECT_EQ(mgr.exists(f, mgr.cube({0, 1})), kTrue);
  EXPECT_EQ(mgr.exists(kFalse, mgr.cube({0})), kFalse);
  // Quantifying a variable not in the support is a no-op.
  EXPECT_EQ(mgr.exists(f, mgr.cube({3})), f);
  // exists x . (x XOR y) == true
  EXPECT_EQ(mgr.exists(mgr.apply_xor(a, b), mgr.cube({0})), kTrue);
}

TEST(Bdd, ForallQuantification) {
  BddManager mgr(4);
  Ref a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(mgr.forall(mgr.apply_or(a, b), mgr.cube({0})), b);
  EXPECT_EQ(mgr.forall(mgr.apply_and(a, b), mgr.cube({0})), kFalse);
  EXPECT_EQ(mgr.forall(kTrue, mgr.cube({0, 1})), kTrue);
}

TEST(Bdd, AndExistsMatchesComposition) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    BddManager mgr(8);
    auto random_fn = [&]() {
      Ref f = rng() % 2 ? kTrue : kFalse;
      for (int i = 0; i < 6; ++i) {
        Ref lit = rng() % 2 ? mgr.var(rng() % 8) : mgr.nvar(rng() % 8);
        f = rng() % 2 ? mgr.apply_and(f, lit) : mgr.apply_or(f, lit);
      }
      return f;
    };
    Ref f = random_fn(), g = random_fn();
    std::vector<Var> qvars;
    for (Var v = 0; v < 8; ++v)
      if (rng() % 3 == 0) qvars.push_back(v);
    Ref cube = mgr.cube(qvars);
    EXPECT_EQ(mgr.and_exists(f, g, cube),
              mgr.exists(mgr.apply_and(f, g), cube));
  }
}

// fire() against the successor relation computed assignment by assignment:
// random functions over up to 10 variables, several random updates per
// manager (so memo entries of different updates share one table), and half
// the managers on a 64-entry computed table, where entries are overwritten
// and recomputed constantly.
TEST(Bdd, FireMatchesExplicitSuccessors) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 120; ++trial) {
    const Var nv = 1 + rng() % 10;
    const std::size_t cache_entries = trial % 2 ? 64 : std::size_t{1} << 16;
    BddManager mgr(nv, std::size_t{1} << 20, cache_entries);
    std::vector<Var> all(nv);
    for (Var v = 0; v < nv; ++v) all[v] = v;
    auto mask_of = [&](const util::Bitset& b) {
      unsigned m = 0;
      for (Var v = 0; v < nv; ++v)
        if (b.test(v)) m |= 1u << v;
      return m;
    };

    std::vector<std::vector<VarUpdate>> updates(3);
    std::vector<UpdateId> ids;
    for (auto& u : updates) {
      for (Var v = 0; v < nv; ++v)
        if (rng() % 3 == 0)
          u.push_back({v, rng() % 2 == 0, rng() % 2 == 0});
      std::shuffle(u.begin(), u.end(), rng);  // add_update sorts
      ids.push_back(mgr.add_update(u));
    }

    for (int fn = 0; fn < 3; ++fn) {
      // A random truth table, as an OR of minterms.
      const unsigned density = 1 + rng() % 99;
      std::set<unsigned> members;
      Ref f = kFalse;
      for (unsigned m = 0; m < (1u << nv); ++m) {
        if (rng() % 100 >= density) continue;
        members.insert(m);
        Ref minterm = kTrue;
        for (Var v = 0; v < nv; ++v)
          minterm = mgr.apply_and(minterm,
                                  m >> v & 1 ? mgr.var(v) : mgr.nvar(v));
        f = mgr.apply_or(f, minterm);
      }
      for (std::size_t k = 0; k < updates.size(); ++k) {
        std::set<unsigned> expect;
        for (unsigned m : members) {
          bool enabled = true;
          unsigned next = m;
          for (const VarUpdate& u : updates[k]) {
            if (u.test && !(m >> u.var & 1)) enabled = false;
            next = u.value ? next | 1u << u.var : next & ~(1u << u.var);
          }
          if (enabled) expect.insert(next);
        }
        std::set<unsigned> got;
        mgr.enumerate_sats(mgr.fire(f, ids[k]), all, std::size_t{1} << 12,
                           [&](const util::Bitset& b) {
                             got.insert(mask_of(b));
                           });
        EXPECT_EQ(got, expect) << "trial " << trial << " update " << k;
      }
    }
  }
}

TEST(Bdd, AddUpdateRejectsBadVariables) {
  BddManager mgr(4);
  EXPECT_THROW((void)mgr.add_update({{4, true, false}}), std::invalid_argument);
  EXPECT_THROW((void)mgr.add_update({{1, true, false}, {1, false, true}}),
               std::invalid_argument);
  // An empty update is the identity.
  Ref f = mgr.apply_or(mgr.var(0), mgr.nvar(3));
  EXPECT_EQ(mgr.fire(f, mgr.add_update({})), f);
}

TEST(Bdd, RestrictVar) {
  BddManager mgr(4);
  Ref a = mgr.var(0), b = mgr.var(1);
  Ref f = mgr.ite(a, b, mgr.apply_not(b));
  EXPECT_EQ(mgr.restrict_var(f, 0, true), b);
  EXPECT_EQ(mgr.restrict_var(f, 0, false), mgr.apply_not(b));
  // Shannon expansion reconstructs f.
  Ref rebuilt = mgr.ite(a, mgr.restrict_var(f, 0, true),
                        mgr.restrict_var(f, 0, false));
  EXPECT_EQ(rebuilt, f);
}

TEST(Bdd, SatCount) {
  BddManager mgr(10);
  std::vector<Var> all;
  for (Var v = 0; v < 10; ++v) all.push_back(v);
  EXPECT_EQ(mgr.sat_count(kTrue, all), 1024.0);
  EXPECT_EQ(mgr.sat_count(kFalse, all), 0.0);
  EXPECT_EQ(mgr.sat_count(mgr.var(3), all), 512.0);
  Ref f = mgr.apply_and(mgr.var(0), mgr.var(9));
  EXPECT_EQ(mgr.sat_count(f, all), 256.0);
  // Restricted universe.
  EXPECT_EQ(mgr.sat_count(mgr.var(0), {0, 1}), 2.0);
  // Support outside universe is rejected.
  EXPECT_THROW((void)mgr.sat_count(mgr.var(5), {0, 1}),
               std::invalid_argument);
}

TEST(Bdd, PickOneSat) {
  BddManager mgr(6);
  Ref f = mgr.apply_and(mgr.var(2), mgr.nvar(4));
  util::Bitset a = mgr.pick_one_sat(f);
  EXPECT_TRUE(a.test(2));
  EXPECT_FALSE(a.test(4));
  EXPECT_THROW((void)mgr.pick_one_sat(kFalse), std::invalid_argument);
}

TEST(Bdd, EnumerateSats) {
  BddManager mgr(3);
  Ref f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2));
  std::vector<util::Bitset> sats;
  bool complete = mgr.enumerate_sats(f, {0, 1, 2}, 100,
                                     [&](const util::Bitset& b) {
                                       sats.push_back(b);
                                     });
  EXPECT_TRUE(complete);
  // (a&b)|c over 3 vars has 5 satisfying assignments.
  EXPECT_EQ(sats.size(), 5u);
  for (const auto& b : sats)
    EXPECT_TRUE((b.test(0) && b.test(1)) || b.test(2));
}

TEST(Bdd, EnumerateSatsTruncates) {
  BddManager mgr(5);
  std::size_t count = 0;
  bool complete = mgr.enumerate_sats(kTrue, {0, 1, 2, 3, 4}, 7,
                                     [&](const util::Bitset&) { ++count; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(count, 7u);
}

TEST(Bdd, Support) {
  BddManager mgr(8);
  Ref f = mgr.apply_and(mgr.var(1), mgr.apply_xor(mgr.var(4), mgr.var(6)));
  EXPECT_EQ(mgr.support(f), (std::vector<Var>{1, 4, 6}));
  EXPECT_TRUE(mgr.support(kTrue).empty());
}

TEST(Bdd, NodeCount) {
  BddManager mgr(4);
  EXPECT_EQ(mgr.node_count(kTrue), 1u);
  EXPECT_EQ(mgr.node_count(mgr.var(0)), 3u);  // node + 2 terminals
  Ref f = mgr.apply_xor(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.node_count(f), 5u);  // 1 top, 2 mid, 2 terminals
}

TEST(Bdd, NodeLimitThrows) {
  BddManager mgr(40, /*node_limit=*/64);
  Ref f = kFalse;
  EXPECT_THROW(
      {
        // Parity of 40 variables needs far more than 64 nodes.
        for (Var v = 0; v < 40; ++v) f = mgr.apply_xor(f, mgr.var(v));
      },
      BddLimitExceeded);
}

TEST(Bdd, ReducednessInvariant) {
  // No node may have identical children, and the unique table must never
  // contain duplicates. Exercised via a random workload.
  std::mt19937 rng(5);
  BddManager mgr(10);
  std::vector<Ref> pool{kTrue, kFalse};
  for (int i = 0; i < 300; ++i) {
    Ref a = pool[rng() % pool.size()];
    Ref b = pool[rng() % pool.size()];
    switch (rng() % 4) {
      case 0: pool.push_back(mgr.apply_and(a, b)); break;
      case 1: pool.push_back(mgr.apply_or(a, b)); break;
      case 2: pool.push_back(mgr.apply_xor(a, b)); break;
      default: pool.push_back(mgr.var(rng() % 10)); break;
    }
  }
  for (std::size_t i = 2; i < mgr.total_nodes(); ++i) {
    Ref r = static_cast<Ref>(i);
    EXPECT_NE(mgr.low_of(r), mgr.high_of(r)) << "redundant node " << i;
    EXPECT_LT(mgr.var_of(r), 10u);
    // Ordered: children sit strictly below.
    if (!mgr.is_terminal(mgr.low_of(r))) {
      EXPECT_GT(mgr.var_of(mgr.low_of(r)), mgr.var_of(r));
    }
    if (!mgr.is_terminal(mgr.high_of(r))) {
      EXPECT_GT(mgr.var_of(mgr.high_of(r)), mgr.var_of(r));
    }
  }
}

// Exhaustive semantic check against truth tables on 4 variables.
TEST(Bdd, TruthTableEquivalence) {
  std::mt19937 rng(123);
  BddManager mgr(4);
  for (int trial = 0; trial < 30; ++trial) {
    // Build a random expression tree and an equivalent evaluator.
    struct Expr {
      int op;  // 0 var, 1 and, 2 or, 3 xor, 4 not
      Var v = 0;
      int lhs = -1, rhs = -1;
    };
    std::vector<Expr> exprs;
    std::function<int()> build = [&]() -> int {
      if (exprs.size() > 10 || rng() % 3 == 0) {
        exprs.push_back({0, static_cast<Var>(rng() % 4), -1, -1});
        return static_cast<int>(exprs.size()) - 1;
      }
      int op = 1 + static_cast<int>(rng() % 4);
      if (op == 4) {
        int l = build();
        exprs.push_back({4, 0, l, -1});
      } else {
        int l = build();
        int r = build();
        exprs.push_back({op, 0, l, r});
      }
      return static_cast<int>(exprs.size()) - 1;
    };
    int root = build();

    std::function<Ref(int)> to_bdd = [&](int e) -> Ref {
      const Expr& x = exprs[e];
      switch (x.op) {
        case 0: return mgr.var(x.v);
        case 1: return mgr.apply_and(to_bdd(x.lhs), to_bdd(x.rhs));
        case 2: return mgr.apply_or(to_bdd(x.lhs), to_bdd(x.rhs));
        case 3: return mgr.apply_xor(to_bdd(x.lhs), to_bdd(x.rhs));
        default: return mgr.apply_not(to_bdd(x.lhs));
      }
    };
    std::function<bool(int, unsigned)> eval = [&](int e,
                                                  unsigned bits) -> bool {
      const Expr& x = exprs[e];
      switch (x.op) {
        case 0: return (bits >> x.v) & 1;
        case 1: return eval(x.lhs, bits) && eval(x.rhs, bits);
        case 2: return eval(x.lhs, bits) || eval(x.rhs, bits);
        case 3: return eval(x.lhs, bits) != eval(x.rhs, bits);
        default: return !eval(x.lhs, bits);
      }
    };

    Ref f = to_bdd(root);
    for (unsigned bits = 0; bits < 16; ++bits) {
      Ref cur = f;
      while (!mgr.is_terminal(cur))
        cur = ((bits >> mgr.var_of(cur)) & 1) ? mgr.high_of(cur)
                                              : mgr.low_of(cur);
      EXPECT_EQ(cur == kTrue, eval(root, bits)) << "bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace gpo::bdd
