// Algorithm 2, "GreedyTest" (paper §IV.B): decides in linear time whether a
// throughput T is acyclically feasible on an instance with guarded nodes,
// and if so returns a valid coding word. Lemma 4.5 proves the test is exact:
// it succeeds iff T <= T*_ac, which also makes it monotone in T, enabling
// the dichotomic search of acyclic_search.hpp.
//
// The greedy builds the word left to right, preferring the guarded letter
// (conservative solutions dominate, Lemma 4.3) and forcing an open letter
// only when
//   (a) there is not enough open bandwidth for a guarded node (O < T), or
//   (b) taking a guarded node now would strand the remainder
//       (O + G + b_next_guarded - T < T), or
//   (c) one guarded node is left and it is smaller than the next open node
//       (the "delay the last guarded node" rule, lines 8-11).
// Each rule can be disabled through GreedyPolicy for the ablation study
// (`bench_paper ablation_greedy`), which shows both (b) and (c) are needed for
// exactness.
#pragma once

#include <optional>
#include <type_traits>

#include "bmp/core/instance.hpp"
#include "bmp/core/word.hpp"

namespace bmp {

enum class GreedyPolicy {
  kPaper,             ///< full Algorithm 2
  kNoLookahead,       ///< drop rule (b)
  kNoLastGuardedRule, ///< drop rule (c)
  kBandwidthGreedy,   ///< naive: pick the class whose next node is larger
};

/// The tie tolerance greedy_test resolves boundary decisions with: relative
/// to the instance's own scale (never an absolute floor, so platforms
/// measured in bit/s and Gbit/s behave identically). Exposed so a bisection
/// driver can hoist it out of the probe loop — any T' <= T yields the same
/// or a smaller tolerance, so the value computed at the search's upper
/// bound is valid (and fixed) for every probe below it.
template <typename Num>
[[nodiscard]] Num greedy_tie_tolerance(const BasicInstance<Num>& instance,
                                       const Num& T) {
  if constexpr (std::is_floating_point_v<Num>) {
    const Num scale = instance.total_sum() > T ? instance.total_sum() : T;
    return Num(1e-12) * scale;
  } else {
    (void)instance;
    (void)T;
    return Num(0);
  }
}

/// Allocation-free core of GreedyTest(T): rebuilds the word into `word`
/// (cleared, capacity kept) and returns true on success. A dichotomic
/// search probing ~50 values reuses one buffer across all probes instead of
/// allocating a Word per probe; `tie_tol` can be hoisted the same way (pass
/// greedy_tie_tolerance(instance, hi) computed once). Semantics are those
/// of greedy_test below.
template <typename Num>
bool greedy_test_into(const BasicInstance<Num>& instance, const Num& T,
                      Word& word, GreedyPolicy policy, const Num& tie_tol) {
  const int n = instance.n();
  const int m = instance.m();
  auto st = PrefixState<Num>::initial(instance);
  word.clear();
  word.reserve(static_cast<std::size_t>(n + m));
  // "x < y beyond the tie tolerance".
  const auto strictly_less = [&tie_tol](const Num& x, const Num& y) {
    return x < y - tie_tol;
  };

  while (st.opens + st.guardeds < n + m) {
    // Line 3: whatever comes next needs T units of total bandwidth.
    if (strictly_less(st.open_avail + st.guarded_avail, T)) return false;

    Letter letter = Letter::kGuarded;
    if (st.opens != n) {
      if (st.guardeds == m) {
        letter = Letter::kOpen;
      } else if (policy == GreedyPolicy::kBandwidthGreedy) {
        // Naive ablation: take the larger next node if feasible.
        const Num& next_open = instance.b(st.opens + 1);
        const Num& next_guarded = instance.b(n + st.guardeds + 1);
        const bool guarded_ok = !strictly_less(st.open_avail, T);
        letter = (guarded_ok && !(next_guarded < next_open)) ? Letter::kGuarded
                                                             : Letter::kOpen;
      } else if (st.guardeds == m - 1 && policy != GreedyPolicy::kNoLastGuardedRule) {
        // Lines 8-11: only one guarded node left; it can be delayed behind
        // larger open nodes.
        if (strictly_less(st.open_avail, T) ||
            instance.b(n + st.guardeds + 1) < instance.b(st.opens + 1)) {
          letter = Letter::kOpen;
        }
      } else {
        bool force_open = strictly_less(st.open_avail, T);
        if (!force_open && policy != GreedyPolicy::kNoLookahead) {
          // Rule (b): after consuming T open units and gaining the guarded
          // node's bandwidth, at least T must remain overall.
          const Num after = st.open_avail + st.guarded_avail +
                            instance.b(n + st.guardeds + 1) - T;
          force_open = strictly_less(after, T);
        }
        if (force_open) letter = Letter::kOpen;
      }
    }

    // Line 17: appending a guarded letter with O < T would drive O(pi)
    // negative (happens when opens are exhausted but guardeds remain).
    if (letter == Letter::kGuarded && strictly_less(st.open_avail, T)) {
      return false;
    }

    st.append(letter, instance, T);
    word.push_back(letter);
  }
  return true;
}

template <typename Num>
bool greedy_test_into(const BasicInstance<Num>& instance, const Num& T,
                      Word& word, GreedyPolicy policy = GreedyPolicy::kPaper) {
  return greedy_test_into(instance, T, word, policy,
                          greedy_tie_tolerance(instance, T));
}

/// Runs GreedyTest(T). Returns the constructed word on success, nullopt if
/// T is infeasible (for kPaper this is exact by Lemma 4.5; ablated policies
/// may reject feasible T).
///
/// Numerical note: the paper's decisions use *strict* inequalities
/// (O(π) < T forces an open letter; equality takes the guarded letter).
/// Structured instances (e.g. the tight homogeneous family of Fig. 7) hit
/// those boundaries exactly at dyadic probe values, where double roundoff
/// would otherwise flip the branch and spuriously reject a feasible T. The
/// implementation therefore resolves ties within greedy_tie_tolerance in
/// favor of the guarded letter — matching the exact-arithmetic behavior.
/// The prefix state is not clamped, so an accepted word may miss validity
/// by up to one tie per letter; word_shortfall measures by how much, and
/// solve_acyclic lowers its claim by that amount when it exceeds 1e-9·T.
/// Rational instantiations keep tol = 0 (bit-exact spec).
template <typename Num>
std::optional<Word> greedy_test(const BasicInstance<Num>& instance, const Num& T,
                                GreedyPolicy policy = GreedyPolicy::kPaper) {
  Word word;
  if (!greedy_test_into(instance, T, word, policy)) return std::nullopt;
  return word;
}

}  // namespace bmp
