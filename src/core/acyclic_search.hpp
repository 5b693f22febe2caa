// Optimal acyclic throughput with guarded nodes (Theorem 4.1): GreedyTest
// is exact and monotone in T (Lemma 4.5), so a dichotomic search over
// [0, Lemma-5.1-bound] converges to T*_ac; the witness word then yields the
// low-degree scheme of Lemma 4.6.
#pragma once

#include "bmp/core/greedy_test.hpp"
#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/core/word.hpp"

namespace bmp {

/// T*_ac by bisection; `iters` halvings (default reaches double precision).
/// Also works for open-only instances (where it equals the closed form).
double optimal_acyclic_throughput(const Instance& instance,
                                  GreedyPolicy policy = GreedyPolicy::kPaper,
                                  int iters = 100);

struct AcyclicSolution {
  /// The searched T*_ac, lowered by the word's shortfall plus one tie when
  /// the word misses validity there by more than 1e-9·T (word_shortfall).
  double throughput = 0.0;
  Word word;              ///< witness word from GreedyTest.
  BroadcastScheme scheme; ///< low-degree scheme feeding every node at `throughput`.
};

/// Full §IV pipeline: dichotomic search + Lemma 4.6 scheme construction.
AcyclicSolution solve_acyclic(const Instance& instance, int iters = 100);

}  // namespace bmp
