#include "bmp/core/acyclic_search.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bmp/core/bounds.hpp"
#include "bmp/core/word_schedule.hpp"

namespace bmp {

namespace {

struct SearchResult {
  double throughput;
  std::optional<Word> word;
};

SearchResult search(const Instance& instance, GreedyPolicy policy, int iters) {
  if (instance.n() + instance.m() == 0) {
    return {instance.b(0), Word{}};
  }
  const double hi0 = cyclic_upper_bound(instance);
  // Allocation-free probing: the bisection reuses two Word buffers (the
  // best word so far and the in-flight probe, swapped on success) and
  // hoists the tie tolerance out of the loop — it is computed once at the
  // search's upper bound, which dominates every probe below it.
  const double tie_tol = greedy_tie_tolerance(instance, hi0);
  Word best;
  Word probe;
  if (greedy_test_into(instance, hi0, best, policy, tie_tol)) {
    return {hi0, std::move(best)};
  }
  double lo = 0.0;
  double hi = hi0;
  bool has_best = greedy_test_into(instance, lo, best, policy, tie_tol);
  for (int k = 0; k < iters; ++k) {
    const double mid = 0.5 * (lo + hi);
    if (greedy_test_into(instance, mid, probe, policy, tie_tol)) {
      lo = mid;
      std::swap(best, probe);
      has_best = true;
    } else {
      hi = mid;
    }
  }
  if (!has_best) return {lo, std::nullopt};
  return {lo, std::move(best)};
}

}  // namespace

double optimal_acyclic_throughput(const Instance& instance, GreedyPolicy policy,
                                  int iters) {
  return search(instance, policy, iters).throughput;
}

AcyclicSolution solve_acyclic(const Instance& instance, int iters) {
  SearchResult found = search(instance, GreedyPolicy::kPaper, iters);
  if (!found.word.has_value()) {
    throw std::logic_error("solve_acyclic: even T=0 rejected (empty instance?)");
  }
  // GreedyTest accepts each letter within one tie, so the word may miss
  // validity at the searched T by up to one tie per letter. Past what the
  // builder's tolerance absorbs, claim (and build at) a T that the word
  // meets with a tie to spare: lowering T by d lowers every deficit by at
  // least d.
  double T = found.throughput;
  const double shortfall = word_shortfall(instance, *found.word, T);
  if (shortfall > 1e-9 * T) {
    T = std::max(0.0, T - shortfall - greedy_tie_tolerance(instance, T));
  }
  WordSchedule ws = build_scheme_from_word(instance, *found.word, T);
  return {T, std::move(*found.word), std::move(ws.scheme)};
}

}  // namespace bmp
