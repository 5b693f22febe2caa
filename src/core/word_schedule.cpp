#include "bmp/core/word_schedule.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <stdexcept>

#include "bmp/core/greedy_test.hpp"

namespace bmp {

namespace {
struct SenderSlot {
  int id;
  double residual;
};

/// Draws `need` units from the pool in `order`, adding edges to `receiver`
/// and raising its depth past each sender it draws from. Returns the amount
/// actually drawn.
double drain(std::deque<SenderSlot>& pool, int receiver, double need,
             BroadcastScheme& scheme, double eps, FeedOrder order,
             std::vector<int>& depth) {
  double drawn = 0.0;
  while (need > eps && !pool.empty()) {
    auto slot = pool.begin();
    if (order == FeedOrder::kLatestFirst) {
      slot = std::prev(pool.end());
    } else if (order == FeedOrder::kShallowest) {
      slot = std::min_element(pool.begin(), pool.end(),
                              [&depth](const SenderSlot& a, const SenderSlot& b) {
                                return depth[static_cast<std::size_t>(a.id)] <
                                       depth[static_cast<std::size_t>(b.id)];
                              });
    }
    const double take = std::min(slot->residual, need);
    if (take > eps) {
      scheme.add(slot->id, receiver, take);
      slot->residual -= take;
      need -= take;
      drawn += take;
      int& d = depth[static_cast<std::size_t>(receiver)];
      d = std::max(d, depth[static_cast<std::size_t>(slot->id)] + 1);
    }
    if (slot->residual <= eps) pool.erase(slot);
  }
  return drawn;
}
}  // namespace

WordSchedule build_scheme_from_word(const Instance& instance, const Word& word,
                                    double T, bool with_trace, FeedOrder order) {
  if (count_open(word) != instance.n() || count_guarded(word) != instance.m()) {
    throw std::invalid_argument(
        "build_scheme_from_word: word letter counts do not match instance");
  }
  if (T < 0.0) throw std::invalid_argument("build_scheme_from_word: negative T");

  WordSchedule result{BroadcastScheme(instance.size()), {}, {}};
  // Relative to T and to the instance (never an absolute floor, which
  // would swallow whole bandwidths on Gbit-vs-bit unit choices), and no
  // looser than the ties GreedyTest resolved when it accepted the word.
  const double eps = 1e-9 * T + greedy_tie_tolerance(instance, T);
  std::vector<int> depth(static_cast<std::size_t>(instance.size()), 0);

  std::deque<SenderSlot> open_pool;
  std::deque<SenderSlot> guarded_pool;
  open_pool.push_back({0, instance.b(0)});

  double open_open = 0.0;  // W(π): cumulative open->open transfer.
  std::string prefix;

  const auto pool_total = [](const std::deque<SenderSlot>& pool) {
    double sum = 0.0;
    for (const auto& slot : pool) sum += slot.residual;
    return sum;
  };
  const auto record = [&] {
    if (with_trace) {
      result.trace.push_back(
          {prefix, pool_total(open_pool), pool_total(guarded_pool), open_open});
    }
  };
  record();  // ε row.
  if (T <= 0.0) return result;  // nothing to transfer; empty scheme

  int opens = 0;
  int guardeds = 0;
  for (const Letter letter : word) {
    if (letter == Letter::kGuarded) {
      ++guardeds;
      const int node = instance.n() + guardeds;
      const double got =
          drain(open_pool, node, T, result.scheme, eps, order, depth);
      if (got + eps < T) {
        throw std::invalid_argument(
            "build_scheme_from_word: word invalid for T (open pool dry before " +
            std::to_string(node) + ")");
      }
      guarded_pool.push_back({node, instance.b(node)});
      result.order.push_back(node);
      prefix.push_back('G');
    } else {
      ++opens;
      const int node = opens;
      const double from_guarded =
          drain(guarded_pool, node, T, result.scheme, eps, order, depth);
      const double from_open = drain(open_pool, node, T - from_guarded,
                                     result.scheme, eps, order, depth);
      if (from_guarded + from_open + eps < T) {
        throw std::invalid_argument(
            "build_scheme_from_word: word invalid for T (pools dry before " +
            std::to_string(node) + ")");
      }
      open_open += from_open;
      open_pool.push_back({node, instance.b(node)});
      result.order.push_back(node);
      prefix.push_back('O');
    }
    record();
  }
  return result;
}

}  // namespace bmp
