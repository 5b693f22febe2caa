// Low-degree broadcast scheme from a valid coding word (Lemma 4.6).
//
// Nodes are satisfied in the order the word dictates; every node is fed at
// exactly rate T from the senders that still have unused upload: guarded
// receivers draw from open senders only (firewall constraint), open
// receivers drain guarded senders first (conservative solutions, Lemma 4.3)
// and top up from open senders. With the paper's earliest-first feeding
// order and a word produced by GreedyTest this yields the degree bounds of
// Theorem 4.1:
//   guarded nodes:  o_j <= ceil(b_j/T) + 1
//   open nodes:     o_i <= ceil(b_i/T) + 2   (at most one node +3)
// The other feeding orders trade those bounds for depth (paper §VII's
// follow-up objective; see depth.hpp).
#pragma once

#include <string>
#include <vector>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/core/word.hpp"

namespace bmp {

struct WordSchedule {
  BroadcastScheme scheme;
  /// Serving order σ (node ids, source excluded), e.g. Fig. 5's 3 1 4 2 5.
  std::vector<int> order;

  /// One row per processed letter — reproduces Table I (O(π), G(π), W(π)).
  struct TraceRow {
    std::string prefix;    ///< word prefix, e.g. "GO"
    double open_avail;     ///< O(π)
    double guarded_avail;  ///< G(π)
    double open_open;      ///< W(π)
  };
  std::vector<TraceRow> trace;  ///< includes the initial ε row.
};

/// Which eligible sender the builder drains next.
enum class FeedOrder {
  kEarliestFirst,  ///< the paper's rule (Lemma 4.6 degree bounds hold)
  kLatestFirst,    ///< ablation: freshly added senders first — deepest chains
  kShallowest,     ///< depth-greedy: the sender with the smallest depth
};

/// Builds the scheme; throws std::invalid_argument if the word is not valid
/// for throughput T on this instance (detected as a sender pool running
/// dry). T == 0 yields an empty scheme. One tolerance, 1e-9·T plus
/// greedy_tie_tolerance(instance, T), governs every comparison: a sender
/// with that little upload left is retired, and a node fed that close to T
/// counts as fed. A word that misses validity by more (word_shortfall) must
/// be built at a lower T; solve_acyclic does so.
WordSchedule build_scheme_from_word(const Instance& instance, const Word& word,
                                    double T, bool with_trace = false,
                                    FeedOrder order = FeedOrder::kEarliestFirst);

}  // namespace bmp
