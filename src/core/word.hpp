// Coding words and the O/G/W prefix-state recursions of paper §IV.
//
// An increasing order σ over the nodes is encoded by a binary word π of n
// letters O (open, "circle" in the paper) and m letters G (guarded,
// "square"): the k-th letter says whether the k-th node served is the next
// unused open or the next unused guarded node. For a conservative partial
// solution (Lemma 4.3) the remaining open bandwidth O(π), remaining guarded
// bandwidth G(π) and the open->open transfer volume W(π) are functions of π
// alone (Lemma 4.4):
//
//   O(ε)=b0, G(ε)=0, W(ε)=0
//   O(πG)=O(π)-T               G(πG)=G(π)+b_next_guarded   W(πG)=W(π)
//   O(πO)=O(π)+b_next_open-max(0,T-G(π))
//   G(πO)=max(0,G(π)-T)        W(πO)=W(π)+max(0,T-G(π))
//
// A word is *valid* for throughput T iff O(π') >= T before every G letter
// and O(π')+G(π') >= T before every O letter (appendix IX-C).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bmp/core/instance.hpp"

namespace bmp {

enum class Letter : std::uint8_t { kOpen, kGuarded };

using Word = std::vector<Letter>;

/// Parses "OGOGG"-style strings (O = open, G = guarded). Throws on other
/// characters.
Word make_word(std::string_view text);
std::string to_string(const Word& word);
int count_open(const Word& word);
int count_guarded(const Word& word);

/// Prefix state (O(π), G(π), W(π)) plus the counts of consumed letters.
template <typename Num>
struct PrefixState {
  Num open_avail{};     ///< O(π): open bandwidth still available.
  Num guarded_avail{};  ///< G(π): guarded bandwidth still available.
  Num open_open{};      ///< W(π): open->open transfer used so far.
  int opens = 0;        ///< |π|_O.
  int guardeds = 0;     ///< |π|_G.

  static PrefixState initial(const BasicInstance<Num>& instance) {
    PrefixState st;
    st.open_avail = instance.b(0);
    return st;
  }

  /// Whether the next letter can be appended while keeping the partial
  /// conservative solution feasible for throughput T.
  [[nodiscard]] bool can_append(Letter letter, const BasicInstance<Num>& instance,
                                const Num& T) const {
    if (letter == Letter::kGuarded) {
      return guardeds < instance.m() && !(open_avail < T);
    }
    return opens < instance.n() && !(open_avail + guarded_avail < T);
  }

  /// Applies the recursions above. Caller must have checked can_append
  /// (feasibility is NOT re-verified, so the greedy test can also drive the
  /// state into failure and detect it).
  void append(Letter letter, const BasicInstance<Num>& instance, const Num& T) {
    if (letter == Letter::kGuarded) {
      open_avail = open_avail - T;
      ++guardeds;
      guarded_avail = guarded_avail + instance.b(instance.n() + guardeds);
    } else {
      const Num from_guarded = guarded_avail < T ? guarded_avail : T;
      const Num from_open = T - from_guarded;
      guarded_avail = guarded_avail - from_guarded;
      open_open = open_open + from_open;
      ++opens;
      open_avail = open_avail - from_open + instance.b(opens);
    }
  }
};

/// How far a complete word misses validity for throughput T (appendix
/// IX-C): the largest T - O(π') before a G letter or T - O(π') - G(π')
/// before an O letter, walking the recursions above without clamping; 0
/// when the word is valid. The letter counts must match the instance.
template <typename Num>
Num word_shortfall(const BasicInstance<Num>& instance, const Word& word,
                   const Num& T) {
  auto st = PrefixState<Num>::initial(instance);
  Num worst(0);
  for (const Letter letter : word) {
    const Num have = letter == Letter::kGuarded
                         ? st.open_avail
                         : st.open_avail + st.guarded_avail;
    if (worst < T - have) worst = T - have;
    st.append(letter, instance, T);
  }
  return worst;
}

/// Validity check of a complete word for throughput T. Exact when
/// Num = util::Rational.
template <typename Num>
bool check_word(const BasicInstance<Num>& instance, const Word& word, const Num& T) {
  return count_open(word) == instance.n() &&
         count_guarded(word) == instance.m() &&
         !(Num(0) < word_shortfall(instance, word, T));
}

/// All words with `opens` O letters and `guardeds` G letters, in
/// lexicographic order (O < G). Used by the exact brute-force solver; the
/// count is C(opens+guardeds, opens), so keep sizes small.
std::vector<Word> enumerate_words(int opens, int guardeds);

}  // namespace bmp
