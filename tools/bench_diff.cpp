// bench_diff: the perf-trajectory regression gate.
//
// Compares two BENCH_*.json reports (baseline vs candidate, as written by
// the bench binaries through benchutil::JsonReport + add_header) metric by
// metric, with a per-metric direction and tolerance, prints a human diff
// table, and exits nonzero when any gated metric regressed — that exit
// code IS the CI perf-gate.
//
// Metric classes (keyed by name, deepest rule wins):
//   * profile.* counters/calls/work  deterministic work attribution —
//     compared EXACTLY (tolerance 0, either direction). A drift means the
//     algorithm did different work, which is a behavior change the commit
//     must own by refreshing bench/baselines/. A key present in only one
//     report (a phase or counter added or removed) regresses too.
//   * ratios (".ratio", "share", "hit_rate", "efficiency")  higher-better,
//     5% tolerance.
//   * throughput ("per_s", "throughput", "chunks_s")  higher-better, wall
//     derived, default 45% tolerance (noisy shared runners).
//   * latency/time ("_us", "_ms", "_s", "seconds", "wall")  lower-better,
//     same tolerance.
//   * header fields (schema, bench, git_sha, machine_*, compiler,
//     build_type)  never gated; schema/bench mismatch is a usage error,
//     machine mismatch prints a warning.
//   * anything else  informational only.
//
// --counters-only restricts gating to the exact class — the mode for
// committed baselines, which must gate identically on any machine.
// --tolerance <frac> overrides the wall-metric tolerance.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ----------------------------------------------------------- tiny JSON
// Just enough of a parser for JsonReport output: objects, arrays, strings,
// numbers, true/false/null. Flattens into dotted paths ("profile.phases.
// verify/tier1_sweep.work"); array elements index as ".0", ".1", ...

struct Flat {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

class Parser {
 public:
  Parser(const std::string& text, Flat& out) : text_(text), out_(out) {}

  bool parse() {
    skip_ws();
    if (!parse_value("")) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  [[nodiscard]] std::string error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool parse_value(const std::string& path) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return parse_object(path);
    if (c == '[') return parse_array(path);
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out_.strings[path] = s;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "true", 4) == 0) {
      out_.numbers[path] = 1.0;
      pos_ += 4;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "false", 5) == 0) {
      out_.numbers[path] = 0.0;
      pos_ += 5;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "null", 4) == 0) {
      pos_ += 4;  // degenerate measurement (inf/nan) — not comparable
      return true;
    }
    return parse_number(path);
  }

  bool parse_object(const std::string& path) {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail("expected object key");
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      if (!parse_value(path.empty() ? key : path + "." + key)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(const std::string& path) {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    std::size_t index = 0;
    while (true) {
      if (!parse_value(path + "." + std::to_string(index++))) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected '\"'");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            // BENCH reports only escape control chars; keep it simple.
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            out.push_back(static_cast<char>(
                std::strtol(hex.c_str(), nullptr, 16)));
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      out.push_back(c);
    }
    return fail("unterminated string");
  }

  bool parse_number(const std::string& path) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    out_.numbers[path] = std::atof(text_.substr(start, pos_ - start).c_str());
    return true;
  }

  const std::string& text_;
  Flat& out_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ----------------------------------------------------- metric classifier

enum class Direction { kExact, kHigherBetter, kLowerBetter, kInfo };

struct Rule {
  Direction direction;
  double tolerance;  ///< allowed fractional move in the bad direction
};

bool contains(const std::string& key, const char* needle) {
  return key.find(needle) != std::string::npos;
}

bool ends_with(const std::string& key, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return key.size() >= n && key.compare(key.size() - n, n, suffix) == 0;
}

Rule classify(const std::string& key, double wall_tolerance) {
  static const char* kHeader[] = {"schema",        "bench",    "git_sha",
                                  "machine_cores", "compiler", "build_type"};
  for (const char* h : kHeader) {
    if (key == h) return {Direction::kInfo, 0.0};
  }
  // Deterministic work attribution: exact or the commit owns the drift.
  if (key.rfind("profile.", 0) == 0) return {Direction::kExact, 0.0};
  // Tail-latency spread metrics (completion p50/p99, straggler ratio):
  // lower is better, with a tolerance between the tight ratio class and the
  // loose wall class — tail quantiles of a deterministic scenario drift
  // only when scheduling actually changed. Must run before the ratio rule:
  // "latency.straggler_ratio" is a latency spread, not a higher-better
  // efficiency ratio.
  if (key.rfind("latency.", 0) == 0) return {Direction::kLowerBetter, 0.10};
  // Order matters: "cache.hit_ratio" must hit the tight ratio rule, and
  // "events_per_s" the throughput rule, before the "_s" time suffix.
  if (contains(key, "ratio") || contains(key, "share") ||
      contains(key, "hit_rate") || contains(key, "efficiency")) {
    return {Direction::kHigherBetter, 0.05};
  }
  if (contains(key, "per_s") || contains(key, "throughput") ||
      contains(key, "chunks_s") || ends_with(key, "_rate")) {
    return {Direction::kHigherBetter, wall_tolerance};
  }
  if (contains(key, "timing.") || contains(key, "wall") ||
      ends_with(key, "_us") || ends_with(key, "_ms") ||
      ends_with(key, "_s") || ends_with(key, ".us") ||
      contains(key, "seconds")) {
    return {Direction::kLowerBetter, wall_tolerance};
  }
  return {Direction::kInfo, 0.0};
}

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kExact: return "exact";
    case Direction::kHigherBetter: return "higher";
    case Direction::kLowerBetter: return "lower";
    case Direction::kInfo: return "info";
  }
  return "?";
}

// ------------------------------------------------------------------ main

bool load(const char* path, Flat& flat) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  Parser parser(text, flat);
  if (!parser.parse()) {
    std::fprintf(stderr, "bench_diff: %s: JSON parse error: %s\n", path,
                 parser.error().c_str());
    return false;
  }
  return true;
}

struct Row {
  std::string key;
  double base;
  double cand;
  double delta_pct;
  const char* verdict;
};

}  // namespace

int main(int argc, char** argv) {
  const char* base_path = nullptr;
  const char* cand_path = nullptr;
  bool counters_only = false;
  double wall_tolerance = 0.45;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--counters-only") == 0) {
      counters_only = true;
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      wall_tolerance = std::atof(argv[++i]);
    } else if (base_path == nullptr) {
      base_path = argv[i];
    } else if (cand_path == nullptr) {
      cand_path = argv[i];
    } else {
      std::fprintf(stderr, "bench_diff: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (base_path == nullptr || cand_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <candidate.json> "
                 "[--counters-only] [--tolerance <frac>]\n");
    return 2;
  }

  Flat base;
  Flat cand;
  if (!load(base_path, base) || !load(cand_path, cand)) return 2;

  // Header sanity: comparing different benches or schema versions is a
  // harness bug, not a perf regression.
  for (const char* key : {"schema", "bench"}) {
    const auto b_num = base.numbers.find(key);
    const auto c_num = cand.numbers.find(key);
    const auto b_str = base.strings.find(key);
    const auto c_str = cand.strings.find(key);
    const bool num_mismatch = b_num != base.numbers.end() &&
                              c_num != cand.numbers.end() &&
                              b_num->second != c_num->second;
    const bool str_mismatch = b_str != base.strings.end() &&
                              c_str != cand.strings.end() &&
                              b_str->second != c_str->second;
    if (num_mismatch || str_mismatch) {
      std::fprintf(stderr, "bench_diff: '%s' differs between reports\n", key);
      return 2;
    }
  }
  for (const char* key : {"machine_cores", "compiler", "build_type"}) {
    const auto bn = base.numbers.find(key);
    const auto cn = cand.numbers.find(key);
    const auto bs = base.strings.find(key);
    const auto cs = cand.strings.find(key);
    if ((bn != base.numbers.end() && cn != cand.numbers.end() &&
         bn->second != cn->second) ||
        (bs != base.strings.end() && cs != cand.strings.end() &&
         bs->second != cs->second)) {
      std::fprintf(stderr,
                   "bench_diff: warning: '%s' differs — wall metrics are not "
                   "comparable%s\n",
                   key, counters_only ? " (counters-only mode)" : "");
    }
  }

  std::vector<Row> rows;
  int regressions = 0;
  int improvements = 0;
  int compared = 0;
  // An exact-class key on one side only is a phase or counter that
  // vanished or appeared: the work changed shape, which the exact gate must
  // see. Other one-sided keys are skipped.
  const auto one_sided = [&](const std::string& key, double base_value,
                             double cand_value) {
    if (classify(key, wall_tolerance).direction != Direction::kExact) return;
    ++compared;
    ++regressions;
    rows.push_back({key, base_value, cand_value, NAN, "REGRESSED"});
  };
  for (const auto& [key, cand_value] : cand.numbers) {
    if (base.numbers.count(key) == 0) one_sided(key, NAN, cand_value);
  }
  for (const auto& [key, base_value] : base.numbers) {
    const auto it = cand.numbers.find(key);
    if (it == cand.numbers.end()) {
      one_sided(key, base_value, NAN);
      continue;
    }
    const double cand_value = it->second;
    const Rule rule = classify(key, wall_tolerance);
    if (rule.direction == Direction::kInfo) continue;
    if (counters_only && rule.direction != Direction::kExact) continue;
    ++compared;
    const double delta = cand_value - base_value;
    const double pct =
        base_value != 0.0 ? 100.0 * delta / std::fabs(base_value)
                          : (delta == 0.0 ? 0.0 : INFINITY);
    const char* verdict = "ok";
    switch (rule.direction) {
      case Direction::kExact:
        if (delta != 0.0) {
          verdict = "REGRESSED";
          ++regressions;
        }
        break;
      case Direction::kHigherBetter:
        if (delta < -rule.tolerance * std::fabs(base_value)) {
          verdict = "REGRESSED";
          ++regressions;
        } else if (delta > rule.tolerance * std::fabs(base_value)) {
          verdict = "improved";
          ++improvements;
        }
        break;
      case Direction::kLowerBetter:
        if (delta > rule.tolerance * std::fabs(base_value)) {
          verdict = "REGRESSED";
          ++regressions;
        } else if (delta < -rule.tolerance * std::fabs(base_value)) {
          verdict = "improved";
          ++improvements;
        }
        break;
      case Direction::kInfo:
        break;
    }
    // The table stays readable: every regression, every improvement, and
    // any exact metric — quiet "ok" wall metrics only when nothing moved.
    if (std::strcmp(verdict, "ok") != 0 ||
        rule.direction == Direction::kExact || delta != 0.0) {
      rows.push_back({key, base_value, cand_value, pct, verdict});
    }
  }

  std::printf("bench_diff: %s vs %s%s\n", base_path, cand_path,
              counters_only ? " (counters only)" : "");
  std::printf("%-58s %16s %16s %9s %10s\n", "metric", "baseline", "candidate",
              "delta", "verdict");
  for (const Row& row : rows) {
    const Rule rule = classify(row.key, wall_tolerance);
    char delta[32];
    if (std::isnan(row.base)) {
      std::snprintf(delta, sizeof(delta), "added");
    } else if (std::isnan(row.cand)) {
      std::snprintf(delta, sizeof(delta), "removed");
    } else if (std::isfinite(row.delta_pct)) {
      std::snprintf(delta, sizeof(delta), "%+.1f%%", row.delta_pct);
    } else {
      std::snprintf(delta, sizeof(delta), "new");
    }
    std::printf("%-58s %16.6g %16.6g %9s %10s (%s)\n", row.key.c_str(),
                row.base, row.cand, delta, row.verdict,
                to_string(rule.direction));
  }
  std::printf(
      "bench_diff: %d compared, %d regressed, %d improved, %zu changed\n",
      compared, regressions, improvements, rows.size());
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_diff: no comparable metrics — wrong report pair?\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
