#include "bmp/net/instance_io.hpp"

#include <sstream>
#include <stdexcept>

namespace bmp::net {

namespace {

[[noreturn]] void fail(int line, const std::string& what,
                       const char* format = "platform") {
  throw std::invalid_argument(std::string(format) + " parse error, line " +
                              std::to_string(line) + ": " + what);
}

/// Reads the whole token as one number: "5x", "1open0" or "" is not one.
template <typename T>
bool read_number(const std::string& token, T& value) {
  std::istringstream in(token);
  return (in >> value) && in.peek() == std::char_traits<char>::eof();
}

}  // namespace

PlatformFile parse_platform(std::istream& in) {
  double source_bw = -1.0;
  std::vector<double> open;
  std::vector<double> guarded;
  std::vector<std::string> open_labels;
  std::vector<std::string> guarded_labels;

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line.substr(0, line.find('#')));
    std::string kind, bw_token, label, extra;  // label is optional
    if (!(ls >> kind)) continue;  // blank / comment line
    ls >> bw_token >> label >> extra;
    double bw = 0.0;
    if (!read_number(bw_token, bw)) {
      fail(line_no, "expected a bandwidth after '" + kind + "'");
    }
    if (bw < 0.0) fail(line_no, "negative bandwidth");
    if (!extra.empty()) fail(line_no, "trailing tokens");
    if (kind == "source") {
      if (source_bw >= 0.0) fail(line_no, "duplicate source line");
      source_bw = bw;
    } else if (kind == "open") {
      open.push_back(bw);
      open_labels.push_back(label.empty() ? "open" + std::to_string(open.size())
                                          : label);
    } else if (kind == "guarded") {
      guarded.push_back(bw);
      guarded_labels.push_back(
          label.empty() ? "guarded" + std::to_string(guarded.size()) : label);
    } else {
      fail(line_no, "unknown record '" + kind + "' (source|open|guarded)");
    }
  }
  if (source_bw < 0.0) fail(line_no, "missing 'source' line");

  PlatformFile file{Instance(source_bw, open, guarded), {}};
  file.labels.reserve(1 + open_labels.size() + guarded_labels.size());
  file.labels.push_back("source");
  file.labels.insert(file.labels.end(), open_labels.begin(), open_labels.end());
  file.labels.insert(file.labels.end(), guarded_labels.begin(),
                     guarded_labels.end());
  return file;
}

PlatformFile parse_platform_string(const std::string& text) {
  std::istringstream in(text);
  return parse_platform(in);
}

std::string serialize_platform(const Instance& instance) {
  std::ostringstream os;
  os << "# bmpbcast platform (" << instance.n() << " open, " << instance.m()
     << " guarded)\n";
  os << "source " << instance.b(0) << "\n";
  for (int i = 1; i <= instance.n(); ++i) os << "open " << instance.b(i) << "\n";
  for (int i = instance.n() + 1; i < instance.size(); ++i) {
    os << "guarded " << instance.b(i) << "\n";
  }
  return os.str();
}

std::string serialize_scheme(const BroadcastScheme& scheme) {
  std::ostringstream os;
  for (int i = 0; i < scheme.num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) {
      os << i << " " << to << " " << rate << "\n";
    }
  }
  return os.str();
}

BroadcastScheme parse_scheme(std::istream& in, int num_nodes) {
  BroadcastScheme scheme(num_nodes);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line.substr(0, line.find('#')));
    std::string from_token, to_token, rate_token, extra;
    if (!(ls >> from_token)) continue;  // blank / comment line
    ls >> to_token >> rate_token >> extra;
    int from = 0;
    int to = 0;
    double rate = 0.0;
    if (!extra.empty() || !read_number(from_token, from) ||
        !read_number(to_token, to) || !read_number(rate_token, rate)) {
      fail(line_no, "expected '<from> <to> <rate>'", "scheme");
    }
    try {
      scheme.add(from, to, rate);
    } catch (const std::logic_error& e) {  // bad id, self loop, negative rate
      fail(line_no, e.what(), "scheme");
    }
  }
  return scheme;
}

BroadcastScheme parse_scheme_string(const std::string& text, int num_nodes) {
  std::istringstream in(text);
  return parse_scheme(in, num_nodes);
}

}  // namespace bmp::net
