#include "bmp/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bmp/obs/json.hpp"

namespace bmp::obs {

const char* to_string(Lane lane) {
  switch (lane) {
    case Lane::kRuntime: return "runtime";
    case Lane::kPlanner: return "planner";
    case Lane::kVerify: return "verify";
    case Lane::kSession: return "session";
    case Lane::kBroker: return "broker";
    case Lane::kExecution: return "execution";
    case Lane::kControl: return "control";
    case Lane::kLineage: return "lineage";
  }
  return "?";
}

namespace {

/// Fixed-format double: locale-independent and stable across platforms, so
/// golden traces and byte-identity tests hold.
std::string render_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

/// Microsecond timestamps get fixed decimals (Perfetto wants monotone-ish
/// numeric ts; scientific notation confuses some importers).
std::string render_us(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

}  // namespace

TraceArg::TraceArg(const char* k, double value)
    : key(k), json(render_double(value)) {}
TraceArg::TraceArg(const char* k, int value)
    : key(k), json(std::to_string(value)) {}
TraceArg::TraceArg(const char* k, std::uint64_t value)
    : key(k), json(std::to_string(value)) {}
TraceArg::TraceArg(const char* k, bool value)
    : key(k), json(value ? "true" : "false") {}
TraceArg::TraceArg(const char* k, const char* value) : key(k) {
  json = "\"";
  append_escaped(json, value);
  json += "\"";
}

TraceSink::TraceSink(TraceConfig config) : config_(config) {
  events_.reserve(std::min<std::size_t>(config_.max_events, 4096));
}

void TraceSink::set_clock(double sim_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = sim_seconds;
}

double TraceSink::clock() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_;
}

void TraceSink::append(Lane lane, char phase, const char* cat,
                       const char* name, double sim_time, double sim_duration,
                       double wall_us, std::initializer_list<TraceArg> args) {
  std::string rendered;
  rendered.reserve(args.size() * 24);
  for (const auto& arg : args) {
    if (!rendered.empty()) rendered += ",";
    rendered += "\"";
    append_escaped(rendered, arg.key);
    rendered += "\":";
    rendered += arg.json;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= config_.max_events) {
    ++dropped_;
    return;
  }
  Event event;
  event.seq = next_seq_++;
  event.lane = static_cast<int>(lane);
  event.phase = phase;
  event.cat = cat;
  event.name = name;
  event.ts_us = sim_time * 1e6;
  event.dur_us = sim_duration * 1e6;
  event.wall_us = config_.wall_durations ? wall_us : -1.0;
  event.args = std::move(rendered);
  if (phase == 'X') ++span_count_;
  events_.push_back(std::move(event));
}

void TraceSink::complete(Lane lane, const char* cat, const char* name,
                         std::initializer_list<TraceArg> args,
                         double wall_us) {
  append(lane, 'X', cat, name, clock(), 0.0, wall_us, args);
}

void TraceSink::complete_at(Lane lane, const char* cat, const char* name,
                            double sim_time, double sim_duration,
                            std::initializer_list<TraceArg> args,
                            double wall_us) {
  append(lane, 'X', cat, name, sim_time, sim_duration, wall_us, args);
}

void TraceSink::instant(Lane lane, const char* cat, const char* name,
                        std::initializer_list<TraceArg> args) {
  append(lane, 'i', cat, name, clock(), 0.0, -1.0, args);
}

void TraceSink::instant_at(Lane lane, const char* cat, const char* name,
                           double sim_time,
                           std::initializer_list<TraceArg> args) {
  append(lane, 'i', cat, name, sim_time, 0.0, -1.0, args);
}

std::size_t TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t TraceSink::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return span_count_;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string TraceSink::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[\n";
  // Metadata first: one named track per lane, so Perfetto labels the rows.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"bmp\"}}";
  for (int lane = 0; lane <= static_cast<int>(Lane::kLineage); ++lane) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(lane);
    out += ",\"args\":{\"name\":\"";
    out += to_string(static_cast<Lane>(lane));
    out += "\"}}";
  }
  for (const auto& event : events_) {
    out += ",\n{\"name\":\"";
    append_escaped(out, event.name);
    out += "\",\"cat\":\"";
    append_escaped(out, event.cat);
    out += "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"ts\":";
    out += render_us(event.ts_us);
    if (event.phase == 'X') {
      out += ",\"dur\":";
      out += render_us(event.dur_us);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(event.lane);
    out += ",\"args\":{\"seq\":";
    out += std::to_string(event.seq);
    if (event.wall_us >= 0.0) {
      out += ",\"wall_us\":";
      out += render_double(event.wall_us);
    }
    if (!event.args.empty()) {
      out += ",";
      out += event.args;
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
         "\"clock\":\"sim-time-microseconds\",\"dropped\":";
  out += std::to_string(dropped_);
  out += "}}\n";
  return out;
}

bool TraceSink::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

namespace {
std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

WallTimer::WallTimer(const TraceSink* sink)
    : armed_(sink != nullptr && sink->wall_durations()) {
  if (armed_) start_ns_ = steady_ns();
}

double WallTimer::elapsed_us() const {
  if (!armed_) return -1.0;
  return static_cast<double>(steady_ns() - start_ns_) * 1e-3;
}

}  // namespace bmp::obs
