#include "bmp/obs/flight_recorder.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bmp/obs/json.hpp"

namespace bmp::obs {

namespace {

std::string render_time(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  if (config_.per_channel == 0) {
    throw std::invalid_argument("FlightRecorder: per_channel must be > 0");
  }
}

void FlightRecorder::record(double time, int channel, std::string kind,
                            std::string detail) {
  auto& ring = channels_[channel];
  if (ring.size() >= config_.per_channel) {
    ring.pop_front();
    ++evicted_;
  }
  FlightEvent event;
  event.seq = next_seq_++;
  event.time = time;
  event.channel = channel;
  event.kind = std::move(kind);
  event.detail = std::move(detail);
  ring.push_back(std::move(event));
  ++recorded_;
}

bool FlightRecorder::record_failure(double time, int channel, const char* what,
                                    const std::vector<std::string>& violations) {
  for (const auto& violation : violations) {
    record(time, channel, "failure", std::string(what) + ": " + violation);
  }
  if (violations.empty()) {
    record(time, channel, "failure", what);
  }
  if (config_.dump_path.empty()) return false;
  return dump(config_.dump_path);
}

std::vector<FlightEvent> FlightRecorder::channel_events(int channel) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::string FlightRecorder::to_json() const {
  std::string out = "{\"channels\":{";
  bool first_channel = true;
  for (const auto& [channel, ring] : channels_) {
    if (!first_channel) out += ",";
    first_channel = false;
    out += "\"";
    out += std::to_string(channel);
    out += "\":[";
    bool first_event = true;
    for (const auto& event : ring) {
      if (!first_event) out += ",";
      first_event = false;
      out += "\n{\"seq\":";
      out += std::to_string(event.seq);
      out += ",\"time\":";
      out += render_time(event.time);
      out += ",\"kind\":\"";
      append_escaped(out, event.kind);
      out += "\",\"detail\":\"";
      append_escaped(out, event.detail);
      out += "\"}";
    }
    out += "]";
  }
  out += "},\"recorded\":";
  out += std::to_string(recorded_);
  out += ",\"evicted\":";
  out += std::to_string(evicted_);
  out += "}\n";
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json();
  if (!out) return false;
  ++dumps_;
  return true;
}

}  // namespace bmp::obs
