#include "bmp/obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bmp/obs/flight_recorder.hpp"

namespace bmp::obs {

namespace {

constexpr double kTargetSustained = 0.7;   ///< worst-node sustained floor
constexpr double kTargetLatencyP99 = 5.0;  ///< chunk-latency p99 ceiling, s
constexpr double kRecoverTimeout = 3.0;    ///< directive -> recovery limit, s
constexpr std::size_t kShortWindow = 4;    ///< ticks in the fast burn window
constexpr std::size_t kLongWindow = 12;    ///< ticks in the slow burn window
constexpr double kWarnBurn = 0.5;          ///< short-window violation fraction
constexpr double kPageBurn = 0.75;         ///< short+long violation fraction
constexpr std::size_t kMaxAlerts = 256;    ///< alert ring bound

std::string render_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

const char* to_string(SloState state) {
  switch (state) {
    case SloState::kOk: return "ok";
    case SloState::kWarn: return "warn";
    case SloState::kPage: return "page";
  }
  return "?";
}

const char* SloSample::worst_sli() const {
  if (violating_sustained) return "sustained";
  if (violating_recover) return "recover";
  if (violating_latency) return "latency_p99";
  return "none";
}

void check_config(const SloConfig& config) {
  if (config.latency_window == 0) {
    throw std::invalid_argument("SloMonitor: latency_window must be > 0");
  }
}

SloMonitor::SloMonitor(int channel, SloConfig config, FlightRecorder* recorder)
    : channel_(channel), config_(config), recorder_(recorder) {
  check_config(config_);
  latencies_.reserve(config_.latency_window);
}

void SloMonitor::observe_latency(double latency) {
  if (!std::isfinite(latency)) {
    throw std::invalid_argument("SloMonitor: non-finite latency");
  }
  if (latencies_.size() < config_.latency_window) {
    latencies_.push_back(latency);
  } else {
    latencies_[next_latency_] = latency;
  }
  next_latency_ = (next_latency_ + 1) % config_.latency_window;
}

double SloMonitor::latency_p99() const {
  if (latencies_.empty()) return 0.0;
  // Nearest-rank: the smallest value with cumulative fraction >= 0.99.
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latencies_.size())));
  std::vector<double> window(latencies_);
  const auto nth = window.begin() + static_cast<std::ptrdiff_t>(
                                        rank == 0 ? 0 : rank - 1);
  std::nth_element(window.begin(), nth, window.end());
  return *nth;
}

void SloMonitor::on_directive(double time) {
  if (directive_time_ < 0.0) directive_time_ = time;
}

double SloMonitor::burn(const std::deque<bool>& window) const {
  if (window.empty()) return 0.0;
  std::size_t violating = 0;
  for (const bool v : window) {
    if (v) ++violating;
  }
  return static_cast<double>(violating) / static_cast<double>(window.size());
}

SloState SloMonitor::evaluate(double time, double sustained_worst) {
  ++ticks_;
  SloSample sample;
  sample.time = time;
  sample.sustained_worst = sustained_worst;
  sample.latency_p99 = latency_p99();
  sample.violating_sustained = sustained_worst < kTargetSustained;
  sample.violating_latency = sample.latency_p99 > kTargetLatencyP99;
  if (directive_time_ >= 0.0) {
    if (sustained_worst >= kTargetSustained) {
      directive_time_ = -1.0;  // recovered
    } else {
      sample.recover_wait = time - directive_time_;
      sample.violating_recover = sample.recover_wait > kRecoverTimeout;
    }
  }

  const bool violating = sample.violating();
  short_window_.push_back(violating);
  long_window_.push_back(violating);
  while (short_window_.size() > kShortWindow) {
    short_window_.pop_front();
  }
  while (long_window_.size() > kLongWindow) {
    long_window_.pop_front();
  }
  const double short_burn = burn(short_window_);
  const double long_burn = burn(long_window_);

  // Multi-window burn-rate: page needs the fast window fully burning AND
  // the slow window past the warn floor — a sustained problem, not a blip.
  SloState next = SloState::kOk;
  if (short_burn >= kPageBurn && long_burn >= kWarnBurn) {
    next = SloState::kPage;
  } else if (short_burn >= kWarnBurn) {
    next = SloState::kWarn;
  }
  if (next != state_) transition(next, sample, short_burn, long_burn);
  return state_;
}

void SloMonitor::transition(SloState to, const SloSample& sample,
                            double short_burn, double long_burn) {
  SloAlert alert;
  alert.seq = next_seq_++;
  alert.time = sample.time;
  alert.from = state_;
  alert.to = to;
  alert.sli = to > state_ ? sample.worst_sli() : "clear";
  alert.short_burn = short_burn;
  alert.long_burn = long_burn;
  alert.sample = sample;
  state_ = to;
  if (to == SloState::kPage) ++pages_;
  if (to == SloState::kWarn) ++warns_;
  if (recorder_ != nullptr) {
    recorder_->record(sample.time, channel_, "slo",
                      std::string(to_string(alert.from)) + "->" +
                          to_string(alert.to) + " sli=" + alert.sli +
                          " sustained=" + render_double(sample.sustained_worst) +
                          " latency_p99=" + render_double(sample.latency_p99) +
                          " recover_wait=" + render_double(sample.recover_wait) +
                          " burn=" + render_double(short_burn) + "/" +
                          render_double(long_burn));
  }
  if (alerts_.size() >= kMaxAlerts) {
    ++dropped_;
    return;
  }
  alerts_.push_back(std::move(alert));
}

std::string SloMonitor::alerts_json() const {
  std::string out = "{\"channel\":" + std::to_string(channel_) +
                    ",\"state\":\"" + to_string(state_) +
                    "\",\"ticks\":" + std::to_string(ticks_) +
                    ",\"dropped\":" + std::to_string(dropped_) +
                    ",\"alerts\":[";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const SloAlert& alert = alerts_[i];
    if (i != 0) out += ",";
    out += std::string("{\"seq\":") + std::to_string(alert.seq) +
           ",\"time\":" + render_double(alert.time) + ",\"from\":\"" +
           to_string(alert.from) + "\",\"to\":\"" + to_string(alert.to) +
           "\",\"sli\":\"" + alert.sli +
           "\",\"short_burn\":" + render_double(alert.short_burn) +
           ",\"long_burn\":" + render_double(alert.long_burn) +
           ",\"sample\":{\"sustained_worst\":" +
           render_double(alert.sample.sustained_worst) +
           ",\"latency_p99\":" + render_double(alert.sample.latency_p99) +
           ",\"recover_wait\":" + render_double(alert.sample.recover_wait) +
           "}}";
  }
  out += "]}";
  return out;
}

}  // namespace bmp::obs
