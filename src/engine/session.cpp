#include "bmp/engine/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bmp/flow/maxflow.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/sim/churn.hpp"

namespace bmp::engine {

namespace {

// The descendants of one root in a DAG, held as a stamp per node so that
// re-rooting costs no clear. The set is cached until the root changes or
// invalidate() is called.
class Descendants {
 public:
  explicit Descendants(int num_nodes)
      : mark_(static_cast<std::size_t>(num_nodes), 0) {}

  /// Whether `v` is `root` or reachable from it in `scheme`.
  bool reaches(const BroadcastScheme& scheme, int root, int v) {
    if (root != root_) fill(scheme, root);
    return mark_[static_cast<std::size_t>(v)] == stamp_;
  }

  void invalidate() { root_ = -1; }

 private:
  void fill(const BroadcastScheme& scheme, int root) {
    if (++stamp_ == 0) {  // wrapped: a stale mark could equal the new stamp
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
    root_ = root;
    mark_[static_cast<std::size_t>(root)] = stamp_;
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      for (const auto& [to, rate] : scheme.out_edges(v)) {
        (void)rate;
        if (mark_[static_cast<std::size_t>(to)] != stamp_) {
          mark_[static_cast<std::size_t>(to)] = stamp_;
          stack_.push_back(to);
        }
      }
    }
  }

  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  int root_ = -1;
  std::vector<int> stack_;
};

}  // namespace

RepairResult repair_scheme(const Instance& survivors,
                           const BroadcastScheme& restricted,
                           double target_rate, flow::Verifier* verifier) {
  if (restricted.num_nodes() != survivors.size()) {
    throw std::invalid_argument("repair_scheme: instance/scheme size mismatch");
  }
  RepairResult result{restricted, 0.0, 0.0};
  BroadcastScheme& scheme = result.scheme;
  const int num_nodes = scheme.num_nodes();
  if (scheme.is_acyclic() && target_rate > 0.0 && num_nodes > 1) {
    const double tol = 1e-9 * std::max(1.0, target_rate);
    // Patch each node's inflow up to target_rate. Any sender works as long
    // as the overlay stays a DAG — i.e. the sender is not a *descendant* of
    // the receiver in the current (partially patched) overlay. Acyclicity
    // plus inflow >= tau everywhere is sufficient for throughput tau: for
    // any source/j cut, the topologically first node outside the cut has
    // all its in-edges crossing it, so min-cut(0 -> j) >= tau. The final
    // rate is re-verified by max-flow below either way.
    std::vector<double> in = scheme.in_rates();
    std::vector<double> out(static_cast<std::size_t>(num_nodes), 0.0);
    for (int i = 0; i < num_nodes; ++i) {
      out[static_cast<std::size_t>(i)] = scheme.out_rate(i);
    }
    // Conservative sender preference (the paper's Lemma 4.3 principle):
    // guarded upload cannot reach guarded receivers, so open receivers
    // drain guarded senders first, keeping source + open upload for the
    // guarded nodes that have no alternative. Guarded receivers are
    // patched first for the same reason.
    std::vector<int> receivers;
    receivers.reserve(static_cast<std::size_t>(num_nodes - 1));
    for (const bool guarded : {true, false}) {
      for (int i = 1; i < num_nodes; ++i) {
        if (survivors.is_guarded(i) == guarded) receivers.push_back(i);
      }
    }
    std::vector<int> sender_order = receivers;
    sender_order.push_back(0);
    // Dust consolidation: an edge carrying under 2% of the target is
    // scheduling residue — in a chunk-level execution one transmission on
    // it takes dozens of chunk periods, squatting receiver window slots
    // and taking rare chunks hostage. Drop such edges outright; the patch
    // pass below re-sources the freed inflow from senders with real
    // residual capacity, as few, fat edges.
    const double dust = 0.02 * target_rate;
    std::vector<std::tuple<int, int, double>> dust_edges;
    for (int sender = 0; sender < num_nodes; ++sender) {
      for (const auto& [to, rate] : scheme.out_edges(sender)) {
        if (rate > tol && rate < dust) dust_edges.emplace_back(sender, to, rate);
      }
    }
    for (const auto& [sender, to, rate] : dust_edges) {
      scheme.add(sender, to, -rate);
      out[static_cast<std::size_t>(sender)] -= rate;
      in[static_cast<std::size_t>(to)] -= rate;
    }
    // Trim pass: when repairing toward a *reduced* target, survivors still
    // fed at the old (higher) design rate hold upload hostage. Cut their
    // inflow down to the target, releasing open/source upload first — it
    // is the only class guarded receivers can draw from. Within a class,
    // cut the *smallest* edges first: the receiver's main arteries survive
    // repeated repairs untouched (a live stream keeps its in-flight pipes)
    // and residue trickle edges are garbage-collected before real ones.
    // The over-fed receivers' feeders are listed in one pass, in ascending
    // sender order: trimming a receiver touches only edges into it, so the
    // listed rates are the ones it finds.
    std::vector<std::vector<std::pair<int, double>>> feeders(
        static_cast<std::size_t>(num_nodes));
    for (int sender = 0; sender < num_nodes; ++sender) {
      for (const auto& [to, rate] : scheme.out_edges(sender)) {
        if (in[static_cast<std::size_t>(to)] - target_rate > tol) {
          feeders[static_cast<std::size_t>(to)].emplace_back(sender, rate);
        }
      }
    }
    std::vector<std::pair<double, int>> cuttable;
    for (int receiver = 1; receiver < num_nodes; ++receiver) {
      double excess = in[static_cast<std::size_t>(receiver)] - target_rate;
      if (excess <= tol) continue;
      for (int cls = 0; cls < 2 && excess > tol; ++cls) {
        cuttable.clear();
        for (const auto& [sender, rate] :
             feeders[static_cast<std::size_t>(receiver)]) {
          const bool sender_guarded = survivors.is_guarded(sender);
          if ((cls == 0) == sender_guarded) continue;  // open first, then guarded
          if (rate > tol) cuttable.emplace_back(rate, sender);
        }
        std::sort(cuttable.begin(), cuttable.end());
        for (const auto& [rate, sender] : cuttable) {
          if (excess <= tol) break;
          const double cut = std::min(excess, rate);
          scheme.add(sender, receiver, -cut);
          out[static_cast<std::size_t>(sender)] -= cut;
          in[static_cast<std::size_t>(receiver)] -= cut;
          excess -= cut;
        }
      }
    }
    // Senders with residual upload, in sender_order order. No pass below
    // frees upload, so a sender that saturates is dropped for good.
    const auto spare_upload = [&](int sender) {
      return survivors.b(sender) - out[static_cast<std::size_t>(sender)];
    };
    std::vector<int> spare;
    for (const int sender : sender_order) {
      if (spare_upload(sender) > tol) spare.push_back(sender);
    }
    // Senders reachable *from* the receiver would close a cycle. The
    // descendant search runs only once a sender with spare upload asks.
    Descendants from_receiver(num_nodes);
    for (const int receiver : receivers) {
      double deficit = target_rate - in[static_cast<std::size_t>(receiver)];
      for (std::size_t k = 0; k < spare.size() && deficit > tol;) {
        const int sender = spare[k];
        const double residual = spare_upload(sender);
        if (residual <= tol) {
          spare.erase(spare.begin() + static_cast<std::ptrdiff_t>(k));
          continue;
        }
        ++k;
        if (survivors.is_guarded(sender) && survivors.is_guarded(receiver)) {
          continue;
        }
        if (from_receiver.reaches(scheme, receiver, sender)) continue;
        const double take = std::min(deficit, residual);
        scheme.add(sender, receiver, take);
        out[static_cast<std::size_t>(sender)] += take;
        in[static_cast<std::size_t>(receiver)] += take;
        result.added_rate += take;
        deficit -= take;
      }
    }
    // Reroute pass for guarded receivers the direct patch could not fill:
    // source/open upload may be fully committed to *open* receivers that
    // idle guarded upload could serve instead. Swap such an edge over
    // (guarded g takes the open receiver x, open sender s turns to the
    // guarded receiver r) — the conservative exchange of Lemma 4.3.
    //
    // Only guarded senders with spare upload can take part, so the pass
    // walks those left in `spare` and drops each as it saturates.
    //
    // The overlay is a DAG and holds s→x, so adding g→x and s→r closes a
    // cycle iff x reaches g or r reaches s (a cycle through both new edges
    // would need a path x ⇝ s, a cycle with s→x). Both tests read the
    // cached descendants of x and of r, which an accepted swap invalidates.
    //
    // A rejected swap still applies and reverts its rates, each edge's two
    // steps in one round_trip(): (c − δ) + δ need not equal c in floating
    // point, and repaired overlays stay bit-identical to the ones this pass
    // always produced. The three edges are distinct, so the order of their
    // round trips does not matter. A round trip may drop a pre-existing g→x
    // or s→r whose rate rounds away, but the cached sets stay exact: x
    // reaches neither g nor s, r cannot reach s (s→r would close a cycle),
    // and with g→x present the swap was rejected because r reaches s, so r
    // still reaches x through s→x.
    spare.erase(std::remove_if(spare.begin(), spare.end(),
                               [&](int g) {
                                 return !survivors.is_guarded(g) ||
                                        spare_upload(g) <= tol;
                               }),
                spare.end());
    Descendants from_x(num_nodes);
    from_receiver.invalidate();
    std::vector<std::pair<int, double>> edges;
    for (const int receiver : receivers) {
      // Guardeds lead the list; no spare guarded upload means no swap.
      if (spare.empty() || !survivors.is_guarded(receiver)) break;
      double deficit = target_rate - in[static_cast<std::size_t>(receiver)];
      if (deficit <= tol) continue;
      for (const int s : sender_order) {
        if (deficit <= tol || spare.empty()) break;
        if (survivors.is_guarded(s)) continue;  // need an open/source sender
        edges.assign(scheme.out_edges(s).begin(), scheme.out_edges(s).end());
        for (const auto& [x, rate_sx] : edges) {
          if (deficit <= tol) break;
          if (x == receiver || survivors.is_guarded(x)) continue;
          double movable = std::min(deficit, rate_sx);
          for (std::size_t k = 0;
               k < spare.size() && movable > tol && deficit > tol;) {
            const int g = spare[k];
            const double residual_g = spare_upload(g);
            if (residual_g <= tol) {
              spare.erase(spare.begin() + static_cast<std::ptrdiff_t>(k));
              continue;
            }
            ++k;
            const bool cycle = from_x.reaches(scheme, x, g) ||
                               from_receiver.reaches(scheme, receiver, s);
            const double delta = std::min(movable, residual_g);
            if (cycle) {
              scheme.round_trip(g, x, delta);
              scheme.round_trip(s, x, -delta);
              scheme.round_trip(s, receiver, delta);
              continue;
            }
            scheme.add(g, x, delta);
            scheme.add(s, x, -delta);
            scheme.add(s, receiver, delta);
            from_x.invalidate();
            from_receiver.invalidate();
            out[static_cast<std::size_t>(g)] += delta;
            in[static_cast<std::size_t>(receiver)] += delta;
            result.added_rate += delta;
            deficit -= delta;
            movable -= delta;
          }
        }
      }
    }
  }
  if (num_nodes <= 1) {
    result.throughput = 0.0;
  } else if (verifier != nullptr) {
    result.throughput = verifier->verify(scheme).throughput;
  } else {
    result.throughput = flow::scheme_throughput(scheme);
  }
  return result;
}

namespace {

// Whether the planner computed `response` and verified it. A cache hit
// reuses a plan whose verification was counted when it was computed.
bool verified_planner_side(const PlanResponse& response) {
  return !response.cache_hit && response.verified_throughput >= 0.0;
}

// `instance`'s open/guarded layout with per-slot upload caps (slot 0 is
// the source). A node keeps its index when the caps keep its class's order.
Instance with_caps(const Instance& instance, const std::vector<double>& caps) {
  std::vector<double> open;
  std::vector<double> guarded;
  for (int i = 1; i < instance.size(); ++i) {
    (instance.is_guarded(i) ? guarded : open)
        .push_back(caps[static_cast<std::size_t>(i)]);
  }
  return Instance(caps[0], std::move(open), std::move(guarded));
}

}  // namespace

Session::Session(Planner& planner, Instance instance, SessionConfig config,
                 obs::Hooks hooks)
    : planner_(planner),
      config_(config),
      hooks_(hooks),
      instance_(std::move(instance)),
      instance_fp_(instance_, planner.config().fingerprint_bucket),
      verifier_(config.verify, hooks) {
  if (config_.replan_threshold < 0.0 || config_.replan_threshold > 1.0) {
    throw std::invalid_argument("Session: replan_threshold in [0,1]");
  }
  const PlanResponse response = planner_.plan(
      instance_, kSessionAlgorithm, kSessionMaxOutDegree, instance_fp_.value());
  scheme_ = response.scheme;
  design_rate_ = response.throughput;
  design_total_ = instance_.total_sum();
  current_rate_ = response.throughput;
  initial_plan_verified_ = verified_planner_side(response);
  initial_plan_tier_ = response.verified_tier;
}

std::vector<double> Session::capacities() const {
  std::vector<double> caps(static_cast<std::size_t>(instance_.size()));
  for (int i = 0; i < instance_.size(); ++i) {
    caps[static_cast<std::size_t>(i)] = instance_.b(i);
  }
  return caps;
}

void Session::rescale(double factor) {
  if (!std::isfinite(factor) || factor <= 0.0) {
    throw std::invalid_argument("Session::rescale: factor must be > 0");
  }
  // Scaling by a positive factor preserves the non-increasing order, so
  // every node keeps its current index.
  std::vector<double> caps = capacities();
  for (double& cap : caps) cap *= factor;
  Instance scaled = with_caps(instance_, caps);
  BroadcastScheme scheme(scheme_->num_nodes());
  for (int i = 0; i < scheme_->num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme_->out_edges(i)) {
      scheme.add(i, to, rate * factor);
    }
  }
  instance_ = std::move(scaled);
  // Every bandwidth moved: reseed the fingerprint (O(n), like the rescale
  // itself — renegotiations are rare next to churn deltas).
  instance_fp_ = IncrementalFingerprint(instance_,
                                        planner_.config().fingerprint_bucket);
  scheme_ = std::make_shared<const BroadcastScheme>(std::move(scheme));
  design_rate_ *= factor;
  design_total_ *= factor;
  current_rate_ *= factor;
}

ChurnOutcome Session::repair_or_replan(ChurnOutcome outcome, Instance next,
                                       const BroadcastScheme& start,
                                       double target, bool force_replan,
                                       const char* span,
                                       const obs::WallTimer& timer) {
  const flow::VerifyStats before = verifier_.stats();
  outcome.degraded_rate = verifier_.verify(start).throughput;
  const double tol = 1e-9 * std::max(1.0, design_rate_);
  const double bar = config_.replan_threshold * target;
  const auto repair_toward = [&](double rate) {
    return repair_scheme(next, start, rate, &verifier_);
  };
  // The best repair, kept below the bar too: if the planner is down, a
  // verified overlay of exactly `next` beats serving nothing.
  std::optional<RepairResult> repair;
  if (!force_replan) {
    // Descending target ladder: the full target first, then reduced
    // targets down to the bar (each one trims over-fed nodes to free
    // upload for the deficits). Stop at the first repair that clears it.
    repair = repair_toward(target);
    for (const double fraction : {(1.0 + config_.replan_threshold) / 2.0,
                                  config_.replan_threshold}) {
      if (repair->throughput + tol >= bar) break;
      if (fraction >= 1.0) continue;
      RepairResult attempt = repair_toward(fraction * target);
      if (attempt.throughput > repair->throughput) repair = std::move(attempt);
    }
  }
  std::optional<flow::VerifyTier> replan_tier;  // set iff verified here
  if (!repair || repair->throughput + tol < bar) {
    try {
      const PlanResponse response =
          planner_.plan(next, kSessionAlgorithm, kSessionMaxOutDegree,
                        instance_fp_.value());
      if (verified_planner_side(response)) replan_tier = response.verified_tier;
      scheme_ = response.scheme;
      design_rate_ = response.throughput;
      design_total_ = next.total_sum();
      current_rate_ = response.throughput;
      ++full_replans_;
      outcome.full_replan = true;
    } catch (const PlannerUnavailable&) {
      // Planner outage: serve the repair (computing one now if force_replan
      // skipped it). The host re-plans when the outage ends.
      outcome.planner_fault = true;
      if (!repair) repair = repair_toward(target);
    }
  }
  if (repair) outcome.repaired_rate = repair->throughput;
  if (!outcome.full_replan) {
    scheme_ = std::make_shared<const BroadcastScheme>(std::move(repair->scheme));
    current_rate_ = repair->throughput;
    ++incremental_replans_;
  }
  instance_ = std::move(next);
  const flow::VerifyStats& after = verifier_.stats();
  outcome.verify_calls = static_cast<int>(after.calls - before.calls);
  outcome.verify_sweep = static_cast<int>(after.tier_sweep - before.tier_sweep);
  outcome.verify_maxflow =
      static_cast<int>(after.tier_maxflow - before.tier_maxflow);
  outcome.verify_us = after.total_us - before.total_us;
  if (replan_tier) {
    // The computed re-plan was verified planner-side; count it so the
    // runtime's verify.* metrics cover every verification this event
    // triggered. Its wall-clock cost is attributed to planning.
    ++outcome.verify_calls;
    (*replan_tier == flow::VerifyTier::kAcyclicSweep ? outcome.verify_sweep
                                                     : outcome.verify_maxflow) += 1;
  }
  outcome.achieved_rate = current_rate_;
  if (hooks_.trace != nullptr) {
    hooks_.trace->complete(obs::Lane::kSession, "engine", span,
                           {{"channel", config_.trace_id},
                            {"departed", outcome.departed},
                            {"survivors", outcome.survivors},
                            {"degraded_rate", outcome.degraded_rate},
                            {"repaired_rate", outcome.repaired_rate},
                            {"achieved_rate", outcome.achieved_rate},
                            {"full_replan", outcome.full_replan},
                            {"planner_fault", outcome.planner_fault},
                            {"verify_calls", outcome.verify_calls}},
                           timer.elapsed_us());
  }
  return outcome;
}

ChurnOutcome Session::adapt(const AdaptationRequest& request) {
  const obs::WallTimer timer(hooks_.trace);
  ChurnOutcome outcome;
  outcome.design_rate = design_rate_;
  const int size = instance_.size();
  if (static_cast<int>(request.capacities.size()) != size) {
    throw std::invalid_argument("Session::adapt: capacities size mismatch");
  }
  for (const double cap : request.capacities) {
    if (!is_valid_bandwidth(cap)) {
      throw std::invalid_argument("Session::adapt: invalid capacity");
    }
  }
  // Validate everything up front: once the fingerprint starts absorbing
  // capacity deltas below, a throw would leave it desynced from instance_.
  for (const auto& [from, to, limit] : request.edge_limits) {
    if (from < 0 || from >= size || to < 0 || to >= size || from == to ||
        limit < 0.0 || !std::isfinite(limit)) {
      throw std::invalid_argument("Session::adapt: bad edge limit");
    }
  }
  outcome.survivors = size - 1;
  if (size <= 1) {
    outcome.achieved_rate = current_rate_;
    return outcome;
  }

  // Effective platform in the *current slot* caller numbering: class sizes
  // are unchanged, so the new instance's original_id(j) is directly the old
  // slot the (possibly re-sorted) node j came from.
  Instance effective = with_caps(instance_, request.capacities);
  // The fingerprint follows the capacity deltas node by node (most
  // adaptations touch a handful of nodes, not the platform).
  for (int i = 1; i < size; ++i) {
    const double after = request.capacities[static_cast<std::size_t>(i)];
    if (instance_.b(i) == after) continue;
    instance_fp_.remove(instance_, i);
    if (instance_.is_guarded(i)) {
      instance_fp_.add_guarded(after);
    } else {
      instance_fp_.add_open(after);
    }
  }
  if (instance_.b(0) != request.capacities[0]) {
    instance_fp_.set_source(request.capacities[0]);
  }

  // Permute the live overlay into the effective numbering.
  std::vector<int> new_of_old(static_cast<std::size_t>(size), 0);
  for (int j = 0; j < size; ++j) {
    new_of_old[static_cast<std::size_t>(effective.original_id(j))] = j;
  }
  BroadcastScheme permuted(size);
  for (int i = 0; i < size; ++i) {
    for (const auto& [to, rate] : scheme_->out_edges(i)) {
      permuted.add(new_of_old[static_cast<std::size_t>(i)],
                   new_of_old[static_cast<std::size_t>(to)], rate);
    }
  }
  // Degraded-edge clamps: cut each named edge down to the goodput the wire
  // actually honors, so the repair pulls the receiver's deficit from
  // healthier senders instead.
  for (const auto& [from, to, limit] : request.edge_limits) {
    const int nf = new_of_old[static_cast<std::size_t>(from)];
    const int nt = new_of_old[static_cast<std::size_t>(to)];
    const double rate = permuted.rate(nf, nt);
    if (rate > limit) permuted.add(nf, nt, -(rate - limit));
  }
  // Sender clamp: a demoted node's planned out-rate may exceed what it can
  // push now — scale its out-edges proportionally into the effective cap.
  for (int i = 0; i < size; ++i) {
    const double out = permuted.out_rate(i);
    const double cap = effective.b(i);
    if (out <= cap || out <= 0.0) continue;
    const double scale = cap / out;
    const std::vector<std::pair<int, double>> edges(
        permuted.out_edges(i).begin(), permuted.out_edges(i).end());
    for (const auto& [to, rate] : edges) {
      permuted.add(i, to, -(rate * (1.0 - scale)));
    }
  }

  // The reference the adaptation is judged by: the design rate scaled by
  // the capacity ratio against the *design* platform total (uniformly
  // rescaling every cap by f rescales the optimum by exactly f, so this
  // is the natural first-order target — a 4x brownout of 10% of the
  // platform targets ~0.925x design, and a later restore back to nominal
  // targets exactly the design rate again instead of compounding ratios
  // of already-adapted totals).
  const double target =
      design_total_ > 0.0
          ? design_rate_ * (effective.total_sum() / design_total_)
          : design_rate_;
  return repair_or_replan(outcome, std::move(effective), permuted, target,
                          request.force_replan, "adapt", timer);
}

ChurnOutcome Session::on_departure(const std::vector<int>& departed) {
  const obs::WallTimer timer(hooks_.trace);
  ChurnOutcome outcome;
  outcome.design_rate = design_rate_;
  if (departed.empty()) {
    outcome.survivors = instance_.size() - 1;
    outcome.degraded_rate = current_rate_;
    outcome.repaired_rate = current_rate_;
    outcome.achieved_rate = current_rate_;
    return outcome;
  }

  Instance survivors = sim::remove_nodes(instance_, departed);
  BroadcastScheme restricted = sim::restrict_scheme(*scheme_, departed);
  // remove_nodes validated the ids (and tolerates duplicates via its
  // bitmap — mirror that); the fingerprint follows the platform in O(1)
  // per departure instead of rehashing every survivor.
  std::vector<char> gone(static_cast<std::size_t>(instance_.size()), 0);
  for (const int node : departed) {
    if (gone[static_cast<std::size_t>(node)]) continue;
    gone[static_cast<std::size_t>(node)] = 1;
    instance_fp_.remove(instance_, node);
  }
  outcome.departed = static_cast<int>(departed.size());
  outcome.survivors = survivors.size() - 1;
  if (outcome.survivors <= 0) {
    instance_ = std::move(survivors);
    scheme_ = std::make_shared<const BroadcastScheme>(std::move(restricted));
    current_rate_ = 0.0;
    outcome.achieved_rate = 0.0;
    return outcome;
  }
  return repair_or_replan(outcome, std::move(survivors), restricted,
                          design_rate_, false, "repair", timer);
}

}  // namespace bmp::engine
