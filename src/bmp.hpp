// Umbrella header for the bmpbcast library: broadcasting on large-scale
// heterogeneous platforms under the bounded multi-port model (Beaumont,
// Bonichon, Eyraud-Dubois, Uznański, Agrawal — IPDPS 2010 / TPDS 2014).
//
// Quick tour (see README.md for a narrative):
//   Instance            platform model (source + open + guarded nodes)
//   solve_acyclic       §IV  optimal low-degree acyclic scheme
//   build_acyclic_open  §III Algorithm 1 (open nodes only)
//   build_cyclic_open   §V   Theorem 5.2 cyclic construction
//   cyclic_upper_bound  §V   Lemma 5.1 closed form
//   flow::scheme_throughput   tiered throughput verification (flow/verify)
//   flow::Verifier      reusable verification engine with per-tier stats
//   engine::Planner     batched/cached service front-end over the algorithms
//   engine::Session     churn-aware long-lived overlay with incremental repair
//   runtime::Runtime    multi-channel event loop over brokered capacity
//   runtime::Scenario   deterministic workload -> event-stream compiler
#pragma once

#include "bmp/core/acyclic_open.hpp"
#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/core/cyclic_open.hpp"
#include "bmp/core/exact.hpp"
#include "bmp/core/greedy_test.hpp"
#include "bmp/core/instance.hpp"
#include "bmp/core/omega_words.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/core/word.hpp"
#include "bmp/core/word_schedule.hpp"
#include "bmp/core/word_throughput.hpp"
#include "bmp/engine/fingerprint.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/runtime/capacity_broker.hpp"
#include "bmp/runtime/event.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
