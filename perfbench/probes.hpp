// Replay probes of the traced run (see probes.cpp).
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Host time per call (ns unless noted) of each layer's public functions,
/// replayed on the warm fabric of a finished episode.
struct LayerProbes {
  double dispatch_ns = 0;      // sim: empty-event dispatch
  double deliver_ns = 0;       // underlay: UnderlayNetwork::deliver
  double deliver_allocs = 0;   // heap allocations per deliver()
  double sgacl_ns = 0;         // dataplane: Sgacl::evaluate
  double publish_ns = 0;       // dataplane: BorderRouter::receive_publish
  double lookup_ns = 0;        // lisp: MapCache::lookup on a warm edge
  double register_ns = 0;      // lisp: MapServer::register_mapping
  double answer_ns = 0;        // lisp: MapServer::answer
  double authenticate_ns = 0;  // policy: PolicyServer::authenticate
  double reconcile_ns = 0;     // fabric/ha: MapServer::reconcile_with, per call
  double snapshot_ms = 0;      // telemetry: MetricsRegistry::snapshot
};

/// Runs every probe on `ep`, which must have finished its timed phase and
/// its correctness checks: the probes change the fabric's state.
LayerProbes run_probes(Episode& ep, const ProbeSamples& samples);

}  // namespace perfbench
