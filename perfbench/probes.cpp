// Replay probes: after the timed phase, on the warm fabric, time single
// calls into each layer's public functions with inputs sampled from the
// run. Each probe reports host nanoseconds per call (median of several
// batches) and, where it matters, heap allocations per call.
#include "probes.hpp"

#include <algorithm>

#include "lisp/map_server.hpp"

namespace perfbench {

namespace {

using namespace sda;

constexpr int kBatches = 5;

/// Median over batches of the per-call host time of `f(i)`.
template <class F>
double per_call_ns(std::size_t calls, F&& f) {
  std::vector<double> batches;
  std::size_t i = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = host_ns();
    for (std::size_t n = 0; n < calls; ++n) f(i++);
    batches.push_back(static_cast<double>(host_ns() - t0) / static_cast<double>(calls));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

/// Host time per dispatched event of an empty-event simulator loop: the
/// self time of dispatch, without any fabric work.
double dispatch_ns() {
  constexpr std::size_t kEvents = 200000;
  std::vector<double> runs;
  for (int r = 0; r < kBatches; ++r) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < kEvents; ++i) {
      sim.schedule_at(sim::SimTime{sim::Duration{static_cast<std::int64_t>((i * 7919) % kEvents)}},
                      [] {});
    }
    const std::int64_t t0 = host_ns();
    sim.run();
    runs.push_back(static_cast<double>(host_ns() - t0) / kEvents);
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// A standalone copy of a map-server database (host mappings only).
std::unique_ptr<lisp::MapServer> copy_of(const lisp::MapServer& server,
                                         std::size_t skip_every = 0) {
  auto copy = std::make_unique<lisp::MapServer>();
  std::size_t n = 0;
  server.walk([&](const net::VnEid& eid, const lisp::MappingRecord& record) {
    if (skip_every == 0 || ++n % skip_every != 0) copy->register_mapping(eid, record);
  });
  return copy;
}

}  // namespace

LayerProbes run_probes(Episode& ep, const ProbeSamples& s) {
  LayerProbes p;
  fabric::SdaFabric& f = *ep.fabric;
  // The benchmark's own listeners must not add to the replayed calls.
  f.set_delivery_listener({});
  f.set_border_sync_listener({});

  p.dispatch_ns = dispatch_ns();

  if (!s.rloc_pairs.empty()) {
    constexpr std::size_t kCalls = 4000;
    const std::uint64_t a0 = heap_allocations();
    p.deliver_ns = per_call_ns(kCalls, [&](std::size_t i) {
      const auto& [node, rloc] = s.rloc_pairs[i % s.rloc_pairs.size()];
      f.underlay().deliver(node, rloc, i, 64, [] {});
    });
    p.deliver_allocs = static_cast<double>(heap_allocations() - a0) / (kCalls * kBatches);
  }

  if (!s.group_pairs.empty()) {
    dataplane::Sgacl& sgacl = f.edge(s.warm_edge).sgacl();
    p.sgacl_ns = per_call_ns(20000, [&](std::size_t i) {
      const auto& [src, dst] = s.group_pairs[i % s.group_pairs.size()];
      (void)sgacl.evaluate(s.vn, src, dst);
    });
  }

  if (!s.eids.empty()) {
    lisp::MapCache& cache = f.edge(s.warm_edge).map_cache();
    const sim::SimTime now = ep.sim.now();
    p.lookup_ns = per_call_ns(20000, [&](std::size_t i) {
      (void)cache.lookup(s.eids[i % s.eids.size()], now);
    });

    const lisp::MapServer& server = f.map_server();
    p.answer_ns = per_call_ns(5000, [&](std::size_t i) {
      lisp::MapRequest request;
      request.nonce = i;
      request.eid = s.eids[i % s.eids.size()];
      (void)server.answer(request);
    });

    // Border apply: re-publish mappings the border already holds, unsequenced
    // and in its current epoch, so its state does not change.
    dataplane::BorderRouter& border = f.border(f.border_names().front());
    std::vector<lisp::Publish> publishes;
    server.walk([&](const net::VnEid& eid, const lisp::MappingRecord& record) {
      if (publishes.size() >= 4096) return;
      lisp::Publish pub;
      pub.eid = eid;
      pub.rlocs = record.rlocs;
      pub.ttl_seconds = record.ttl_seconds;
      pub.epoch = border.feed_epoch();
      publishes.push_back(std::move(pub));
    });
    if (!publishes.empty()) {
      p.publish_ns = per_call_ns(5000, [&](std::size_t i) {
        (void)border.receive_publish(publishes[i % publishes.size()]);
      });
      auto copy = copy_of(server);
      std::vector<std::pair<net::VnEid, lisp::MappingRecord>> records;
      server.walk([&](const net::VnEid& eid, const lisp::MappingRecord& record) {
        if (records.size() < 4096) records.emplace_back(eid, record);
      });
      p.register_ns = per_call_ns(5000, [&](std::size_t i) {
        const auto& [eid, record] = records[i % records.size()];
        (void)copy->register_mapping(eid, record);
      });
    }
  }

  if (!s.credentials.empty()) {
    policy::PolicyServer& policy = f.policy_server();
    const net::Ipv4Address edge_rloc = f.edge(s.warm_edge).rloc();
    std::vector<policy::AccessRequest> requests;
    for (std::size_t i = 0; i < s.credentials.size(); ++i) {
      policy::AccessRequest r;
      r.request_id = static_cast<std::uint32_t>(i);
      r.credential = s.credentials[i];
      r.secret = s.secrets[i];
      requests.push_back(std::move(r));
    }
    p.authenticate_ns = per_call_ns(5000, [&](std::size_t i) {
      (void)policy.authenticate(requests[i % requests.size()], edge_rloc);
    });
  }

  // Anti-entropy between two replicas of the run's database, one of which
  // missed every 100th registration.
  {
    const lisp::MapServer& primary = f.map_server_replica(0);
    const lisp::MapServer& other =
        f.routing_server_count() > 1 ? f.map_server_replica(1) : f.map_server_replica(0);
    std::vector<double> runs;
    for (int r = 0; r < kBatches; ++r) {
      auto a = copy_of(primary);
      auto b = copy_of(other, 100);
      const std::int64_t t0 = host_ns();
      (void)a->reconcile_with(*b, ep.sim.now());
      runs.push_back(static_cast<double>(host_ns() - t0));
    }
    std::sort(runs.begin(), runs.end());
    p.reconcile_ns = runs[runs.size() / 2];
  }

  {
    std::vector<double> runs;
    for (int r = 0; r < kBatches; ++r) {
      const std::int64_t t0 = host_ns();
      const auto snap = f.metrics().snapshot();
      runs.push_back(static_cast<double>(host_ns() - t0) / 1e6);
      (void)snap;
    }
    std::sort(runs.begin(), runs.end());
    p.snapshot_ms = runs[runs.size() / 2];
  }
  return p;
}

}  // namespace perfbench
