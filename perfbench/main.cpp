// sda_perfbench: the repository benchmark.
//
//   sda_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//   sda_perfbench --smoke
//
// Runs one workload (see workloads.cpp) through the public SdaFabric API on
// one thread. An episode is one fresh fabric: set-up (topology,
// provisioning, finalize, warm-up), then the timed phase, then the
// correctness checks. A run repeats episodes on the same generated inputs
// until `--seconds` have passed and reports medians, so every figure is a
// fixed amount of work. Host times are calibrated against a fixed reference
// computation (see kNominalReferenceSeconds and Episode::run_until).
//
// --trace 0 times episodes with tracing off and reports the end-to-end
// metrics. --trace 1 alternates untraced and traced episodes, requires both
// to produce the same digest of simulated outputs, replays layer probes on
// the warm fabric of the last traced episode and reports the per-layer
// metrics, including how much of wall_s the layers account for.
//
// Human-readable lines go first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. A failed check
// sets "correct": false; the exit code is 0 unless the arguments are wrong
// (or, with --smoke, a check failed).
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probes.hpp"

namespace {

using namespace perfbench;
using sda::telemetry::Snapshot;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::uint64_t counter(const Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct EpisodeRun {
  double setup_s = 0;      // raw host seconds
  double wall_s = 0;       // raw host seconds in the simulator
  double setup_cal_s = 0;  // calibrated
  double wall_cal_s = 0;   // calibrated
  double ref_s = 0;        // reference time after the episode
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  Outcome out;
  Snapshot delta;  // counters over the timed phase (traced episodes only)
  std::unique_ptr<Episode> ep;
};

/// Runs one episode. `ref` holds the reference time measured just before
/// it, and on return the one measured last. Set-up is calibrated by the
/// mean of the reference times on either side of it; the timed phase
/// segment by segment (Episode::run_until).
EpisodeRun run_episode(Workload& wl, Tracer* tracer, bool keep, double& ref) {
  EpisodeRun r;
  r.ep = std::make_unique<Episode>();
  Episode& ep = *r.ep;
  const std::int64_t t0 = host_ns();
  wl.setup(ep);
  r.setup_s = static_cast<double>(host_ns() - t0) / 1e9;
  PhaseClock clock;
  clock.ref_s = reference_seconds();
  r.setup_cal_s = r.setup_s * kNominalReferenceSeconds / ((ref + clock.ref_s) / 2);
  Snapshot before;
  if (tracer) before = ep.fabric->metrics().snapshot();
  const std::uint64_t events0 = ep.sim.executed_events();
  ep.tracer = tracer;
  ep.clock = &clock;
  wl.run(ep);
  ep.clock = nullptr;
  ep.tracer = nullptr;
  r.wall_s = clock.raw_s;
  r.wall_cal_s = clock.calibrated_s;
  r.allocs = clock.allocs;
  r.ref_s = ref = clock.ref_s;
  r.events = ep.sim.executed_events() - events0;
  wl.finish(ep, r.out);
  if (tracer) r.delta = ep.fabric->metrics().snapshot().delta(before);
  if (!keep) r.ep.reset();
  return r;
}

void print_samples(const Outcome& o) {
  const auto line = [](const char* stem, const char* unit, const std::vector<double>& v) {
    if (v.empty()) {
      std::printf("  %-28s n/a (no samples)\n", stem);
      return;
    }
    const char* fmt = "  %s_p%d_%-18s %.4f %s  (n=%zu)\n";
    std::printf(fmt, stem, 50, unit, percentile(v, 50), unit, v.size());
    if (v.size() >= 1000) {
      std::printf(fmt, stem, 99, unit, percentile(v, 99), unit, v.size());
    } else {
      std::printf("  %s_p99_%-18s n/a (n=%zu < 1000)\n", stem, unit, v.size());
    }
  };
  line("handover", "ms", o.handover_ms);
  line("first_packet", "us", o.first_packet_us);
  line("onboard", "ms", o.onboard_ms);
  if (o.reconverge_ms >= 0) {
    std::printf("  %-28s %.1f ms\n", "reconverge_ms", o.reconverge_ms);
  } else {
    std::printf("  %-28s n/a (failover_storm only)\n", "reconverge_ms");
  }
  std::printf("  %-28s %.6f ratio  (failed=%" PRIu64 " attempted=%" PRIu64 ")\n", "failed_ratio",
              ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)), o.failed,
              o.attempted);
  std::printf("  packets: sent=%" PRIu64 " delivered=%" PRIu64 " policy_denied=%" PRIu64 "\n",
              o.sent, o.delivered, o.denied);
  std::printf("  digest=%016" PRIx64 "\n", o.digest);
}

/// Per-layer metrics from a traced episode and its replay probes.
/// `trace_overhead` is traced over untraced calibrated wall time.
std::vector<Metric> layer_metrics(const EpisodeRun& run, const Tracer& tracer,
                                  const LayerProbes& p, double trace_overhead) {
  const Snapshot& d = run.delta;
  Episode& ep = *run.ep;
  sda::fabric::SdaFabric& f = *ep.fabric;
  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const auto c = [&d](const std::string& name) { return static_cast<double>(counter(d, name)); };
  const auto edges = [&d](const std::string& leaf) {
    return static_cast<double>(sum_counters(d, "edge[", leaf));
  };
  const auto borders = [&d](const std::string& leaf) {
    return static_cast<double>(sum_counters(d, "border[", leaf));
  };
  const auto per_call = [&tracer](SpanKind k, bool allocs) {
    const auto& t = tracer.api(k);
    return ratio(static_cast<double>(allocs ? t.allocs : static_cast<std::uint64_t>(t.ns)),
                 static_cast<double>(t.calls));
  };

  // sim
  add("sim.events", static_cast<double>(run.events), "count");
  add("sim.ns_per_event",
      ratio(static_cast<double>(tracer.step_ns()), static_cast<double>(tracer.steps())), "ns");
  add("sim.event_ns_p50", tracer.step_histogram().quantile(0.50), "ns");
  add("sim.event_ns_p99", tracer.step_histogram().quantile(0.99), "ns");
  add("sim.dispatch_ns", p.dispatch_ns, "ns");
  add("sim.peak_pending", static_cast<double>(tracer.peak_pending()), "count");

  // underlay
  add("underlay.deliver_ns", p.deliver_ns, "ns");
  add("underlay.deliver_allocs", p.deliver_allocs, "count");
  add("underlay.drops", c("underlay.unreachable_drops") + c("underlay.fault_drops"), "count");

  // dataplane
  add("dataplane.edge.send_ns", per_call(SpanKind::Send, false), "ns");
  add("dataplane.edge.send_allocs", per_call(SpanKind::Send, true), "count");
  add("dataplane.edge.encapsulated", edges("].encapsulated"), "count");
  add("dataplane.edge.decapsulated", edges("].decapsulated"), "count");
  add("dataplane.edge.parked", edges("].packets_parked"), "count");
  add("dataplane.edge.resolution_drops", edges("].resolution_drops"), "count");
  add("dataplane.edge.smr_sent", edges("].smr_sent"), "count");
  const double sg_drops = static_cast<double>(sum_counters(d, "", ".sgacl.drops"));
  const double sg_permits = static_cast<double>(sum_counters(d, "", ".sgacl.permits"));
  add("dataplane.sgacl.evaluate_ns", p.sgacl_ns, "ns");
  add("dataplane.sgacl.deny_ratio", ratio(sg_drops, sg_drops + sg_permits), "ratio");
  add("dataplane.border.publish_ns", p.publish_ns, "ns");
  add("dataplane.border.publishes_applied", borders("].publishes_applied"), "count");
  add("dataplane.border.snapshots_applied", borders("].snapshots_applied"), "count");

  // lisp
  const double lookups = edges(".map_cache.hits") + edges(".map_cache.misses");
  add("lisp.map_cache.hit_ratio", ratio(edges(".map_cache.hits"), lookups), "ratio");
  add("lisp.map_cache.lookup_ns", p.lookup_ns, "ns");
  add("lisp.map_cache.installs", edges(".map_cache.installs"), "count");
  add("lisp.map_cache.evictions", edges(".map_cache.evictions"), "count");
  add("lisp.map_cache.expirations", edges(".map_cache.expirations"), "count");
  add("lisp.map_server.registers", c("map_server.registers"), "count");
  add("lisp.map_server.requests", c("map_server.requests"), "count");
  add("lisp.map_server.negative_replies", c("map_server.negative_replies"), "count");
  add("lisp.map_server.register_ns", p.register_ns, "ns");
  add("lisp.map_server.answer_ns", p.answer_ns, "ns");
  std::vector<double> request_sojourns, register_sojourns;
  double peak_backlog = 0;
  for (std::size_t i = 0; i < f.routing_server_count(); ++i) {
    const auto& node = f.map_server_node(i);
    for (const double s : node.request_sojourns().samples()) request_sojourns.push_back(s * 1e6);
    for (const double s : node.register_sojourns().samples()) register_sojourns.push_back(s * 1e6);
    peak_backlog = std::max(peak_backlog, static_cast<double>(node.peak_backlog()));
  }
  add("lisp.server_node.request_sojourn_p99_us", percentile(request_sojourns, 99), "us");
  add("lisp.server_node.register_sojourn_p99_us", percentile(register_sojourns, 99), "us");
  add("lisp.server_node.peak_backlog", peak_backlog, "count");
  add("lisp.server_node.sheds",
      static_cast<double>(sum_counters(d, "routing_server[", "].shed_submissions")), "count");

  // policy, l2
  const double auths = c("policy_server.auth_accepts") + c("policy_server.auth_rejects");
  add("policy.auths", auths, "count");
  add("policy.authenticate_ns", p.authenticate_ns, "ns");
  add("policy.rule_downloads", c("policy_server.rule_downloads"), "count");
  add("l2.dhcp_leases", static_cast<double>(f.dhcp_server().active_leases(sda::net::VnId{1})),
      "count");

  // fabric, fabric/ha
  add("fabric.connect_ns", per_call(SpanKind::Connect, false), "ns");
  add("fabric.roam_ns", per_call(SpanKind::Roam, false), "ns");
  add("fabric.disconnect_ns", per_call(SpanKind::Disconnect, false), "ns");
  add("fabric.provision_ns",
      ratio(static_cast<double>(ep.provision_ns), static_cast<double>(ep.provisioned)), "ns");
  add("fabric.finalize_s", static_cast<double>(ep.finalize_ns) / 1e9, "s");
  add("fabric.ha.elections", c("ha.elections_started"), "count");
  add("fabric.ha.failovers", c("ha.failovers"), "count");
  add("fabric.ha.anti_entropy_repairs", c("ha.anti_entropy_repairs"), "count");
  add("fabric.ha.catchup_replays", c("ha.catchup.replays"), "count");
  add("fabric.ha.snapshot_fallbacks", c("ha.catchup.snapshot_fallbacks"), "count");
  add("fabric.ha.reconcile_ns", p.reconcile_ns, "ns");

  // faults, telemetry
  add("faults.control_drops", c("faults.control_drops"), "count");
  add("faults.data_drops", c("faults.data_drops"), "count");
  add("telemetry.snapshot_ms", p.snapshot_ms, "ms");
  add("telemetry.trace_overhead", trace_overhead, "ratio");

  // Attribution: each layer's busy estimate is its call count times its
  // replayed per-call time, as a share of this episode's raw wall time.
  // The count of underlay deliveries is estimated from the messages the
  // counters see.
  const double wall_ns = run.wall_s * 1e9;
  const double publishes = borders("].publishes_applied") + borders("].withdrawals_applied");
  const double deliveries =
      edges("].encapsulated") + borders("].hairpinned") + borders("].external_in") +
      edges("].map_requests_sent") + edges("].registers_sent") + edges("].registers_acked") +
      edges("].smr_sent") + c("map_server.requests") + publishes + 2 * c("ha.heartbeats_sent");
  const double ingress_self =
      std::max(0.0, per_call(SpanKind::Send, false) - p.lookup_ns - p.deliver_ns);
  const auto span_ns = [&tracer](SpanKind k) { return static_cast<double>(tracer.api(k).ns); };
  std::map<std::string, double> busy;
  busy["sim"] = static_cast<double>(run.events) * p.dispatch_ns;
  busy["underlay"] = deliveries * p.deliver_ns;
  busy["dataplane"] = static_cast<double>(tracer.api(SpanKind::Send).calls) * ingress_self +
                      edges("].decapsulated") * p.sgacl_ns + publishes * p.publish_ns;
  busy["lisp"] = lookups * p.lookup_ns + c("map_server.registers") * p.register_ns +
                 c("map_server.requests") * p.answer_ns;
  busy["policy"] = auths * p.authenticate_ns;
  busy["fabric"] =
      span_ns(SpanKind::Connect) + span_ns(SpanKind::Roam) + span_ns(SpanKind::Disconnect);
  busy["fabric.ha"] = c("ha.digest_mismatches") * p.reconcile_ns;
  double attributed = 0;
  for (const auto& [layer, ns] : busy) {
    add("attrib." + layer + "_share", ratio(ns, wall_ns), "ratio");
    attributed += ns;
  }
  add("attrib.unattributed_share", 1.0 - ratio(attributed, wall_ns), "ratio");
  return m;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-42s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
       ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  return s + "}}";
}

void write_spans(const std::string& path, const std::string& workload, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"workload\": \"" << workload << "\", \"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "") << "{\"op\": " << s.op << ", \"name\": \""
        << kSpanNames[static_cast<std::size_t>(s.kind)] << "\", \"start_ns\": " << s.start_ns
        << ", \"dur_ns\": " << s.dur_ns << ", \"allocs\": " << s.allocs << "}";
  }
  out << "\n]}\n";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload and prints its report. Episodes repeat until the time
/// budget is spent, with at least three untraced episodes (two of each
/// kind when traced).
Result run_workload(const std::string& name, std::uint64_t seed, bool smoke, double seconds,
                    bool traced, const std::string& trace_out) {
  Result result;
  const std::int64_t start = host_ns();
  auto wl = make_workload(name, seed, smoke);
  std::printf("workload %s seed %" PRIu64 "%s: inputs generated in %.3f s\n", name.c_str(), seed,
              smoke ? " (smoke)" : "", static_cast<double>(host_ns() - start) / 1e9);
  const std::int64_t budget_end = host_ns() + static_cast<std::int64_t>(seconds * 1e9);

  std::vector<EpisodeRun> untraced, traced_runs;
  double ref = reference_seconds();
  std::unique_ptr<Tracer> tracer;  // of the newest traced episode
  double rss_mb = 0;
  const std::size_t min_each = traced ? 2 : 3;
  while (true) {
    const bool enough = untraced.size() >= min_each && (!traced || traced_runs.size() >= min_each);
    if (enough && host_ns() >= budget_end) break;
    if (untraced.size() >= 200) break;
    const bool do_traced = traced && traced_runs.size() < untraced.size();
    if (do_traced) {
      if (!traced_runs.empty()) traced_runs.back().ep.reset();  // keep the newest fabric only
      tracer = std::make_unique<Tracer>();
      traced_runs.push_back(run_episode(*wl, tracer.get(), true, ref));
    } else {
      untraced.push_back(run_episode(*wl, nullptr, false, ref));
      // Later episodes reuse a heap the earlier ones fragmented, so the
      // high-water mark is read after the first: the inputs plus one fabric.
      if (untraced.size() == 1) rss_mb = peak_rss_mb();
    }
  }

  const Outcome& first = untraced.front().out;
  // Host times are reported calibrated (see kNominalReferenceSeconds), so
  // that a host that is momentarily slower at this kind of code does not
  // read as a slower program. The raw times are printed too.
  std::vector<double> setup, wall, ops, allocs, raw_setup, raw_wall, refs;
  for (const auto& r : untraced) {
    setup.push_back(r.setup_cal_s);
    wall.push_back(r.wall_cal_s);
    ops.push_back(static_cast<double>(r.out.attempted) / r.wall_cal_s);
    allocs.push_back(static_cast<double>(r.allocs) /
                     static_cast<double>(std::max<std::uint64_t>(1, r.out.attempted)));
    raw_setup.push_back(r.setup_s);
    raw_wall.push_back(r.wall_s);
    refs.push_back(r.ref_s);
  }
  const auto check_run = [&](const EpisodeRun& r, const char* kind) {
    for (const auto& c : r.out.check_failures) {
      std::printf("CHECK FAILED (%s episode): %s\n", kind, c.c_str());
      result.correct = false;
    }
    if (r.out.digest != first.digest) {
      std::printf("CHECK FAILED: %s episode digest %016" PRIx64 " != %016" PRIx64 "\n", kind,
                  r.out.digest, first.digest);
      result.correct = false;
    }
    if (r.out.attempted != first.attempted || r.out.failed != first.failed) {
      std::printf("CHECK FAILED: %s episode op counts differ\n", kind);
      result.correct = false;
    }
  };
  for (const auto& r : untraced) check_run(r, "untraced");
  for (const auto& r : traced_runs) check_run(r, "traced");
  result.attempted = first.attempted;
  result.failed = first.failed;

  std::printf("episodes: %zu untraced, %zu traced; events per timed phase %" PRIu64 "\n",
              untraced.size(), traced_runs.size(), untraced.front().events);
  std::printf("untraced raw wall_s per episode:");
  for (const double w : raw_wall) std::printf(" %.4f", w);
  std::printf("\nreference s per episode:");
  for (const double w : refs) std::printf(" %.4f", w);
  std::printf("\n");
  std::printf("modelled behaviour (simulated time, exact per seed):\n");
  print_samples(first);

  std::vector<Metric> e2e{
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"ops_per_s", median(ops), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"allocs_per_op", median(allocs), "count"},
  };
  print_metrics("end-to-end (calibrated host time, tracing off; medians over episodes):", e2e);
  print_metrics("raw host time (not calibrated):",
                {{"wall_raw_s", median(raw_wall), "s"},
                 {"setup_raw_s", median(raw_setup), "s"},
                 {"reference_s", median(refs), "s"}});

  if (!traced) {
    result.metrics = e2e;
    return result;
  }
  std::vector<double> traced_wall;
  for (const auto& r : traced_runs) traced_wall.push_back(r.wall_cal_s);
  EpisodeRun& last = traced_runs.back();
  const ProbeSamples samples = wl->samples(*last.ep);
  const LayerProbes probes = run_probes(*last.ep, samples);
  result.metrics = layer_metrics(last, *tracer, probes, median(traced_wall) / median(wall));
  print_metrics("per-layer (traced episode, replay probes on its warm fabric):", result.metrics);
  if (!trace_out.empty()) write_spans(trace_out, name, *tracer);
  return result;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    const char* v = value();
    if (!v) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      o.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  if (o.smoke) return true;
  if (o.trace != 0 && o.trace != 1) return false;
  if (!(o.seconds > 0)) return false;
  for (const char* w : kWorkloads) {
    if (o.workload == w) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: sda_perfbench --workload {warehouse_roam|campus_day|fabric_stream|"
                 "failover_storm} --seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       sda_perfbench --smoke\n");
    return 2;
  }
  if (o.smoke) {
    // Every workload at a small scale, untraced and traced: every metric is
    // printed and every check runs.
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const char* w : kWorkloads) {
      const Result r = run_workload(w, o.seed, true, 0, true, "");
      correct = correct && r.correct;
      attempted += r.attempted;
      failed += r.failed;
    }
    std::printf("%s\n", json_result(correct, attempted, failed, {}).c_str());
    return correct ? 0 : 1;
  }
  const Result r = run_workload(o.workload, o.seed, false, o.seconds, o.trace == 1, o.trace_out);
  std::printf("%s\n", json_result(r.correct, r.attempted, r.failed, r.metrics).c_str());
  std::fflush(stdout);
  return 0;
}
