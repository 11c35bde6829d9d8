// Shared types of the repository benchmark: the input generator, the
// episode a workload runs in, the optional tracer, and what an episode
// reports back.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "faults/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

/// Heap allocations made by this process so far (counted in alloc.cpp).
std::uint64_t heap_allocations();

/// Host seconds of the benchmark's fixed reference computation (reference.cpp).
double reference_seconds();

/// The reference computation's host time on the host this benchmark was
/// defined on (4-vCPU x86-64 VM at 2.0 GHz, GCC 12 -O3). Calibrated times
/// are host times scaled by this over the reference time measured beside
/// them, so they read as seconds on that host.
inline constexpr double kNominalReferenceSeconds = 0.015;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Input generator. The benchmark owns its PRNG (splitmix64) so that the
/// inputs of a seed stay the same when the program's own RNG changes.
class Prng {
 public:
  // Seeds start from a hash of the seed, so neighbouring seeds do not give
  // overlapping streams.
  explicit Prng(std::uint64_t seed) : state_(seed) { state_ = next(); }
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::uint32_t below(std::uint64_t n) { return static_cast<std::uint32_t>(next() % n); }
  bool chance(double p) { return uniform() < p; }
  double exponential(double mean) { return -mean * std::log(1.0 - uniform()); }
  double normal(double mean, double sigma) {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return mean + sigma * std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n); rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent);
  [[nodiscard]] std::size_t sample(Prng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One generated input, due at `at_ns` of simulated time. Its meaning is
/// the workload's: `kind` selects the action, `a`/`b`/`aux` name subjects.
struct Action {
  std::int64_t at_ns = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint16_t kind = 0;
  std::uint16_t aux = 0;
};

/// Log-linear histogram of host nanoseconds (16 sub-buckets per octave).
class NsHistogram {
 public:
  void add(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(ns < 1 ? 1 : ns);
    const int octave = std::bit_width(v) - 1;
    const auto sub = octave >= 4 ? (v >> (octave - 4)) & 15u : v & 15u;
    ++counts_[static_cast<std::size_t>(octave) * 16 + sub];
    ++total_;
  }
  /// Lower edge of the bucket holding quantile q.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::array<std::uint64_t, 64 * 16> counts_{};
  std::uint64_t total_ = 0;
};

/// Calls into SdaFabric that the benchmark wraps in spans.
enum class SpanKind : std::uint8_t { Connect, Roam, Disconnect, Send, Other, Count };
inline constexpr std::array<const char*, 5> kSpanNames{"connect", "roam", "disconnect", "send",
                                                       "other"};

/// The traced run's recorder: spans around the benchmark's own calls into
/// the fabric, and a span around every Simulator::step() of the timed
/// phase. API spans of one operation share its id; step spans are
/// aggregated, since a run executes millions of them.
class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
    std::uint64_t allocs = 0;
  };
  struct Span {
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;  // host time since the tracer was created
    std::int64_t dur_ns = 0;
    std::uint64_t allocs = 0;
    SpanKind kind = SpanKind::Other;
  };

  template <class F>
  void span(SpanKind kind, std::uint64_t op, F&& call) {
    const std::uint64_t a0 = heap_allocations();
    const std::int64_t t0 = host_ns();
    call();
    const std::int64_t dur = host_ns() - t0;
    Totals& t = api_[static_cast<std::size_t>(kind)];
    ++t.calls;
    t.ns += dur;
    t.allocs += heap_allocations() - a0;
    if (spans_.size() < kKeptSpans) {
      spans_.push_back({op, t0 - origin_ns_, dur, heap_allocations() - a0, kind});
    }
  }

  /// Simulator::run_until() with a span around each step.
  void run_until(sda::sim::Simulator& sim, sda::sim::SimTime until);

  [[nodiscard]] const Totals& api(SpanKind kind) const {
    return api_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::int64_t step_ns() const { return step_ns_; }
  [[nodiscard]] const NsHistogram& step_histogram() const { return step_hist_; }
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr std::size_t kKeptSpans = 20000;
  std::array<Totals, static_cast<std::size_t>(SpanKind::Count)> api_{};
  std::uint64_t steps_ = 0;
  std::int64_t step_ns_ = 0;
  NsHistogram step_hist_;
  std::size_t peak_pending_ = 0;
  std::int64_t origin_ns_ = host_ns();
  std::vector<Span> spans_;
};

/// Host time and allocations of a timed phase, the reference computation's
/// own time and allocations excluded.
struct PhaseClock {
  double raw_s = 0;          // host seconds spent in the simulator
  double calibrated_s = 0;   // each segment scaled by nominal / local reference
  std::uint64_t allocs = 0;
  double ref_s = 0;          // the latest reference time (seeded by the caller)
};

/// One workload instance: a fresh simulator and fabric. Member order makes
/// the fault plane die before the fabric, and the fabric before the
/// simulator they reference.
struct Episode {
  sda::sim::Simulator sim;
  std::unique_ptr<sda::fabric::SdaFabric> fabric;
  std::unique_ptr<sda::faults::FaultPlane> plane;
  /// Non-null only during the timed phase of a traced episode.
  Tracer* tracer = nullptr;

  /// Non-null only during the timed phase; see run_until().
  PhaseClock* clock = nullptr;

  std::int64_t provision_ns = 0;  // provision_endpoint() calls, total
  std::size_t provisioned = 0;
  std::int64_t finalize_ns = 0;

  /// Simulator::run_until(). In the timed phase the interval runs in
  /// slices, and after every ~100 ms of host time the reference
  /// computation is timed, outside the clock, to calibrate that segment.
  /// Slicing does not change the order of events.
  void run_until(sda::sim::SimTime until);

 private:
  void advance(sda::sim::SimTime until) {
    if (tracer) {
      tracer->run_until(sim, until);
    } else {
      sim.run_until(until);
    }
  }

 public:
  template <class F>
  void call(SpanKind kind, std::uint64_t op, F&& f) {
    if (tracer) {
      tracer->span(kind, op, std::forward<F>(f));
    } else {
      f();
    }
  }
};

/// What one episode produced: op counts, modelled latencies in simulated
/// time, failed correctness checks, and the digest of its simulated
/// outputs.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> onboard_ms;
  std::vector<double> handover_ms;
  std::vector<double> first_packet_us;
  double reconverge_ms = -1;  // failover_storm only
  std::uint64_t sent = 0, delivered = 0, denied = 0;
  std::vector<std::string> check_failures;
  std::uint64_t digest = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Inputs sampled from a run for the replay probes.
struct ProbeSamples {
  sda::net::VnId vn{1};
  std::vector<std::pair<sda::underlay::NodeId, sda::net::Ipv4Address>> rloc_pairs;
  std::vector<std::pair<sda::net::GroupId, sda::net::GroupId>> group_pairs;
  std::vector<sda::net::VnEid> eids;  // destinations the run resolved
  std::vector<std::string> credentials;
  std::vector<std::string> secrets;
  std::string warm_edge;  // the edge whose map-cache the lookups replay on
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Topology, provisioning, finalize() and warm-up: the set-up phase.
  virtual void setup(Episode& ep) = 0;
  /// The timed phase: replays the generated inputs, then drains.
  virtual void run(Episode& ep) = 0;
  /// Correctness checks and results; computes the digest.
  virtual void finish(Episode& ep, Outcome& out) = 0;
  /// Inputs for the replay probes, taken from the finished episode.
  virtual ProbeSamples samples(Episode& ep) = 0;
};

inline constexpr std::array<const char*, 4> kWorkloads{"warehouse_roam", "campus_day",
                                                       "fabric_stream", "failover_storm"};

/// The named workload with inputs generated from `seed`; `smoke` makes it
/// small. nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke);

/// Sum of the registry counters named `<family>...<leaf>`, e.g. every
/// edge's encapsulations: sum_counters(s, "edge[", "].encapsulated").
std::uint64_t sum_counters(const sda::telemetry::Snapshot& snap, const std::string& family,
                           const std::string& leaf);

/// FNV-1a over 64-bit words: the digest of an episode's simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace perfbench
