// The traced run's step loop and the timed phase's calibrated clock.
#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

double NsHistogram::quantile(double q) const {
  if (total_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > rank) {
      const std::size_t octave = i / 16;
      const std::size_t sub = i % 16;
      if (octave < 4) return static_cast<double>(sub);
      return std::ldexp(static_cast<double>(16 + sub), static_cast<int>(octave) - 4);
    }
  }
  return 0;
}

void Tracer::run_until(sda::sim::Simulator& sim, sda::sim::SimTime until) {
  // The same loop as Simulator::run_until(), one step at a time.
  while (true) {
    const auto next = sim.next_event_time();
    if (!next || *next > until) break;
    peak_pending_ = std::max(peak_pending_, sim.pending_events());
    const std::int64_t t0 = host_ns();
    sim.step();
    const std::int64_t dur = host_ns() - t0;
    step_hist_.add(dur);
    ++steps_;
    step_ns_ += dur;
  }
  sim.run_until(until);  // advances the clock to `until`, as the untraced run does
}

void Episode::run_until(sda::sim::SimTime until) {
  if (!clock) {
    advance(until);
    return;
  }
  constexpr int kSlices = 64;
  constexpr double kSegmentSeconds = 0.1;
  const sda::sim::SimTime from = sim.now();
  const sda::sim::Duration span = until - from;
  double segment = 0;
  for (int k = 1; k <= kSlices; ++k) {
    const sda::sim::SimTime stop = k == kSlices ? until : from + span * k / kSlices;
    const std::uint64_t a0 = heap_allocations();
    const std::int64_t t0 = host_ns();
    advance(stop);
    segment += static_cast<double>(host_ns() - t0) / 1e9;
    clock->allocs += heap_allocations() - a0;
    if (segment >= kSegmentSeconds || k == kSlices) {
      const double ref = reference_seconds();
      clock->calibrated_s += segment * kNominalReferenceSeconds / ((clock->ref_s + ref) / 2);
      clock->raw_s += segment;
      clock->ref_s = ref;
      segment = 0;
    }
  }
}

}  // namespace perfbench
