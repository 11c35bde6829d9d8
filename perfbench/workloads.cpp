// The four benchmark workloads. Each generates every input from the seed
// when it is constructed (onboarding and move schedules, flow lists, fault
// schedules) and replays the same inputs in every episode, open loop: an
// input fires at its simulated time whatever the fabric has done so far.
#include <algorithm>
#include <array>
#include <cmath>

#include "bench.hpp"
#include "fabric/topologies.hpp"

namespace perfbench {

Zipf::Zipf(std::size_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Prng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
}

std::uint64_t sum_counters(const sda::telemetry::Snapshot& snap, const std::string& family,
                           const std::string& leaf) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with(family) && name.ends_with(leaf)) total += value;
  }
  return total;
}

namespace {

using namespace sda;
using sim::SimTime;

constexpr net::VnId kVn{1};

std::int64_t ns_of(double seconds) { return static_cast<std::int64_t>(seconds * 1e9); }
SimTime at_s(double seconds) { return SimTime{sim::Duration{ns_of(seconds)}}; }
double ms_of(sim::Duration d) { return static_cast<double>(d.count()) / 1e6; }

net::MacAddress mac_of(std::uint32_t host) {
  return net::MacAddress::from_u64(0x0200'0000'0000ull | host);
}

fabric::FabricConfig base_config(std::uint64_t seed) {
  fabric::FabricConfig config;
  config.l2_gateway = false;
  config.seed = seed ^ 0x5DA5DA;
  return config;
}

/// Digest of the metrics registry: every counter, gauge and histogram total.
void digest_snapshot(Digest& d, const telemetry::Snapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    d.add(name);
    d.add(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    d.add(name);
    d.add(std::bit_cast<std::uint64_t>(value));
  }
  for (const auto& [name, h] : snap.histograms) {
    d.add(name);
    d.add(h.total);
    d.add(std::bit_cast<std::uint64_t>(h.sum));
  }
}

/// Replays a time-sorted input list, keeping one pending simulator event.
class Pump {
 public:
  using Apply = std::function<void(const Action&)>;
  Pump(Episode& ep, const std::vector<Action>& actions, SimTime base, Apply apply)
      : ep_(ep), actions_(actions), base_(base), apply_(std::move(apply)) {
    schedule();
  }

 private:
  void fire() {
    const std::int64_t now = (ep_.sim.now() - base_).count();
    while (next_ < actions_.size() && actions_[next_].at_ns <= now) apply_(actions_[next_++]);
    schedule();
  }
  void schedule() {
    if (next_ == actions_.size()) return;
    ep_.sim.schedule_at(base_ + sim::Duration{actions_[next_].at_ns}, [this] { fire(); });
  }

  Episode& ep_;
  const std::vector<Action>& actions_;
  SimTime base_;
  Apply apply_;
  std::size_t next_ = 0;
};

/// Tracks the benchmark's packets from send to delivery. A packet is named
/// by (source, destination, destination port); the port carries the flow
/// id, so every in-flight flow has its own key. An open-addressing table
/// with room for every in-flight key, so bookkeeping allocates nothing in
/// the timed phase and allocs_per_op counts the fabric's allocations.
class Ledger {
 public:
  Ledger() : slots_(1u << 16) {}

  static std::uint64_t key(net::Ipv4Address src, net::Ipv4Address dst, std::uint16_t port) {
    return (std::uint64_t{src.value() & 0xFFFFFF} << 40) |
           (std::uint64_t{dst.value() & 0xFFFFFF} << 16) | port;
  }
  /// Call before the send: a packet between hosts on one edge is delivered
  /// inside the send call. `first` marks the first packet of a flow whose
  /// first-packet latency is measured.
  void sent(std::uint64_t key, std::uint32_t flow, std::int64_t now_ns, bool first) {
    Slot& slot = slots_[find(key)];
    if (slot.key == 0) {
      slot = Slot{key, flow, 0, -1, 0};
      if (++size_ * 2 > slots_.size()) grow();
    }
    Slot& live = slots_[find(key)];
    live.flow = flow;
    live.last_send_ns = now_ns;
    ++live.remaining;
    if (first) live.first_send_ns = now_ns;
  }
  /// Undoes sent() for a packet the fabric refused.
  void unsent(std::uint64_t key) {
    const std::size_t i = find(key);
    if (slots_[i].key != 0 && --slots_[i].remaining == 0) erase(i);
  }
  /// Returns the first-packet latency in ns, or -1.
  std::int64_t delivered(std::uint64_t key, std::int64_t now_ns) {
    const std::size_t i = find(key);
    Slot& live = slots_[i];
    if (live.key == 0) {
      ++unexpected_;
      return -1;
    }
    ++delivered_;
    std::int64_t latency = -1;
    if (live.first_send_ns >= 0) {
      latency = now_ns - live.first_send_ns;
      live.first_send_ns = -1;
    }
    if (--live.remaining == 0) erase(i);
    return latency;
  }
  /// Keys with packets never delivered: f(flow, packets, last send time).
  template <class F>
  void for_each_undelivered(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != 0) f(s.flow, s.remaining, s.last_send_ns);
    }
  }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t unexpected() const { return unexpected_; }

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty
    std::uint32_t flow = 0;
    std::uint32_t remaining = 0;
    std::int64_t first_send_ns = -1;
    std::int64_t last_send_ns = 0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 20) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t find(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & (slots_.size() - 1);
    return i;
  }
  /// Linear-probing deletion by backward shift: no tombstones.
  void erase(std::size_t i) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j].key == 0) break;
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.key != 0) slots_[find(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t unexpected_ = 0;
};

std::uint16_t port_of(std::uint32_t flow) {
  return static_cast<std::uint16_t>(1024 + flow % 60000);
}

/// "<stem><i>". (Built by appending: GCC 12 warns falsely on
/// `"literal" + std::to_string(i)`.)
std::string tagged(const char* stem, std::uint32_t i) {
  std::string out{stem};
  out += std::to_string(i);
  return out;
}

std::vector<std::string> names(const char* stem, std::uint32_t n) {
  std::vector<std::string> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(tagged(stem, i));
  return out;
}

/// Provisions `count` endpoints "h<i>", timing the calls.
void provision(Episode& ep, std::uint32_t count,
               const std::function<net::GroupId(std::uint32_t)>& group) {
  const std::int64_t t0 = host_ns();
  for (std::uint32_t i = 0; i < count; ++i) {
    fabric::EndpointDefinition def;
    def.credential = tagged("h", i);
    def.secret = tagged("pw", i % 7);
    def.mac = mac_of(i);
    def.vn = kVn;
    def.group = group(i);
    ep.fabric->provision_endpoint(def);
  }
  ep.provision_ns += host_ns() - t0;
  ep.provisioned += count;
}

void finalize(Episode& ep) {
  const std::int64_t t0 = host_ns();
  ep.fabric->finalize();
  ep.finalize_ns = host_ns() - t0;
}


/// Common end-of-episode bookkeeping: the registry snapshot and simulator
/// position go into the digest after the per-op latencies.
void seal(Episode& ep, Digest& digest, Outcome& out) {
  digest_snapshot(digest, ep.fabric->metrics().snapshot());
  digest.add(ep.sim.executed_events());
  digest.add(static_cast<std::uint64_t>(ep.sim.now().nanoseconds()));
  out.digest = digest.value();
}

void check_border_fib(Episode& ep, Outcome& out) {
  const std::size_t mappings = ep.fabric->map_server().mapping_count();
  for (const auto& b : ep.fabric->border_names()) {
    const std::size_t fib = ep.fabric->border(b).fib_size();
    out.check(fib == mappings, "border " + b + " FIB " + std::to_string(fib) +
                                   " != map-server mappings " + std::to_string(mappings));
  }
}

// ---------------------------------------------------------------------------
// warehouse_roam: Fig. 10/11 reactive control plane. 200 edges, one border
// hosting the routing server, robots onboarded at 600/s (each sends one
// priming UDP packet upstream), then Poisson roams at 800/s between the two
// physical edges. The control-plane write path (auth, Map-Register,
// Map-Notify, publish, border apply) dominates; the data plane idles.
// Op: one move or one onboarding.
// ---------------------------------------------------------------------------
class WarehouseRoam final : public Workload {
  enum : std::uint16_t { kConnect, kMove };

 public:
  WarehouseRoam(std::uint64_t seed, bool smoke)
      : robots_(smoke ? 800 : 16000), edges_(smoke ? 20 : 200) {
    Prng rng{seed};
    for (std::uint32_t i = 0; i < robots_; ++i) {
      actions_.push_back({ns_of(i / 600.0), i, i % 2, kConnect, 0});
    }
    const double start = robots_ / 600.0 + 2.0;
    const double window = smoke ? 3.0 : 60.0;
    std::vector<double> last_move(robots_, -1e9);
    std::vector<std::uint32_t> edge(robots_);
    for (std::uint32_t i = 0; i < robots_; ++i) edge[i] = i % 2;
    for (double t = start + rng.exponential(1 / 800.0); t < start + window;
         t += rng.exponential(1 / 800.0)) {
      // A robot moves again only after its previous move had a second to
      // converge, so no move is refused by design.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::uint32_t r = rng.below(robots_);
        if (t - last_move[r] < 1.0) continue;
        last_move[r] = t;
        edge[r] ^= 1;
        actions_.push_back({ns_of(t), r, edge[r], kMove, 0});
        break;
      }
    }
    end_ = at_s(start + window + 2.0);
    credentials_ = names("h", robots_);
    edge_names_ = names("edge-", edges_);
  }

  void setup(Episode& ep) override {
    fabric::FabricConfig config = base_config(11);
    config.timings = {
        .detection = std::chrono::microseconds{500},
        .auth_processing = std::chrono::microseconds{500},
        .auth_round_trips = 2,
        .roam_auth_round_trips = 1,
        .rule_download_processing = std::chrono::microseconds{200},
        .dhcp_processing = std::chrono::milliseconds{1},
    };
    ep.fabric = std::make_unique<fabric::SdaFabric>(ep.sim, config);
    fabric::SdaFabric& f = *ep.fabric;
    f.add_border("border-0");
    for (const auto& e : edge_names_) {
      f.add_edge(e);
      f.link(e, "border-0", std::chrono::microseconds{50});
    }
    finalize(ep);
    f.define_vn({kVn, "robots", *net::Ipv4Prefix::parse("10.64.0.0/14")});
    f.add_external_prefix(kVn, *net::Ipv4Prefix::parse("0.0.0.0/0"));
    provision(ep, robots_, [](std::uint32_t) { return net::GroupId{30}; });

    ep_ = &ep;  // the fabric's callbacks capture only [this, index]
    robots_state_.assign(robots_, Robot{});
    robot_of_ip_.assign(1u << 18, kNoRobot);
    digest_ = Digest{};
    attempted_ = failed_ = primes_ = completed_ = 0;
    onboard_ms_.clear();
    handover_ms_.clear();
    f.set_border_sync_listener(
        [this, &ep](const std::string&, const net::VnEid& eid, const lisp::MappingRecord* rec) {
          if (!rec || !eid.eid.is_ipv4()) return;
          const std::uint32_t robot = robot_of_ip_[(eid.eid.ipv4().value() - kPoolBase) & 0x3FFFF];
          if (robot == kNoRobot) return;
          Robot& r = robots_state_[robot];
          if (!r.moving || r.border_ns >= 0) return;
          r.border_ns = ep.sim.now().nanoseconds();
          maybe_finish(r);
        });
  }

  void run(Episode& ep) override {
    Pump pump{ep, actions_, SimTime{}, [this, &ep](const Action& a) { apply(ep, a); }};
    ep.run_until(end_);
  }

  void finish(Episode& ep, Outcome& out) override {
    std::uint64_t unfinished = 0;
    for (const Robot& r : robots_state_) unfinished += r.moving ? 1 : 0;
    out.attempted = attempted_;
    out.failed = failed_ + unfinished;
    out.check(handover_ms_.size() == completed_, "handover samples != moves completed");
    check_border_fib(ep, out);
    const auto snap = ep.fabric->metrics().snapshot();
    const std::uint64_t external = sum_counters(snap, "border[", ".external_out");
    out.check(external == primes_, "priming packets sent " + std::to_string(primes_) +
                                       " != border external_out " + std::to_string(external));
    out.onboard_ms = onboard_ms_;
    out.handover_ms = handover_ms_;
    out.sent = primes_;
    out.delivered = external;
    seal(ep, digest_, out);
  }

  ProbeSamples samples(Episode& ep) override {
    ProbeSamples s;
    fabric::SdaFabric& f = *ep.fabric;
    const net::Ipv4Address border = f.border("border-0").rloc();
    const auto border_node = f.underlay().topology().node_by_loopback(border);
    for (std::uint32_t e = 0; e < 2; ++e) {
      dataplane::EdgeRouter& edge = f.edge(edge_names_[e]);
      s.rloc_pairs.emplace_back(edge.config().node, border);
      if (border_node) s.rloc_pairs.emplace_back(*border_node, edge.rloc());
    }
    s.group_pairs.emplace_back(net::GroupId{30}, net::GroupId{30});
    for (std::uint32_t i = 0; i < robots_ && s.eids.size() < 4096; i += 3) {
      if (!robots_state_[i].ip.is_unspecified()) {
        s.eids.push_back({kVn, net::Eid{robots_state_[i].ip}});
        s.credentials.push_back(credentials_[i]);
        s.secrets.push_back(tagged("pw", i % 7));
      }
    }
    s.warm_edge = edge_names_[0];
    return s;
  }

 private:
  struct Robot {
    net::Ipv4Address ip;
    bool moving = false;
    std::int64_t detach_ns = 0, attach_ns = -1, border_ns = -1;
  };

  void apply(Episode& ep, const Action& a) {
    fabric::SdaFabric& f = *ep.fabric;
    const std::uint32_t i = a.a;
    ++attempted_;
    if (a.kind == kConnect) {
      ep.call(SpanKind::Connect, i, [&] {
        f.connect_endpoint(credentials_[i], edge_names_[a.b], 1,
                           [this, i](const fabric::OnboardResult& r) { onboarded(*ep_, i, r); });
      });
      return;
    }
    Robot& r = robots_state_[i];
    if (r.ip.is_unspecified() || r.moving) {
      ++failed_;
      return;
    }
    r.moving = true;
    r.detach_ns = ep.sim.now().nanoseconds();
    r.attach_ns = r.border_ns = -1;
    ep.call(SpanKind::Roam, i, [&] {
      f.roam_endpoint(mac_of(i), edge_names_[a.b], 1, [this, i](const fabric::OnboardResult& res) {
        Robot& robot = robots_state_[i];
        if (!res.success) {
          ++failed_;
          robot.moving = false;
          return;
        }
        robot.attach_ns = ep_->sim.now().nanoseconds();
        maybe_finish(robot);
      });
    });
  }

  void onboarded(Episode& ep, std::uint32_t i, const fabric::OnboardResult& r) {
    if (!r.success) {
      ++failed_;
      return;
    }
    robots_state_[i].ip = r.ip;
    robot_of_ip_[(r.ip.value() - kPoolBase) & 0x3FFFF] = i;
    onboard_ms_.push_back(ms_of(r.elapsed));
    digest_.add(static_cast<std::uint64_t>(r.elapsed.count()));
    // The upstream priming flow of Fig. 10, towards an external sink.
    bool ok = false;
    ep.call(SpanKind::Send, i, [&] {
      ok = ep.fabric->endpoint_send_udp(mac_of(i), net::Ipv4Address{0xCB007100u}, 9000, 1458);
    });
    primes_ += ok ? 1 : 0;
  }

  void maybe_finish(Robot& r) {
    if (r.attach_ns < 0 || r.border_ns < 0) return;
    const std::int64_t handover = std::max(r.attach_ns, r.border_ns) - r.detach_ns;
    handover_ms_.push_back(static_cast<double>(handover) / 1e6);
    digest_.add(static_cast<std::uint64_t>(handover));
    ++completed_;
    r.moving = false;
  }

  std::uint32_t robots_, edges_;
  std::vector<Action> actions_;
  SimTime end_;
  std::vector<std::string> credentials_, edge_names_;

  Episode* ep_ = nullptr;
  std::vector<Robot> robots_state_;
  static constexpr std::uint32_t kPoolBase = 0x0A400000;  // 10.64.0.0/14
  static constexpr std::uint32_t kNoRobot = ~0u;
  std::vector<std::uint32_t> robot_of_ip_;  // by address offset in the pool
  Digest digest_;
  std::uint64_t attempted_ = 0, failed_ = 0, primes_ = 0, completed_ = 0;
  std::vector<double> onboard_ms_, handover_ms_;
};

// ---------------------------------------------------------------------------
// campus_day: the Fig. 8/9 tiered campus with building B's profile, scaled
// to four buildings' population on one fabric: diurnal arrivals and
// departures, always-on devices, Zipf contact sets, TTL expiry (hourly
// sweeps), small edge map-caches and night-time flows towards departed
// hosts. About 30% of flows miss the map-cache and send a Map-Request
// answered by a Patricia lookup, a third of them negative. Op: one flow of
// three packets.
// ---------------------------------------------------------------------------
class CampusDay final : public Workload {
  enum : std::uint16_t { kConnect, kDisconnect, kSend, kSweep };
  enum : std::uint8_t { kExternal, kPresent, kAbsent };

 public:
  CampusDay(std::uint64_t seed, bool smoke)
      : edges_(smoke ? 4 : 24), users_(smoke ? 34 : 680), permanent_(smoke ? 45 : 900) {
    const std::uint32_t hosts = users_ + permanent_;
    const double days = smoke ? 2 : 4;
    const double end_s = days * 86400.0;
    Prng rng{seed};

    // Fixed contact sets (building B: narrow, Zipf-concentrated): one
    // always-on device (server, printer) and one user per host. Who talks
    // to whom is part of the campus, like its topology, so it comes from a
    // fixed stream. Users' popularity is flatter than devices': if a few
    // users drew most contacts, their attendance alone would decide how
    // many flows resolve negatively, and the work per flow would change
    // from seed to seed.
    Prng social{0xB};
    const Zipf device_rank{permanent_, 1.6};
    const Zipf user_rank{users_, 0.6};
    const Zipf external{kExternalDestinations, 1.5};
    std::vector<std::array<std::uint32_t, 2>> peers(hosts);
    std::vector<std::array<std::uint32_t, 3>> services(hosts);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      do peers[h][0] = users_ + static_cast<std::uint32_t>(device_rank.sample(social));
      while (peers[h][0] == h);
      do peers[h][1] = static_cast<std::uint32_t>(user_rank.sample(social));
      while (peers[h][1] == h);
      for (auto& s : services[h]) s = static_cast<std::uint32_t>(external.sample(social));
    }

    // Presence: always-on devices onboard during set-up (the warm-up, 200
    // per second); users come on 85% of weekdays (5% of weekend days),
    // arriving ~9:00 and leaving ~19:00.
    presence_.resize(hosts);
    for (std::uint32_t h = users_; h < hosts; ++h) {
      presence_[h].push_back({0.005 * (h - users_), end_s + 1});
    }
    for (std::uint32_t day = 0; day < days; ++day) {
      const bool weekday = day % 7 < 5;
      for (std::uint32_t h = 0; h < users_; ++h) {
        if (!rng.chance(weekday ? 0.85 : 0.05)) continue;
        const double arrive = std::clamp(rng.normal(9.0, 0.75), 6.5, 12.0);
        const double depart = std::clamp(rng.normal(19.0, 1.0), arrive + 1.0, 23.5);
        presence_[h].push_back({day * 86400.0 + arrive * 3600.0, day * 86400.0 + depart * 3600.0});
      }
    }
    for (std::uint32_t h = 0; h < hosts; ++h) {
      for (const auto& [arrive, depart] : presence_[h]) {
        actions_.push_back({ns_of(arrive), h, 0, kConnect, 0});
        if (depart < end_s) actions_.push_back({ns_of(depart), h, 0, kDisconnect, 0});
      }
    }

    // Flows: Poisson per present host (users 7/h, devices 3.5/h), half of
    // them to external services. A flow towards a peer is kept only when
    // the schedule says clearly whether the peer is attached (two seconds
    // of margin around its arrival and departure), so every flow has one
    // correct outcome. A seeded sample of exactly `flows` of them is kept,
    // so every seed does the same amount of work.
    warmup_ = 0.005 * permanent_ + 1.0;
    std::vector<std::pair<double, Flow>> candidates;
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const double mean_gap = 3600.0 / (h < users_ ? 7.0 : 3.5);
      for (const auto& [arrive, depart] : presence_[h]) {
        for (double t = std::max(arrive + 2.0, warmup_) + rng.exponential(mean_gap);
             t < std::min(depart, end_s) - 2.0; t += rng.exponential(mean_gap)) {
          Flow flow{h, 0, kExternal};
          if (rng.chance(0.5)) {
            flow.peer = services[h][rng.below(3)];
          } else {
            flow.peer = peers[h][rng.below(2)];
            const int state = presence_at(flow.peer, t);
            if (state < 0) continue;
            flow.kind = state == 1 ? kPresent : kAbsent;
          }
          candidates.emplace_back(t, flow);
        }
      }
    }
    const std::size_t flows = std::min<std::size_t>(candidates.size(), smoke ? 8000 : 400000);
    for (std::size_t i = 0; i < flows; ++i) {
      std::swap(candidates[i], candidates[i + rng.below(candidates.size() - i)]);
    }
    candidates.resize(flows);
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [t, flow] : candidates) {
      actions_.push_back({ns_of(t), static_cast<std::uint32_t>(flows_.size()), 0, kSend, 0});
      flows_.push_back(flow);
    }
    for (double t = 3600; t < end_s; t += 3600) actions_.push_back({ns_of(t), 0, 0, kSweep, 0});
    std::stable_sort(actions_.begin(), actions_.end(),
                     [](const Action& x, const Action& y) { return x.at_ns < y.at_ns; });
    end_ = at_s(end_s);
    credentials_ = names("h", hosts);
    edge_names_ = names("edge-", edges_);
  }

  void setup(Episode& ep) override {
    fabric::FabricConfig config = base_config(edges_);
    // Small edge FIBs: the contact sets of an edge's hosts outgrow the
    // cache, so LRU evictions add to TTL expiry as a source of misses.
    config.edge_map_cache_capacity = kEdgeCacheCapacity;
    ep.fabric = std::make_unique<fabric::SdaFabric>(ep.sim, config);
    fabric::SdaFabric& f = *ep.fabric;
    fabric::TieredCampusSpec topo;
    topo.borders = 2;
    topo.distribution = 2;
    topo.edges = edges_;
    (void)fabric::build_tiered_campus(f, topo);
    finalize(ep);
    f.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    // Only the services' prefix is external: a departed host's address
    // resolves negatively, the night-time cleanup of §4.2.
    f.add_external_prefix(kVn, *net::Ipv4Prefix::parse("198.51.100.0/24"), net::GroupId::unknown(),
                          3 * 3600);
    provision(ep, users_ + permanent_,
              [this](std::uint32_t i) { return i < users_ ? kUserGroup : kDeviceGroup; });

    ips_.assign(users_ + permanent_, net::Ipv4Address{});
    flow_bad_.assign(flows_.size(), 0);
    ledger_ = Ledger{};
    digest_ = Digest{};
    onboard_ms_.clear();
    first_packet_us_.clear();
    onboard_failures_ = external_sent_ = sent_ = 0;
    f.set_delivery_listener([this](const dataplane::AttachedEndpoint&,
                                   const net::OverlayFrame& frame, SimTime at) {
      if (!frame.is_ipv4()) return;
      const auto& ip = frame.ip();
      const std::int64_t latency = ledger_.delivered(
          Ledger::key(ip.source, ip.destination, ip.destination_port), at.nanoseconds());
      if (latency >= 0) {
        first_packet_us_.push_back(static_cast<double>(latency) / 1e3);
        digest_.add(static_cast<std::uint64_t>(latency));
      }
    });
    pump_ = std::make_unique<Pump>(ep, actions_, SimTime{},
                                   [this, &ep](const Action& a) { apply(ep, a); });
    ep.run_until(at_s(warmup_));
  }

  void run(Episode& ep) override { ep.run_until(end_); }

  void finish(Episode& ep, Outcome& out) override {
    ledger_.for_each_undelivered(
        [this](std::uint32_t flow, std::uint32_t, std::int64_t) { flow_bad_[flow] = 1; });
    std::uint64_t failed = 0;
    for (const std::uint8_t bad : flow_bad_) failed += bad;
    out.attempted = flows_.size();
    out.failed = failed;
    out.check(onboard_failures_ == 0, std::to_string(onboard_failures_) + " onboardings failed");
    out.check(ledger_.unexpected() == 0,
              std::to_string(ledger_.unexpected()) + " packets reached a host not sent to");
    check_border_fib(ep, out);
    const auto snap = ep.fabric->metrics().snapshot();
    const std::uint64_t external = sum_counters(snap, "border[", ".external_out");
    out.check(external == external_sent_, "external packets " + std::to_string(external_sent_) +
                                              " != external_out " + std::to_string(external));
    out.onboard_ms = onboard_ms_;
    out.first_packet_us = first_packet_us_;
    out.sent = sent_;
    out.delivered = ledger_.delivered_count() + external;
    seal(ep, digest_, out);
    pump_.reset();
  }

  ProbeSamples samples(Episode& ep) override {
    ProbeSamples s;
    fabric::SdaFabric& f = *ep.fabric;
    for (std::uint32_t e = 0; e < edges_; ++e) {
      dataplane::EdgeRouter& src = f.edge(edge_names_[e]);
      dataplane::EdgeRouter& dst = f.edge(edge_names_[(e + 1) % edges_]);
      s.rloc_pairs.emplace_back(src.config().node, dst.rloc());
      s.rloc_pairs.emplace_back(src.config().node, src.active_border_rloc());
    }
    for (std::uint32_t a = 0; a < 2; ++a) {
      for (std::uint32_t b = 0; b < 2; ++b) {
        s.group_pairs.emplace_back(a ? kDeviceGroup : kUserGroup, b ? kDeviceGroup : kUserGroup);
      }
    }
    for (std::size_t i = 0; i < flows_.size() && s.eids.size() < 4096; i += 7) {
      const Flow& flow = flows_[i];
      const bool external = flow.kind == kExternal;
      s.eids.push_back({kVn, net::Eid{external ? external_ip(flow.peer) : ips_[flow.peer]}});
    }
    for (std::uint32_t h = 0; h < users_ + permanent_ && s.credentials.size() < 1024; ++h) {
      s.credentials.push_back(credentials_[h]);
      s.secrets.push_back(tagged("pw", h % 7));
    }
    s.warm_edge = edge_names_[0];
    return s;
  }

 private:
  static constexpr std::uint32_t kExternalDestinations = 40;
  static constexpr std::uint16_t kPacketsPerFlow = 3;
  static constexpr net::GroupId kUserGroup{10};
  static constexpr net::GroupId kDeviceGroup{20};
  static constexpr std::size_t kEdgeCacheCapacity = 32;

  struct Flow {
    std::uint32_t src = 0;
    std::uint32_t peer = 0;  // host index, or external service id
    std::uint8_t kind = kExternal;
  };

  static net::Ipv4Address external_ip(std::uint32_t service) {
    return net::Ipv4Address{0xC6336400u + service};  // 198.51.100.x
  }

  /// 1 = attached with margin, 0 = away with margin and onboarded before
  /// (so its address is known), -1 = too close to call.
  int presence_at(std::uint32_t host, double t) const {
    bool seen_before = false;
    for (const auto& [arrive, depart] : presence_[host]) {
      if (arrive + 4.0 <= t && t + 2.0 <= depart) return 1;
      if (arrive - 2.0 < t + 2.0 && t - 2.0 < depart) return -1;
      if (arrive + 4.0 <= t - 2.0) seen_before = true;
    }
    return seen_before ? 0 : -1;
  }

  void apply(Episode& ep, const Action& a) {
    fabric::SdaFabric& f = *ep.fabric;
    switch (a.kind) {
      case kConnect: {
        const std::uint32_t h = a.a;
        ep.call(SpanKind::Connect, h, [&] {
          f.connect_endpoint(credentials_[h], edge_names_[h % edges_], 1,
                             [this, h](const fabric::OnboardResult& r) {
                               if (!r.success) {
                                 ++onboard_failures_;
                                 return;
                               }
                               ips_[h] = r.ip;
                               onboard_ms_.push_back(ms_of(r.elapsed));
                               digest_.add(static_cast<std::uint64_t>(r.elapsed.count()));
                             });
        });
        return;
      }
      case kDisconnect:
        ep.call(SpanKind::Disconnect, a.a, [&] { f.disconnect_endpoint(mac_of(a.a)); });
        return;
      case kSweep:
        ep.call(SpanKind::Other, 0, [&] {
          for (const auto& e : edge_names_) f.edge(e).map_cache().sweep(ep.sim.now());
        });
        return;
      default:
        send(ep, a.a, 0);
        return;
    }
  }

  /// Sends packet `seq` of a flow; the first schedules the rest of the
  /// flow at fixed 20 ms spacing.
  void send(Episode& ep, std::uint32_t id, std::uint16_t seq) {
    if (seq + 1 < kPacketsPerFlow) {
      ep.sim.schedule_after(std::chrono::milliseconds{20},
                            [this, &ep, id, next = static_cast<std::uint16_t>(seq + 1)] {
                              send(ep, id, next);
                            });
    }
    const Flow& flow = flows_[id];
    const net::Ipv4Address dst = flow.kind == kExternal ? external_ip(flow.peer) : ips_[flow.peer];
    if (dst.is_unspecified()) {
      flow_bad_[id] = 1;
      return;
    }
    const std::uint64_t key = Ledger::key(ips_[flow.src], dst, port_of(id));
    if (flow.kind == kPresent) ledger_.sent(key, id, ep.sim.now().nanoseconds(), seq == 0);
    bool ok = false;
    ep.call(SpanKind::Send, id, [&] {
      ok = ep.fabric->endpoint_send_udp(mac_of(flow.src), dst, port_of(id), 400);
    });
    if (!ok) {
      if (flow.kind == kPresent) ledger_.unsent(key);
      flow_bad_[id] = 1;
      return;
    }
    ++sent_;
    external_sent_ += flow.kind == kExternal ? 1 : 0;
  }

  std::uint32_t edges_ = 0, users_ = 0, permanent_ = 0;
  double warmup_ = 0;  // set-up onboards the always-on devices until then
  std::vector<std::vector<std::pair<double, double>>> presence_;
  std::vector<Flow> flows_;
  std::vector<Action> actions_;
  SimTime end_;
  std::vector<std::string> credentials_, edge_names_;

  std::unique_ptr<Pump> pump_;
  std::vector<net::Ipv4Address> ips_;
  std::vector<std::uint8_t> flow_bad_;
  Ledger ledger_;
  Digest digest_;
  std::vector<double> onboard_ms_, first_packet_us_;
  std::uint64_t onboard_failures_ = 0, external_sent_ = 0, sent_ = 0;
};

// ---------------------------------------------------------------------------
// Shared by fabric_stream and failover_storm: a tiered campus whose hosts
// are all onboarded during set-up, and long-lived flows of small UDP
// packets between hosts on different edges.
// ---------------------------------------------------------------------------
class WarmCampus : public Workload {
 protected:
  enum : std::uint16_t { kSend, kConnect, kRoam, kFault };

  struct Flow {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;   // host index, or external service id
    bool external = false;
    bool denied = false;     // the group pair is denied by the SGACL
    bool measured = false;   // first-packet latency is measured
  };

  WarmCampus(std::uint32_t borders, std::uint32_t edges, std::uint32_t hosts_per_edge)
      : borders_(borders), edges_(edges), warm_hosts_(edges * hosts_per_edge) {}

  [[nodiscard]] std::uint32_t edge_of(std::uint32_t host) const { return host % edges_; }
  [[nodiscard]] static net::GroupId group_of(std::uint32_t host) {
    return net::GroupId{static_cast<std::uint16_t>(10 + 10 * (host / 7 % 4))};
  }
  [[nodiscard]] static bool denied(std::uint32_t src, std::uint32_t dst) {
    return group_of(src).value() == 30 && group_of(dst).value() == 40;
  }
  static net::Ipv4Address external_ip(std::uint32_t service) {
    return net::Ipv4Address{0xC6336400u + service};
  }

  /// A peer on another edge.
  std::uint32_t remote_peer(Prng& rng, std::uint32_t src) const {
    std::uint32_t dst = rng.below(warm_hosts_);
    while (edge_of(dst) == edge_of(src)) dst = rng.below(warm_hosts_);
    return dst;
  }

  void sort_actions() {
    std::stable_sort(actions_.begin(), actions_.end(),
                     [](const Action& x, const Action& y) { return x.at_ns < y.at_ns; });
    credentials_ = names("h", total_hosts_);
    edge_names_ = names("edge-", edges_);
  }

  /// Topology, provisioning, and the warm-up: every warm host onboards,
  /// then every long-lived flow sends one packet so the map-caches are warm.
  void build(Episode& ep, fabric::FabricConfig config) {
    ep.fabric = std::make_unique<fabric::SdaFabric>(ep.sim, config);
    fabric::SdaFabric& f = *ep.fabric;
    fabric::TieredCampusSpec topo;
    topo.borders = borders_;
    topo.distribution = 2;
    topo.edges = edges_;
    (void)fabric::build_tiered_campus(f, topo);
    finalize(ep);
    f.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16")});
    f.add_external_prefix(kVn, *net::Ipv4Prefix::parse("0.0.0.0/0"));
    for (std::uint16_t g = 10; g <= 40; g += 10) f.define_group({net::GroupId{g}, tagged("g", g)});
    f.set_rule({kVn, net::GroupId{30}, net::GroupId{40}, policy::Action::Deny});
    provision(ep, total_hosts_, group_of);

    ips_.assign(total_hosts_, net::Ipv4Address{});
    ledger_ = Ledger{};
    digest_ = Digest{};
    onboard_ms_.clear();
    first_packet_us_.clear();
    onboard_failures_ = attempted_ = send_failures_ = sent_ = external_sent_ = denied_sent_ = 0;
    f.set_delivery_listener([this](const dataplane::AttachedEndpoint&,
                                   const net::OverlayFrame& frame, SimTime at) {
      if (!frame.is_ipv4()) return;
      const auto& ip = frame.ip();
      const std::int64_t latency = ledger_.delivered(
          Ledger::key(ip.source, ip.destination, ip.destination_port), at.nanoseconds());
      if (latency >= 0) {
        first_packet_us_.push_back(static_cast<double>(latency) / 1e3);
        digest_.add(static_cast<std::uint64_t>(latency));
      }
    });

    for (std::uint32_t h = 0; h < setup_hosts_; ++h) {
      ep.sim.schedule_at(at_s(0.0005 * h), [this, &ep, h] { connect(ep, h); });
    }
    ep.run_until(at_s(0.0005 * setup_hosts_ + 1.0));
    const SimTime warm = ep.sim.now();
    for (std::uint32_t i = 0; i < long_flows_; ++i) {
      ep.sim.schedule_at(warm + sim::Duration{ns_of(1.0 * i / long_flows_)},
                         [this, &ep, i] { send(ep, i, false); });
    }
    ep.run_until(warm + sim::Duration{ns_of(2.0)});
    ledger_ = Ledger{};
    attempted_ = send_failures_ = sent_ = external_sent_ = denied_sent_ = 0;
    base_ = ep.sim.now();
    baseline_ = ep.fabric->metrics().snapshot();
  }

  void connect(Episode& ep, std::uint32_t h) {
    ep.call(SpanKind::Connect, h, [&] {
      ep.fabric->connect_endpoint(credentials_[h], edge_names_[edge_of(h)], 1,
                                  [this, h](const fabric::OnboardResult& r) {
                                    if (!r.success) {
                                      ++onboard_failures_;
                                      return;
                                    }
                                    ips_[h] = r.ip;
                                    onboard_ms_.push_back(ms_of(r.elapsed));
                                    digest_.add(static_cast<std::uint64_t>(r.elapsed.count()));
                                  });
    });
  }

  /// Sends one packet of flow `id`. `first` marks a measured first packet.
  /// The destination port names the packet's key (default: one per flow).
  void send(Episode& ep, std::uint32_t id, bool first, std::uint16_t port = 0) {
    if (port == 0) port = port_of(id);
    const Flow& flow = flows_[id];
    ++attempted_;
    const net::Ipv4Address dst = flow.external ? external_ip(flow.dst) : ips_[flow.dst];
    if (dst.is_unspecified()) {
      ++send_failures_;
      return;
    }
    const std::uint64_t key = Ledger::key(ips_[flow.src], dst, port);
    const bool tracked = !flow.external && !flow.denied;
    if (tracked) ledger_.sent(key, id, ep.sim.now().nanoseconds(), first);
    bool ok = false;
    ep.call(SpanKind::Send, id, [&] {
      ok = ep.fabric->endpoint_send_udp(mac_of(flow.src), dst, port, kPayload);
    });
    if (!ok) {
      if (tracked) ledger_.unsent(key);
      ++send_failures_;
      return;
    }
    ++sent_;
    external_sent_ += flow.external ? 1 : 0;
    denied_sent_ += flow.denied ? 1 : 0;
  }

  /// Packet accounting: sent = delivered + policy-denied + failed.
  void account(Episode& ep, Outcome& out) {
    const auto delta = ep.fabric->metrics().snapshot().delta(baseline_);
    const std::uint64_t external = sum_counters(delta, "border[", ".external_out");
    const std::uint64_t denied = sum_counters(delta, "edge[", "].policy_drops") +
                                 sum_counters(delta, "border[", "].policy_drops");
    std::uint64_t undelivered = 0;
    ledger_.for_each_undelivered(
        [&](std::uint32_t, std::uint32_t n, std::int64_t) { undelivered += n; });
    out.attempted = attempted_;
    out.sent = sent_;
    out.delivered = ledger_.delivered_count() + external;
    out.denied = denied;
    out.failed = send_failures_ + undelivered;
    out.check(onboard_failures_ == 0, std::to_string(onboard_failures_) + " onboardings failed");
    out.check(ledger_.unexpected() == 0,
              std::to_string(ledger_.unexpected()) + " packets reached a host not sent to");
    out.check(external == external_sent_, "external packets " + std::to_string(external_sent_) +
                                              " != external_out " + std::to_string(external));
    out.check(denied == denied_sent_, "denied-pair packets " + std::to_string(denied_sent_) +
                                          " != policy drops " + std::to_string(denied));
    out.check(sent_ == out.delivered + out.denied + undelivered,
              "sent != delivered + policy-denied + failed");
    out.onboard_ms = onboard_ms_;
    out.first_packet_us = first_packet_us_;
  }

  ProbeSamples warm_samples(Episode& ep) {
    ProbeSamples s;
    fabric::SdaFabric& f = *ep.fabric;
    for (std::uint32_t i = 0; i < long_flows_ && s.rloc_pairs.size() < 1024; ++i) {
      const Flow& flow = flows_[i];
      dataplane::EdgeRouter& src = f.edge(edge_names_[edge_of(flow.src)]);
      const net::Ipv4Address to =
          flow.external ? src.active_border_rloc() : f.edge(edge_names_[edge_of(flow.dst)]).rloc();
      s.rloc_pairs.emplace_back(src.config().node, to);
      s.group_pairs.emplace_back(group_of(flow.src),
                                 flow.external ? net::GroupId::unknown() : group_of(flow.dst));
      if (edge_of(flow.src) == 0) {
        s.eids.push_back({kVn, net::Eid{flow.external ? external_ip(flow.dst) : ips_[flow.dst]}});
      }
    }
    for (std::uint32_t h = 0; h < warm_hosts_ && s.credentials.size() < 1024; ++h) {
      s.credentials.push_back(credentials_[h]);
      s.secrets.push_back(tagged("pw", h % 7));
    }
    s.warm_edge = edge_names_[0];
    return s;
  }

  static constexpr std::uint16_t kPayload = 18;  // smallest Ethernet payload

  std::uint32_t borders_, edges_, warm_hosts_;
  std::uint32_t total_hosts_ = 0;   // warm hosts plus any extras
  std::uint32_t setup_hosts_ = 0;   // hosts onboarded during set-up
  std::uint32_t long_flows_ = 0;    // flows [0, long_flows_) are warmed
  std::vector<Flow> flows_;
  std::vector<Action> actions_;     // timed phase, relative to base_
  std::vector<std::string> credentials_, edge_names_;

  std::vector<net::Ipv4Address> ips_;
  Ledger ledger_;
  Digest digest_;
  SimTime base_;
  telemetry::Snapshot baseline_;
  std::vector<double> onboard_ms_, first_packet_us_;
  std::uint64_t onboard_failures_ = 0, attempted_ = 0, send_failures_ = 0, sent_ = 0,
                external_sent_ = 0, denied_sent_ = 0;
};

// ---------------------------------------------------------------------------
// fabric_stream: the per-packet path. A warm tiered campus (40 edges x 100
// hosts) carries one long-lived flow of smallest-payload UDP per host, 10%
// of them towards external services through the border, one group pair
// SGACL-denied; a few flows start towards new destinations. The control
// plane idles. Op: one packet.
// ---------------------------------------------------------------------------
class FabricStream final : public WarmCampus {
 public:
  FabricStream(std::uint64_t seed, bool smoke) : WarmCampus(2, smoke ? 8 : 40, smoke ? 20 : 100) {
    total_hosts_ = setup_hosts_ = warm_hosts_;
    long_flows_ = warm_hosts_;
    const double window = smoke ? 2.0 : 10.0;
    const double interval = 0.08;
    Prng rng{seed};
    for (std::uint32_t h = 0; h < warm_hosts_; ++h) {
      Flow flow{h, 0, rng.chance(0.1), false, false};
      flow.dst = flow.external ? rng.below(40) : remote_peer(rng, h);
      flow.denied = !flow.external && denied(flow.src, flow.dst);
      flows_.push_back(flow);
      const double phase = rng.uniform(0, interval);
      for (double t = phase; t < window; t += interval) {
        actions_.push_back({ns_of(t), h, 0, kSend, 0});
      }
    }
    // Flows to destinations the source's edge has not resolved yet: a
    // map-cache miss, a Map-Request, and a measured first packet.
    const std::uint32_t fresh = smoke ? 200 : 2000;
    for (std::uint32_t n = 0; n < fresh; ++n) {
      const std::uint32_t src = rng.below(warm_hosts_);
      std::uint32_t dst = remote_peer(rng, src);
      while (denied(src, dst)) dst = remote_peer(rng, src);
      const auto id = static_cast<std::uint32_t>(flows_.size());
      flows_.push_back({src, dst, false, false, true});
      const double t = rng.uniform(0, window - 0.1);
      for (std::uint16_t p = 0; p < 3; ++p) {
        actions_.push_back({ns_of(t + 0.01 * p), id, 0, kSend, p});
      }
    }
    end_ = window + 1.0;
    sort_actions();
  }

  void setup(Episode& ep) override { build(ep, base_config(edges_)); }

  void run(Episode& ep) override {
    Pump pump{ep, actions_, base_, [this, &ep](const Action& a) {
                const bool first = flows_[a.a].measured && a.aux == 0;
                send(ep, a.a, first);
              }};
    ep.run_until(base_ + sim::Duration{ns_of(end_)});
  }

  void finish(Episode& ep, Outcome& out) override {
    account(ep, out);
    check_border_fib(ep, out);
    seal(ep, digest_, out);
  }

  ProbeSamples samples(Episode& ep) override { return warm_samples(ep); }

 private:
  double end_ = 0;
};

// ---------------------------------------------------------------------------
// failover_storm: three routing servers with quorum election, failover,
// anti-entropy, a catch-up log and flap dampening, under a seeded fault
// schedule: the leader crashes, a border is partitioned off, uplinks flap
// and the control plane loses packets, while hosts onboard and roam inside
// the outage. Cross-edge traffic runs throughout. The only workload where
// fabric/ha, faults, retransmit backoff, snapshot resync and catch-up
// replay do work. Op: one packet sent.
// ---------------------------------------------------------------------------
class FailoverStorm final : public WarmCampus {
  enum : std::uint16_t { kCrash, kPartition, kFlap, kLossOn, kLossOff };

 public:
  FailoverStorm(std::uint64_t seed, bool smoke) : WarmCampus(3, 8, smoke ? 10 : 50) {
    late_ = smoke ? 8 : 40;
    roamers_ = smoke ? 16 : 80;
    // Hosts [warm, warm + roamers) are silent roamers onboarded in set-up;
    // the last `late_` onboard inside the outage.
    setup_hosts_ = warm_hosts_ + roamers_;
    total_hosts_ = setup_hosts_ + late_;
    long_flows_ = warm_hosts_;
    const double interval = smoke ? 0.05 : 0.025;
    Prng rng{seed};

    const double crash_at = rng.uniform(1.5, 2.5);
    crash_for_ = rng.uniform(2.0, 3.0);
    const double partition_at = crash_at + crash_for_ + rng.uniform(1.0, 2.0);
    partition_for_ = rng.uniform(2.0, 3.0);
    const double loss_on = rng.uniform(1.0, 2.0);
    const double loss_off = partition_at + partition_for_ - rng.uniform(0.0, 0.5);
    fault_end_ = std::max(partition_at + partition_for_, loss_off);
    actions_.push_back({ns_of(crash_at), 0, 0, kFault, kCrash});
    actions_.push_back({ns_of(partition_at), 2, 0, kFault, kPartition});
    actions_.push_back({ns_of(loss_on), 0, 0, kFault, kLossOn});
    actions_.push_back({ns_of(loss_off), 0, 0, kFault, kLossOff});
    // Four distinct edges lose one uplink for 400 ms each; their second
    // uplink keeps them attached.
    std::vector<std::uint32_t> flapped;
    while (flapped.size() < 4) {
      const std::uint32_t e = rng.below(edges_);
      if (std::find(flapped.begin(), flapped.end(), e) != flapped.end()) continue;
      flapped.push_back(e);
      actions_.push_back({ns_of(rng.uniform(crash_at, fault_end_ - 0.5)), e, 0, kFault, kFlap});
    }
    // Late onboardings inside the crash. Each roamer roams once, the first
    // half inside the crash and the second inside the partition. A host
    // never roams twice: under these faults a roam can take seconds to
    // converge, and a second roam would hide whether the first did.
    for (std::uint32_t i = 0; i < late_; ++i) {
      actions_.push_back({ns_of(crash_at + rng.uniform(0.2, crash_for_ - 0.2)),
                          setup_hosts_ + i, 0, kConnect, 0});
    }
    for (std::uint32_t i = 0; i < roamers_; ++i) {
      const std::uint32_t host = warm_hosts_ + i;
      const std::uint32_t away = (edge_of(host) + 1 + rng.below(edges_ - 1)) % edges_;
      const double at = i < roamers_ / 2
                            ? crash_at + rng.uniform(0.2, crash_for_ - 0.2)
                            : partition_at + rng.uniform(0.2, partition_for_ - 0.2);
      actions_.push_back({ns_of(at), host, away, kRoam, 0});
    }
    // Traffic runs for a fixed 17 s, at least six seconds past the last
    // fault (which heals by 10.5 s), so every seed sends as many packets.
    end_ = 17.0;
    for (std::uint32_t h = 0; h < warm_hosts_; ++h) {
      const std::uint32_t dst = remote_peer(rng, h);
      flows_.push_back({h, dst, false, denied(h, dst), false});
      const double phase = rng.uniform(0, interval);
      for (double t = phase; t < end_ - 1.0; t += interval) {
        actions_.push_back({ns_of(t), h, 0, kSend, 0});
      }
    }
    sort_actions();
  }

  void setup(Episode& ep) override {
    using std::chrono::milliseconds;
    fabric::FabricConfig config = base_config(edges_ * 7);
    config.routing_servers = 3;
    config.map_request_retries = 8;
    config.map_register_retries = 10;
    config.ha.failover = true;
    config.ha.heartbeat_interval = milliseconds{100};
    config.ha.heartbeat_timeout = milliseconds{30};
    config.ha.anti_entropy_interval = milliseconds{500};
    config.ha.election = true;
    config.ha.election_quorum = true;
    config.ha.catchup_log_capacity = 256;
    config.ha.dampening = true;
    config.ha.dampening_half_life = std::chrono::seconds{1};
    ep_ = &ep;  // the fabric's callbacks capture only [this, index]
    build(ep, config);
    ep.plane = std::make_unique<faults::FaultPlane>(ep.sim, ep.fabric->underlay(), edges_ * 13);
    ep.plane->register_metrics(ep.fabric->metrics(), "faults");
    baseline_ = ep.fabric->metrics().snapshot();
    moving_.assign(total_hosts_, Move{});
    handover_ms_.clear();
    moves_started_ = moves_completed_ = 0;
    packet_seq_ = 0;
    ep.fabric->set_border_sync_listener(
        [this, &ep](const std::string& border, const net::VnEid& eid,
                    const lisp::MappingRecord* rec) {
          if (!rec || border != "border-0" || !eid.eid.is_ipv4()) return;
          for (std::uint32_t i = 0; i < roamers_; ++i) {
            const std::uint32_t host = warm_hosts_ + i;
            if (ips_[host] == eid.eid.ipv4()) border_check(ep, host);
          }
        });
  }

  void run(Episode& ep) override {
    Pump pump{ep, actions_, base_, [this, &ep](const Action& a) { apply(ep, a); }};
    ep.run_until(base_ + sim::Duration{ns_of(end_)});
  }

  void finish(Episode& ep, Outcome& out) override {
    account(ep, out);
    out.check(handover_ms_.size() == moves_completed_, "handover samples != moves completed");
    out.check(moves_completed_ == moves_started_,
              std::to_string(moves_started_ - moves_completed_) + " roams never converged");
    check_roamers_synced(ep, out);
    out.check(ep.fabric->stale_epoch_acks_accepted() == 0, "stale-epoch acks accepted");
    const std::uint64_t digest0 = ep.fabric->map_server_replica(0).digest();
    for (std::size_t i = 1; i < ep.fabric->routing_server_count(); ++i) {
      out.check(ep.fabric->map_server_replica(i).digest() == digest0,
                "replica " + std::to_string(i) + " digest differs from replica 0");
    }
    check_border_fib(ep, out);
    // Re-convergence: from the end of the last fault to the end of the last
    // 100 ms bucket (by send time) that lost a packet.
    std::int64_t last_lost = -1;
    ledger_.for_each_undelivered([&](std::uint32_t, std::uint32_t, std::int64_t sent_ns) {
      last_lost = std::max(last_lost, sent_ns);
    });
    out.reconverge_ms = 0;
    if (last_lost >= 0) {
      const double since_base = static_cast<double>(last_lost - base_.nanoseconds()) / 1e9;
      const double bucket_end = (std::floor(since_base / kBucket) + 1) * kBucket;
      out.reconverge_ms = std::max(0.0, (bucket_end - fault_end_) * 1e3);
    }
    out.handover_ms = handover_ms_;
    seal(ep, digest_, out);
  }

  ProbeSamples samples(Episode& ep) override { return warm_samples(ep); }

 private:
  static constexpr double kBucket = 0.1;

  /// At the end of the episode every routing server and every border maps
  /// each roamer to the edge it is attached to.
  void check_roamers_synced(Episode& ep, Outcome& out) {
    fabric::SdaFabric& f = *ep.fabric;
    for (std::uint32_t i = 0; i < roamers_; ++i) {
      const std::uint32_t host = warm_hosts_ + i;
      const auto at = f.location_of(mac_of(host));
      if (!at) {
        out.check(false, "roamer " + std::to_string(host) + " is not attached");
        continue;
      }
      const net::Ipv4Address rloc = f.edge(*at).rloc();
      const net::VnEid eid{kVn, net::Eid{ips_[host]}};
      for (std::size_t r = 0; r < f.routing_server_count(); ++r) {
        const lisp::MappingRecord* rec = f.map_server_replica(r).find_host(eid);
        out.check(rec && rec->primary_rloc() == rloc,
                  "routing server " + std::to_string(r) + " maps roamer " +
                      std::to_string(host) + " elsewhere than " + *at);
      }
      for (const auto& b : f.border_names()) {
        const auto& synced = f.border(b).synced();
        const auto it = synced.find(eid);
        out.check(it != synced.end() && it->second.primary_rloc() == rloc,
                  b + " maps roamer " + std::to_string(host) + " elsewhere than " + *at);
      }
    }
  }

  struct Move {
    bool active = false;
    std::int64_t detach_ns = 0, attach_ns = -1, border_ns = -1;
    net::Ipv4Address target;  // RLOC of the edge the host moves to
  };

  /// Stamps border convergence once border-0 maps the host to its new
  /// edge. A snapshot resync installs mappings without a sync callback, so
  /// after the attach the benchmark also polls border-0 every millisecond.
  void border_check(Episode& ep, std::uint32_t host) {
    Move& m = moving_[host];
    if (!m.active || m.border_ns >= 0) return;
    const auto& synced = ep.fabric->border("border-0").synced();
    const auto it = synced.find(net::VnEid{kVn, net::Eid{ips_[host]}});
    if (it != synced.end() && it->second.primary_rloc() == m.target) {
      m.border_ns = ep.sim.now().nanoseconds();
      maybe_finish(m);
    } else if (m.attach_ns >= 0) {
      ep.sim.schedule_after(std::chrono::milliseconds{1},
                            [this, &ep, host] { border_check(ep, host); });
    }
  }

  void apply(Episode& ep, const Action& a) {
    fabric::SdaFabric& f = *ep.fabric;
    switch (a.kind) {
      case kSend:
        // One key per packet, so each lost packet is known with its send time.
        send(ep, a.a, false, static_cast<std::uint16_t>(1024 + packet_seq_++ % 60000));
        return;
      case kConnect:
        connect(ep, a.a);
        return;
      case kRoam: {
        Move& m = moving_[a.a];
        ++moves_started_;
        m = Move{true, ep.sim.now().nanoseconds(), -1, -1, f.edge(edge_names_[a.b]).rloc()};
        ep.call(SpanKind::Roam, a.a, [&] {
          f.roam_endpoint(mac_of(a.a), edge_names_[a.b], 2,
                          [this, host = a.a](const fabric::OnboardResult& r) {
                            Move& move = moving_[host];
                            if (!r.success) return;  // stays active: counted as failed
                            move.attach_ns = ep_->sim.now().nanoseconds();
                            maybe_finish(move);
                            border_check(*ep_, host);
                          });
        });
        return;
      }
      default:
        break;
    }
    ep.call(SpanKind::Other, 0, [&] { fault(ep, a); });
  }

  void fault(Episode& ep, const Action& a) {
    fabric::SdaFabric& f = *ep.fabric;
    faults::FaultPlane& plane = *ep.plane;
    const auto secs = [](double s) { return sim::Duration{ns_of(s)}; };
    switch (a.aux) {
      case kCrash:
        plane.server_crash(f.map_server_node(a.a), sim::Duration{0}, secs(crash_for_), true);
        return;
      case kPartition: {
        const auto node = f.underlay().topology().node_by_loopback(
            f.border(tagged("border-", a.a)).rloc());
        if (node) plane.partition_node(*node, sim::Duration{0}, secs(partition_for_));
        return;
      }
      case kFlap: {
        const underlay::NodeId node = f.edge(edge_names_[a.a]).config().node;
        faults::FlapSchedule flap;
        flap.down_for = std::chrono::milliseconds{400};
        plane.flap_link(f.underlay().topology().links_of(node).front(), flap);
        return;
      }
      case kLossOn: {
        faults::LossModel loss;
        loss.loss = 0.05;
        plane.set_control_loss(loss);
        return;
      }
      default:
        plane.set_control_loss({});
        return;
    }
  }

  void maybe_finish(Move& m) {
    if (!m.active || m.attach_ns < 0 || m.border_ns < 0) return;
    const std::int64_t handover = std::max(m.attach_ns, m.border_ns) - m.detach_ns;
    handover_ms_.push_back(static_cast<double>(handover) / 1e6);
    digest_.add(static_cast<std::uint64_t>(handover));
    ++moves_completed_;
    m.active = false;
  }

  Episode* ep_ = nullptr;
  std::uint32_t late_ = 0, roamers_ = 0;
  double crash_for_ = 0, partition_for_ = 0, fault_end_ = 0, end_ = 0;
  std::uint64_t packet_seq_ = 0;

  std::vector<Move> moving_;
  std::vector<double> handover_ms_;
  std::uint64_t moves_started_ = 0, moves_completed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  if (name == "warehouse_roam") return std::make_unique<WarehouseRoam>(seed, smoke);
  if (name == "campus_day") return std::make_unique<CampusDay>(seed, smoke);
  if (name == "fabric_stream") return std::make_unique<FabricStream>(seed, smoke);
  if (name == "failover_storm") return std::make_unique<FailoverStorm>(seed, smoke);
  return nullptr;
}

}  // namespace perfbench
