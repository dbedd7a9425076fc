#include "probe.hpp"

#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/compromise.hpp"
#include "attack/intersection_attack.hpp"
#include "attack/observer.hpp"
#include "attack/route_tracer.hpp"
#include "attack/timing_attack.hpp"
#include "attack/zone_residency.hpp"
#include "core/experiment.hpp"
#include "core/obs_bridge.hpp"
#include "loc/location_service.hpp"
#include "loc/pseudonym.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "routing/alarm.hpp"
#include "routing/alert_router.hpp"
#include "routing/ao2p.hpp"
#include "routing/gpsr.hpp"
#include "routing/zap.hpp"
#include "routing/zone.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace paperbench {

namespace {

namespace core = alert::core;
namespace net = alert::net;
using alert::obs::monotonic_ns;

/// Span stack of one probe (single-threaded: a probe owns its simulator).
class LayerClock {
 public:
  void enter(Layer layer) {
    stack_.push_back(Frame{layer, monotonic_ns(), 0});
  }
  void leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t inclusive = monotonic_ns() - f.start_ns;
    const auto i = static_cast<std::size_t>(f.layer);
    self_ns[i] += inclusive - f.child_ns;
    ++calls[i];
    if (!stack_.empty()) stack_.back().child_ns += inclusive;
  }

  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::vector<Frame> stack_;
};

/// Times the router's handle() per received frame.
class TimedHandler final : public net::PacketHandler {
 public:
  TimedHandler(net::PacketHandler& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}
  void handle(net::Node& self, const net::Packet& pkt) override {
    clock_.enter(Layer::RoutingHandle);
    inner_.handle(self, pkt);
    clock_.leave();
  }
  void on_send_failed(net::Node& self, const net::Packet& pkt,
                      net::Pseudonym next_hop, net::DropReason why) override {
    clock_.enter(Layer::RoutingHandle);
    inner_.on_send_failed(self, pkt, next_hop, why);
    clock_.leave();
  }

 private:
  net::PacketHandler& inner_;
  LayerClock& clock_;
};

/// Times every callback of one trace listener under `layer`.
class TimedListener final : public net::TraceListener {
 public:
  TimedListener(net::TraceListener& inner, LayerClock& clock, Layer layer)
      : inner_(inner), clock_(clock), layer_(layer) {}
  void on_transmit(const net::Node& sender, const net::Packet& pkt,
                   alert::sim::Time air_start) override {
    clock_.enter(layer_);
    inner_.on_transmit(sender, pkt, air_start);
    clock_.leave();
  }
  void on_deliver(const net::Node& receiver, const net::Packet& pkt,
                  alert::sim::Time when) override {
    clock_.enter(layer_);
    inner_.on_deliver(receiver, pkt, when);
    clock_.leave();
  }
  void on_drop(const net::Node& last_holder, const net::Packet& pkt,
               alert::sim::Time when, net::DropReason why) override {
    clock_.enter(layer_);
    inner_.on_drop(last_holder, pkt, when, why);
    clock_.leave();
  }

 private:
  net::TraceListener& inner_;
  LayerClock& clock_;
  Layer layer_;
};

/// End-to-end Data deliveries at the true destination, first arrival per
/// uid, feeding the same metric sinks run_once's delivery counter feeds.
class DeliveryCounter final : public net::TraceListener {
 public:
  DeliveryCounter(alert::util::Accumulator& latency,
                  alert::util::Histogram& hops)
      : latency_(latency), hops_(hops) {}
  void on_deliver(const net::Node& receiver, const net::Packet& pkt,
                  alert::sim::Time when) override {
    if (pkt.kind != net::PacketKind::Data) return;
    if (receiver.id() != pkt.true_dest) return;
    if (!seen_.insert(pkt.uid).second) return;
    ++delivered_;
    latency_.add(when - pkt.app_send_time);
    hops_.add(static_cast<double>(pkt.hop_count));
  }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t delivered_ = 0;
  alert::util::Accumulator& latency_;
  alert::util::Histogram& hops_;
};

std::unique_ptr<net::MobilityModel> make_mobility(
    const core::ScenarioConfig& cfg) {
  switch (cfg.mobility) {
    case core::MobilityKind::Group:
      return std::make_unique<net::GroupMobility>(
          cfg.field, cfg.speed_mps, cfg.group_count, cfg.group_range_m);
    case core::MobilityKind::Static:
      return std::make_unique<net::StaticPlacement>(cfg.field);
    case core::MobilityKind::RandomWaypoint:
      break;
  }
  return std::make_unique<net::RandomWaypoint>(cfg.field, cfg.speed_mps);
}

std::unique_ptr<alert::routing::Protocol> make_protocol(
    const core::ScenarioConfig& cfg, net::Network& network,
    alert::loc::LocationService& location) {
  namespace routing = alert::routing;
  switch (cfg.protocol) {
    case core::ProtocolKind::Gpsr:
      return std::make_unique<routing::GpsrRouter>(network, location,
                                                   cfg.gpsr);
    case core::ProtocolKind::Alarm:
      return std::make_unique<routing::AlarmRouter>(network, location,
                                                    cfg.alarm);
    case core::ProtocolKind::Ao2p:
      return std::make_unique<routing::Ao2pRouter>(network, location,
                                                   cfg.ao2p);
    case core::ProtocolKind::Zap:
      return std::make_unique<routing::ZapRouter>(network, location,
                                                  cfg.zap);
    case core::ProtocolKind::Alert:
      break;
  }
  return std::make_unique<routing::AlertRouter>(network, location, cfg.alert);
}

/// Connected components of the unit-disk graph at `t` (traffic pairs are
/// drawn inside one component, as run_once does).
std::vector<int> disk_components(const net::Network& network,
                                 alert::sim::Time t) {
  const std::size_t n = network.size();
  std::vector<int> comp(n, -1);
  int next = 0;
  for (net::NodeId s = 0; s < n; ++s) {
    if (comp[s] != -1) continue;
    comp[s] = next;
    std::queue<net::NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const net::NodeId u = q.front();
      q.pop();
      for (const net::NodeId v : network.nodes_within(
               network.node(u).position(t), network.config().radio_range_m,
               t)) {
        if (comp[v] == -1) {
          comp[v] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

std::uint64_t counter_total(const alert::obs::MetricsSnapshot& snap,
                            const char* name) {
  const alert::obs::MetricValue* v = snap.find(name);
  return v != nullptr ? v->total : 0;
}

/// Per-call cost of Network::nodes_within on the horizon topology: one
/// carrier-range query around every node, repeated to ~20k calls.
double time_nodes_within(const net::Network& network, alert::sim::Time t) {
  const std::size_t n = network.size();
  if (n == 0) return 0.0;
  const std::size_t rounds = (20000 + n - 1) / n;
  const std::uint64_t start = monotonic_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (net::NodeId id = 0; id < n; ++id) {
      static_cast<void>(network.nodes_within(
          network.node(id).position(t), network.config().radio_range_m, t));
    }
  }
  const std::uint64_t elapsed = monotonic_ns() - start;
  return static_cast<double>(elapsed) / static_cast<double>(rounds * n);
}

}  // namespace

ProbeResult run_probe(const core::ScenarioConfig& config, std::uint64_t rep) {
  const std::uint64_t wall_start = monotonic_ns();
  core::validate_scenario(config);
  ProbeResult out;
  LayerClock clock;

  // --- build, in run_once's order (RNG forks and scheduling order match) --
  alert::sim::Simulator simulator;
  alert::obs::Profiler profiler;  // execute_unit always profiles
  simulator.set_profiler(&profiler);
  alert::util::Rng rng(config.seed + rep * 0x9E3779B97F4A7C15ULL);

  net::Network network(simulator, config.network_config(),
                       make_mobility(config), rng.fork(1),
                       config.duration_s);
  alert::loc::PseudonymManager pseudonyms(alert::loc::PseudonymPolicy{},
                                          rng.fork(2));
  network.set_pseudonym_provider(&pseudonyms);
  alert::loc::LocationService location(network, config.location,
                                       config.duration_s);
  auto protocol = make_protocol(config, network, location);
  TimedHandler handler(*protocol, clock);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.attach_handler(id, &handler);
  }

  // The workloads run with metrics on (the default) and no fault plan, so
  // the metrics bridge is always attached and no fault injector is built.
  alert::obs::MetricsRegistry metrics;
  core::ObsBridge bridge(metrics, alert::obs::Tracer{});
  TimedListener timed_bridge(bridge, clock, Layer::Listeners);
  network.add_listener(&timed_bridge);
  protocol->set_metrics(&metrics);

  DeliveryCounter delivery(metrics.sample("app.latency_s"),
                           metrics.histogram("app.hop_count", 0.0, 40.0, 40));
  TimedListener timed_delivery(delivery, clock, Layer::Listeners);
  network.add_listener(&timed_delivery);
  alert::attack::PassiveObserver observer(network);
  TimedListener timed_observer(observer, clock, Layer::Observe);
  network.add_listener(&timed_observer);

  // --- traffic: the same pair sampling and CBR schedule -------------------
  alert::util::Rng traffic_rng = rng.fork(3);
  struct Flow {
    net::NodeId src, dst;
  };
  std::vector<Flow> flows;
  flows.reserve(config.flow_count);
  const std::vector<int> comp = disk_components(network, 0.0);
  for (std::size_t f = 0; f < config.flow_count; ++f) {
    net::NodeId src = 0, dst = 0;
    for (int attempt = 0; attempt < 1024; ++attempt) {
      src = static_cast<net::NodeId>(traffic_rng.below(config.node_count));
      dst = src;
      while (dst == src) {
        dst = static_cast<net::NodeId>(traffic_rng.below(config.node_count));
      }
      if (comp[src] != comp[dst]) continue;
      const double d = alert::util::distance(network.node(src).position(0.0),
                                             network.node(dst).position(0.0));
      if (d < config.min_pair_distance_m || d > config.max_pair_distance_m) {
        continue;
      }
      break;
    }
    flows.push_back(Flow{src, dst});
  }
  std::vector<std::uint32_t> next_seq(config.flow_count, 0);
  alert::routing::Protocol* proto = protocol.get();
  for (std::size_t f = 0; f < config.flow_count; ++f) {
    const double phase = traffic_rng.uniform(0.0, 0.2);
    simulator.schedule_periodic(
        config.traffic_start_s + phase, config.packet_interval_s, [&, f] {
          if (simulator.now() > config.duration_s) return;
          if (config.packets_per_flow != 0 &&
              next_seq[f] >= config.packets_per_flow) {
            return;
          }
          clock.enter(Layer::RoutingSend);
          proto->send(flows[f].src, flows[f].dst, config.payload_bytes,
                      static_cast<std::uint32_t>(f), next_seq[f]++);
          clock.leave();
        });
  }
  // Zone-residency sampling schedules events too, so it is mirrored.
  std::vector<alert::attack::ZoneResidency> residencies;
  std::vector<std::vector<double>> residency_samples(config.flow_count);
  simulator.schedule_at(config.traffic_start_s, [&] {
    for (std::size_t f = 0; f < config.flow_count; ++f) {
      const alert::util::Vec2 dpos =
          network.node(flows[f].dst).position(simulator.now());
      residencies.emplace_back(
          network, alert::routing::destination_zone(
                       config.field, dpos, config.alert.partitions_h));
    }
  });
  const auto samples = static_cast<std::size_t>(
                           (config.duration_s - config.traffic_start_s) /
                           config.residency_sample_period_s) +
                       1;
  for (std::size_t s = 0; s < samples; ++s) {
    const double t = config.traffic_start_s +
                     static_cast<double>(s) * config.residency_sample_period_s;
    simulator.schedule_at(t, [&] {
      for (std::size_t f = 0; f < residencies.size(); ++f) {
        residency_samples[f].push_back(
            static_cast<double>(residencies[f].remaining_at(simulator.now())));
      }
    });
  }

  // --- the timed event loop -----------------------------------------------
  // The same run_until(horizon) call run_once makes, inside one Net span.
  // A step() loop would need a sentinel event to stop at the horizon, and
  // any extra event shifts the scheduling sequence numbers of every later
  // one, which the trace digest folds in.
  const std::uint64_t loop_start = monotonic_ns();
  clock.enter(Layer::Net);
  simulator.run_until(config.duration_s);
  clock.leave();
  out.loop_ns = monotonic_ns() - loop_start;
  out.events = simulator.events_executed();
  out.trace_digest = simulator.trace_digest();
  out.self_ns = clock.self_ns;
  out.calls = clock.calls;
  network.ledger().expire_open(config.duration_s);

  // --- post-horizon analyses, each timed ----------------------------------
  const auto& log = observer.events();
  out.log_events = log.size();
  out.log_bytes = log.size() * sizeof(log.front());
  std::uint64_t t0 = monotonic_ns();
  const auto routes = alert::attack::trace_routes(log);
  out.trace_routes_ns = monotonic_ns() - t0;
  double sink = routes.mean_participating_nodes;
  t0 = monotonic_ns();
  if (config.run_attacks) {
    sink += alert::attack::timing_attack(log).source_identification_rate();
    sink += alert::attack::intersection_attack(log).mean_success_probability();
  }
  if (!config.compromise_budgets.empty()) {
    alert::util::Rng compromise_rng = rng.fork(4);
    for (const std::size_t budget : config.compromise_budgets) {
      sink += alert::attack::targeted_next_packet_interception(log, budget,
                                                               compromise_rng);
      sink += alert::attack::compromise_analysis(log, config.node_count,
                                                 budget, 100, compromise_rng)
                  .flow_blockage;
    }
  }
  out.analysis_ns = monotonic_ns() - t0;
  static_cast<void>(sink);  // the analyses live in alert_attack: never elided

  core::export_protocol_stats(metrics, proto->stats());
  core::export_run_totals(metrics, network);
  const alert::obs::MetricsSnapshot snap = metrics.snapshot();
  out.tx = counter_total(snap, "net.tx");
  out.rx = counter_total(snap, "net.rx");
  out.delivered = delivery.delivered();
  out.hello = network.hello_count();
  out.profile = profiler.report();
  out.wall_ns = monotonic_ns() - wall_start;
  // Outside the replication's wall time: a measurement of the index only.
  out.nodes_within_ns = time_nodes_within(network, config.duration_s);
  return out;
}

}  // namespace paperbench
