#pragma once

/// \file route_tracer.hpp
/// Route-anonymity analysis (Sec. 3.1): an adversary that observed one
/// packet's full path tries to predict the path of subsequent packets of
/// the same flow. ALERT defeats this by re-randomizing the RF set per
/// packet; GPSR-family protocols repeat (nearly) the same shortest path.

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "attack/observer.hpp"

namespace alert::attack {

struct RouteTraceResult {
  /// Mean Jaccard overlap |route_i ∩ route_{i+1}| / |route_i ∪ route_{i+1}|
  /// between consecutive packets' transmitter sets, averaged over flows.
  double mean_consecutive_overlap = 0.0;
  /// Mean number of distinct nodes that transmitted data of a flow
  /// (the "actual participating nodes" metric of Sec. 5.3).
  double mean_participating_nodes = 0.0;
  /// Distinct participating nodes per flow, cumulative after each packet —
  /// the curve of Fig. 10a.
  std::vector<double> cumulative_participants_by_packet;
};

/// Data-packet transmitter sets keyed by flow, then seq.
using TransmitterSets =
    std::map<std::uint32_t, std::map<std::uint32_t, std::set<net::NodeId>>>;

/// Online route tracer: folds every Data transmission into per-(flow, seq)
/// transmitter sets as it happens, so a replication that mounts no attack
/// needs no event log. trace_routes() feeds a recorded log through the same
/// fold, so the live and the replayed analysis cannot disagree.
class RouteTraceReducer final : public net::TraceListener {
 public:
  void on_transmit(const net::Node& sender, const net::Packet& pkt,
                   sim::Time air_start) override;

  /// Fold one event of a recorded PassiveObserver log.
  void fold(const ObservedEvent& e);

  [[nodiscard]] const TransmitterSets& transmitters() const& {
    return by_flow_;
  }
  [[nodiscard]] TransmitterSets transmitters() && {
    return std::move(by_flow_);
  }
  [[nodiscard]] RouteTraceResult result() const;

 private:
  void add(net::PacketKind kind, std::uint32_t flow, std::uint32_t seq,
           net::NodeId transmitter);

  TransmitterSets by_flow_;
};

/// Analyze Data-packet transmitter sets per (flow, seq) of a recorded log.
[[nodiscard]] RouteTraceResult trace_routes(
    const std::vector<ObservedEvent>& events);

/// Per-(flow, seq) transmitter sets, ordered by seq (exposed for tests and
/// for the intersection attack's session structure).
[[nodiscard]] TransmitterSets transmitters_by_flow(
    const std::vector<ObservedEvent>& events);

}  // namespace alert::attack
