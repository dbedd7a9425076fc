#include "attack/route_tracer.hpp"

#include <algorithm>

namespace alert::attack {

void RouteTraceReducer::add(net::PacketKind kind, std::uint32_t flow,
                            std::uint32_t seq, net::NodeId transmitter) {
  if (kind != net::PacketKind::Data) return;
  by_flow_[flow][seq].insert(transmitter);
}

void RouteTraceReducer::on_transmit(const net::Node& sender,
                                    const net::Packet& pkt,
                                    sim::Time /*air_start*/) {
  add(pkt.kind, pkt.flow, pkt.seq, sender.id());
}

void RouteTraceReducer::fold(const ObservedEvent& e) {
  if (e.kind != EventKind::Transmit) return;
  add(e.packet_kind, e.flow, e.seq, e.node);
}

RouteTraceResult RouteTraceReducer::result() const {
  RouteTraceResult result;
  if (by_flow_.empty()) return result;

  double overlap_sum = 0.0;
  std::size_t overlap_count = 0;
  double participants_sum = 0.0;
  std::size_t max_packets = 0;
  for (const auto& [flow, by_seq] : by_flow_) {
    max_packets = std::max(max_packets, by_seq.size());
  }
  std::vector<double> cumulative(max_packets, 0.0);
  std::vector<std::size_t> cumulative_n(max_packets, 0);

  for (const auto& [flow, by_seq] : by_flow_) {
    std::set<net::NodeId> all;
    const std::set<net::NodeId>* prev = nullptr;
    std::size_t idx = 0;
    for (const auto& [seq, nodes] : by_seq) {
      if (prev != nullptr) {
        std::vector<net::NodeId> inter, uni;
        std::set_intersection(prev->begin(), prev->end(), nodes.begin(),
                              nodes.end(), std::back_inserter(inter));
        std::set_union(prev->begin(), prev->end(), nodes.begin(),
                       nodes.end(), std::back_inserter(uni));
        if (!uni.empty()) {
          overlap_sum += static_cast<double>(inter.size()) /
                         static_cast<double>(uni.size());
          ++overlap_count;
        }
      }
      prev = &nodes;
      all.insert(nodes.begin(), nodes.end());
      if (idx < cumulative.size()) {
        cumulative[idx] += static_cast<double>(all.size());
        ++cumulative_n[idx];
      }
      ++idx;
    }
    participants_sum += static_cast<double>(all.size());
  }

  result.mean_consecutive_overlap =
      overlap_count > 0 ? overlap_sum / static_cast<double>(overlap_count)
                        : 0.0;
  result.mean_participating_nodes =
      participants_sum / static_cast<double>(by_flow_.size());
  result.cumulative_participants_by_packet.resize(max_packets, 0.0);
  for (std::size_t i = 0; i < max_packets; ++i) {
    if (cumulative_n[i] > 0) {
      result.cumulative_participants_by_packet[i] =
          cumulative[i] / static_cast<double>(cumulative_n[i]);
    }
  }
  return result;
}

namespace {

RouteTraceReducer replay(const std::vector<ObservedEvent>& events) {
  RouteTraceReducer reducer;
  for (const ObservedEvent& e : events) reducer.fold(e);
  return reducer;
}

}  // namespace

TransmitterSets transmitters_by_flow(const std::vector<ObservedEvent>& events) {
  return replay(events).transmitters();
}

RouteTraceResult trace_routes(const std::vector<ObservedEvent>& events) {
  return replay(events).result();
}

}  // namespace alert::attack
