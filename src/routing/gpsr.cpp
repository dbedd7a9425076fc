#include "routing/gpsr.hpp"

#include "routing/geo_forwarding.hpp"

namespace alert::routing {

GpsrRouter::GpsrRouter(net::Network& network, loc::LocationService& location,
                       GpsrConfig config)
    : Protocol(network, location), config_(config) {
  init_profiling("gpsr");
  attach_to_all();
}

void GpsrRouter::send(net::NodeId src, net::NodeId dst,
                      std::size_t payload_bytes, std::uint32_t flow,
                      std::uint32_t seq) {
  ALERT_OBS_TIMED(profiler_, send_scope_);
  const auto record = loc_.query(src, dst);
  if (!record) return;  // location service entirely failed

  net::Node& source = net_.node(src);
  net::Packet pkt;
  pkt.kind = net::PacketKind::Data;
  pkt.src_pseudonym = source.pseudonym();
  pkt.dst_pseudonym = record->pseudonym;
  pkt.flow = flow;
  pkt.seq = seq;
  pkt.payload.assign(payload_bytes, 0);
  pkt.geo = net::GeoFields{};
  pkt.geo->dest_pos = record->position;
  pkt.hops_remaining = config_.max_hops;
  pkt.uid = net_.next_uid();
  pkt.app_send_time = net_.now();
  pkt.first_send_time = net_.now();
  pkt.true_source = src;
  pkt.true_dest = dst;
  pkt.size_bytes = payload_bytes + header_bytes(pkt);

  ++stats_.data_sent;
  forward(source, std::move(pkt));
}

void GpsrRouter::handle(net::Node& self, const net::Packet& pkt) {
  ALERT_OBS_TIMED(profiler_, handle_scope_);
  if (pkt.kind != net::PacketKind::Data) return;
  if (net_.resolve_pseudonym(pkt.dst_pseudonym) == self.id()) {
    ++stats_.data_delivered;
    ledger_close(pkt, net::PacketFate::Delivered);
    return;
  }
  forward(self, pkt);
}

bool GpsrRouter::reroute_failed(net::Node& self, const net::Packet& pkt) {
  if (pkt.kind != net::PacketKind::Data || !pkt.geo) return false;
  forward(self, pkt);
  return true;
}

void GpsrRouter::forward(net::Node& self, net::Packet pkt) {
  if (pkt.hops_remaining <= 0) {
    ++stats_.data_dropped;
    ledger_close(pkt, net::PacketFate::Dropped);
    return;
  }
  --pkt.hops_remaining;
  ++pkt.hop_count;

  // Note: forwarding is purely position-based — a relay never "spots" the
  // destination in its table; D receives the packet only when greedy
  // selection toward the (possibly stale) destination position genuinely
  // picks it. This is what makes GPSR degrade without location updates
  // (Figs. 14b/15b/16b).
  const GpsrHop hop = gpsr_next_hop(net_, self, pkt, config_.use_perimeter);
  if (hop.next == nullptr) {
    ++stats_.data_dropped;
    ledger_close(pkt, net::PacketFate::Dropped);
    return;
  }
  ++stats_.forwards;
  net_.unicast(self, hop.next->pseudonym, std::move(pkt),
               config_.per_hop_processing_s);
}

}  // namespace alert::routing
