#include "routing/geo_forwarding.hpp"

#include <algorithm>
#include <cmath>

namespace alert::routing {

const net::NeighborInfo* greedy_next_hop(const net::Node& self,
                                         util::Vec2 self_pos,
                                         util::Vec2 target) {
  const double self_d = util::distance_sq(self_pos, target);
  const net::NeighborInfo* best = nullptr;
  double best_d = self_d;
  for (const auto& n : self.neighbors()) {
    const double d = util::distance_sq(n.position, target);
    if (d < best_d) {
      best = &n;
      best_d = d;
    }
  }
  return best;
}

std::vector<const net::NeighborInfo*> gabriel_neighbors(
    const net::Node& self, util::Vec2 self_pos) {
  std::vector<const net::NeighborInfo*> result;
  const auto& neighbors = self.neighbors();
  for (const auto& v : neighbors) {
    const util::Vec2 mid = (self_pos + v.position) * 0.5;
    const double radius_sq = util::distance_sq(self_pos, v.position) * 0.25;
    const bool witnessed = std::any_of(
        neighbors.begin(), neighbors.end(), [&](const net::NeighborInfo& w) {
          return w.pseudonym != v.pseudonym &&
                 util::distance_sq(w.position, mid) < radius_sq - 1e-9;
        });
    if (!witnessed) result.push_back(&v);
  }
  return result;
}

const net::NeighborInfo* perimeter_next_hop(const net::Node& self,
                                            util::Vec2 self_pos,
                                            util::Vec2 from) {
  const auto planar = gabriel_neighbors(self, self_pos);
  if (planar.empty()) return nullptr;
  const double ref = (from - self_pos).angle();
  const net::NeighborInfo* best = nullptr;
  double best_delta = 0.0;
  for (const auto* n : planar) {
    const double ang = (n->position - self_pos).angle();
    // Counterclockwise sweep from the reference direction; pick the first
    // edge strictly after it (right-hand rule).
    double delta = ang - ref;
    // Angle normalisation, not a reduction: each pass adds the same 2π
    // constant, so the result is order-free by construction.
    while (delta <= 1e-12) delta += 2.0 * M_PI;  // alert-lint: allow(fp-accumulation-order)
    if (best == nullptr || delta < best_delta) {
      best = n;
      best_delta = delta;
    }
  }
  return best;
}

GpsrHop gpsr_next_hop(const net::Network& net, const net::Node& self,
                      net::Packet& pkt, bool use_perimeter) {
  net::GeoFields& geo = *pkt.geo;
  const util::Vec2 self_pos = self.position(net.now());
  const util::Vec2 target = geo.dest_pos;

  if (geo.perimeter_mode && util::distance(self_pos, target) <
                                util::distance(geo.perimeter_entry, target)) {
    geo.perimeter_mode = false;
  }
  if (!geo.perimeter_mode) {
    if (const auto* next = greedy_next_hop(self, self_pos, target)) {
      return {next, true};
    }
    if (!use_perimeter) return {};
    geo.perimeter_mode = true;
    geo.perimeter_entry = self_pos;
    geo.face_cross_start = target;  // reference direction toward the target
    geo.perimeter_first_hop = net::kInvalidNode;
  }

  // Right-hand rule around the face. The reference direction is the edge we
  // arrived on (or toward the target when entering).
  util::Vec2 from = geo.face_cross_start;
  if (pkt.prev_hop != net::kInvalidNode && pkt.prev_hop != self.id()) {
    from = net.node(pkt.prev_hop).position(net.now());
  }
  const auto* next = perimeter_next_hop(self, self_pos, from);
  if (next == nullptr) return {};
  const net::NodeId next_id = net.resolve_pseudonym(next->pseudonym);
  if (geo.perimeter_first_hop == net::kInvalidNode) {
    geo.perimeter_first_hop = next_id;
  } else if (next_id == geo.perimeter_first_hop) {
    return {};  // walked the whole face without getting closer
  }
  return {next, false};
}

}  // namespace alert::routing
