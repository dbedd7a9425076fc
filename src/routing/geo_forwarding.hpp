#pragma once

/// \file geo_forwarding.hpp
/// Shared geographic forwarding primitives (GPSR, Karp & Kung): greedy
/// next-hop selection and right-hand-rule perimeter forwarding on the
/// Gabriel-planarized neighbour graph. GPSR/ALARM/AO2P use both; ALERT's
/// legs between RFs use greedy (a local maximum toward a TD *is* the next
/// random forwarder, Fig. 3) and the destination leg may use perimeter
/// recovery without compromising anonymity (Sec. 2.7).

#include <optional>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"

namespace alert::routing {

/// The neighbour (by beaconed position) strictly closer to `target` than
/// `self_pos`, minimizing remaining distance. nullptr at a local maximum.
[[nodiscard]] const net::NeighborInfo* greedy_next_hop(
    const net::Node& self, util::Vec2 self_pos, util::Vec2 target);

/// Gabriel-graph filter: neighbour v survives if no witness w (another
/// neighbour) lies strictly inside the circle with diameter (self, v).
/// Planarization is what makes the right-hand rule traverse faces.
[[nodiscard]] std::vector<const net::NeighborInfo*> gabriel_neighbors(
    const net::Node& self, util::Vec2 self_pos);

/// Right-hand-rule successor: the first Gabriel edge counterclockwise from
/// the reference direction `(from - self_pos)`. Returns nullptr when the
/// node has no planar neighbours.
[[nodiscard]] const net::NeighborInfo* perimeter_next_hop(
    const net::Node& self, util::Vec2 self_pos, util::Vec2 from);

/// One hop of a GPSR leg toward `pkt.geo->dest_pos`.
struct GpsrHop {
  const net::NeighborInfo* next = nullptr;  ///< nullptr: drop the packet
  bool greedy = false;                      ///< false: a perimeter hop
};

/// The greedy-then-perimeter state machine shared by GPSR and ALERT's
/// fallback leg. Perimeter mode ends once `self` is closer to the target
/// than where it began. Otherwise the packet goes greedy when a neighbour
/// makes progress. At a local maximum it enters perimeter mode (only if
/// `use_perimeter`) and takes the right-hand rule, arriving from its
/// previous hop. A face walk that comes back to its first hop has no way
/// through. Updates `pkt.geo`'s perimeter state; the caller seals, counts,
/// unicasts or drops.
[[nodiscard]] GpsrHop gpsr_next_hop(const net::Network& net,
                                    const net::Node& self, net::Packet& pkt,
                                    bool use_perimeter);

}  // namespace alert::routing
