#pragma once

/// \file node.hpp
/// A mobile node: identity material (MAC address, RSA key pair, dynamic
/// pseudonym slot), kinematic state (piecewise-linear motion segment set by
/// the mobility model), and the neighbour table built from received hello
/// beacons — the only view of the network a protocol is allowed to use.

#include <cstdint>
#include <limits>
#include <vector>

#include "crypto/pubkey.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "util/geometry.hpp"

namespace alert::net {

/// What a node knows about a neighbour, learned from hello beacons
/// (pseudonym + position + public key, Sec. 2.2). Position is as of the
/// last hello, so it goes stale as nodes move — exactly the staleness that
/// degrades geographic forwarding at speed.
struct NeighborInfo {
  Pseudonym pseudonym = 0;
  util::Vec2 position;
  /// The sender's own key (Node::public_key()). Keys never change and every
  /// node lives as long as the Network that holds both ends of the link, so
  /// the table refers to it instead of copying it.
  const crypto::PublicKey* pubkey = nullptr;
  sim::Time last_heard = 0.0;
};

class Node {
 public:
  Node(NodeId id, std::uint64_t mac_address, crypto::KeyPair keys)
      : id_(id), mac_address_(mac_address), keys_(keys) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint64_t mac_address() const { return mac_address_; }
  [[nodiscard]] const crypto::PublicKey& public_key() const {
    return keys_.pub;
  }
  [[nodiscard]] const crypto::PrivateKey& private_key() const {
    return keys_.priv;
  }

  [[nodiscard]] Pseudonym pseudonym() const { return pseudonym_; }
  void set_pseudonym(Pseudonym p) { pseudonym_ = p; }

  // --- kinematics -------------------------------------------------------
  /// Replace the current motion segment: from `start_pos` at `start_time`,
  /// move with `velocity` until `end_time`, then hold position.
  void set_motion(util::Vec2 start_pos, sim::Time start_time,
                  util::Vec2 velocity, sim::Time end_time);

  [[nodiscard]] util::Vec2 position(sim::Time t) const;
  [[nodiscard]] util::Vec2 velocity() const { return velocity_; }
  [[nodiscard]] sim::Time segment_end() const { return seg_end_; }

  // --- radio liveness (fault churn, src/faults) -------------------------
  [[nodiscard]] bool alive() const { return alive_; }
  /// Power the radio down/up. Crashing wipes the neighbour table and the
  /// MAC busy horizon: a rebooted node rediscovers the world from hellos,
  /// and whatever it was transmitting died with it.
  void set_alive(bool up);

  // --- neighbour table --------------------------------------------------
  // Entries stay in first-heard order: a pseudonym not in the table is
  // appended, a known one is updated in place. Lookups cost O(1); a call
  // pays O(table size) only to grow the table, to remove an entry, or (in
  // expire_neighbors) to sweep once the oldest entry can have expired.
  /// Record a received hello beacon.
  void observe_neighbor(const NeighborInfo& info, sim::Time now);
  /// Drop entries not refreshed within `max_age`.
  void expire_neighbors(sim::Time now, double max_age);
  /// Drop one entry by pseudonym (link-layer failure feedback: the ARQ gave
  /// up on this neighbour, stop routing through it).
  void remove_neighbor(Pseudonym p);

  [[nodiscard]] const std::vector<NeighborInfo>& neighbors() const {
    return neighbors_;
  }

  // --- MAC state (owned by Mac, stored inline for locality) -------------
  sim::Time mac_busy_until = 0.0;

 private:
  NodeId id_;
  std::uint64_t mac_address_;
  crypto::KeyPair keys_;
  Pseudonym pseudonym_ = 0;
  bool alive_ = true;

  util::Vec2 seg_start_pos_;
  sim::Time seg_start_ = 0.0;
  util::Vec2 velocity_;
  sim::Time seg_end_ = 0.0;

  /// Where a probe of the index for one pseudonym ended.
  struct Probe {
    std::size_t slot;      ///< slot that led to the entry, else empty slot
    std::size_t position;  ///< the entry's index in neighbors_, else kAbsent
  };
  [[nodiscard]] Probe probe(Pseudonym p) const;
  [[nodiscard]] std::size_t home_slot(Pseudonym p) const;
  /// Re-size the index to the table's capacity and re-insert every entry.
  void rebuild_index();

  static constexpr sim::Time kNeverHeard =
      std::numeric_limits<sim::Time>::infinity();
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  /// Smallest index; it also keeps home_slot's shift below 64.
  static constexpr std::size_t kMinSlots = 16;
  /// Slot tags are 1 + position modulo this, so they fit in 16 bits.
  static constexpr std::size_t kTagModulus = 0xFFFF;
  static constexpr std::uint16_t tag_of(std::size_t position) {
    return static_cast<std::uint16_t>(1 + position % kTagModulus);
  }

  std::vector<NeighborInfo> neighbors_;
  /// Open-addressing index (linear probing) over `neighbors_`. A slot is 0
  /// (empty) or the tag of one entry: 1 + its position modulo kTagModulus.
  /// A probe checks every position with the slot's tag, which is exactly
  /// one position until the table holds kTagModulus entries, so the index
  /// is exact at any size. Its size is a power of two at least twice the
  /// table's capacity: at least half the slots are empty and every probe
  /// ends.
  std::vector<std::uint16_t> slots_ = std::vector<std::uint16_t>(kMinSlots);
  /// Lower bound on every entry's `last_heard` (kNeverHeard when empty):
  /// while `now - oldest_heard_ <= max_age`, no entry can have expired.
  sim::Time oldest_heard_ = kNeverHeard;
};

}  // namespace alert::net
