#include "net/network.hpp"

#include <gtest/gtest.h>

#include "net/mac.hpp"
#include "sim/simulator.hpp"

namespace alert::net {
namespace {

/// Records every frame a node's handler sees.
class Recorder final : public PacketHandler {
 public:
  void handle(Node& self, const Packet& pkt) override {
    received.push_back({self.id(), pkt});
  }
  std::vector<std::pair<NodeId, Packet>> received;
};

class CountingListener final : public TraceListener {
 public:
  void on_transmit(const Node&, const Packet& pkt, sim::Time) override {
    if (pkt.kind != PacketKind::Hello) ++transmits;
  }
  void on_deliver(const Node&, const Packet& pkt, sim::Time) override {
    if (pkt.kind != PacketKind::Hello) ++delivers;
  }
  void on_drop(const Node&, const Packet&, sim::Time, DropReason r) override {
    ++drops;
    last_reason = r;
  }
  int transmits = 0, delivers = 0, drops = 0;
  DropReason last_reason{};
};

struct Fixture {
  Fixture(std::vector<util::Vec2> positions, double range = 250.0) {
    NetworkConfig cfg;
    cfg.field = {0.0, 0.0, 1000.0, 1000.0};
    cfg.node_count = positions.size();
    cfg.radio_range_m = range;
    net = std::make_unique<Network>(
        simulator, cfg,
        std::make_unique<StaticPlacement>(std::move(positions)),
        util::Rng(99), /*horizon=*/1000.0);
  }
  sim::Simulator simulator;
  std::unique_ptr<Network> net;
};

TEST(Network, BuildsRequestedNodeCount) {
  Fixture f({{0, 0}, {100, 0}, {200, 0}});
  EXPECT_EQ(f.net->size(), 3u);
}

TEST(Network, NodesHaveDistinctKeysAndPseudonyms) {
  Fixture f({{0, 0}, {100, 0}, {200, 0}});
  EXPECT_NE(f.net->node(0).public_key().n, f.net->node(1).public_key().n);
  EXPECT_NE(f.net->node(0).pseudonym(), f.net->node(1).pseudonym());
}

TEST(Network, PseudonymRegistryResolves) {
  Fixture f({{0, 0}, {100, 0}});
  EXPECT_EQ(f.net->resolve_pseudonym(f.net->node(0).pseudonym()), 0u);
  EXPECT_EQ(f.net->resolve_pseudonym(f.net->node(1).pseudonym()), 1u);
  EXPECT_EQ(f.net->resolve_pseudonym(0xDEAD), kInvalidNode);
}

TEST(Network, RotationKeepsOldPseudonymResolvable) {
  Fixture f({{0, 0}});
  const Pseudonym old = f.net->node(0).pseudonym();
  f.net->rotate_pseudonym(f.net->node(0));
  EXPECT_NE(f.net->node(0).pseudonym(), old);
  EXPECT_EQ(f.net->resolve_pseudonym(old), 0u);
  EXPECT_EQ(f.net->resolve_pseudonym(f.net->node(0).pseudonym()), 0u);
}

TEST(Network, NodesWithinRadius) {
  Fixture f({{0, 0}, {100, 0}, {600, 0}});
  const auto near = f.net->nodes_within({0, 0}, 250.0, 0.0);
  EXPECT_EQ(near.size(), 2u);  // self + the 100 m node
}

TEST(Network, HelloBeaconsPopulateNeighborTables) {
  Fixture f({{0, 0}, {100, 0}, {600, 0}});
  f.simulator.run_until(3.0);
  // Nodes 0 and 1 are in range of each other; node 2 is isolated.
  EXPECT_EQ(f.net->node(0).neighbors().size(), 1u);
  EXPECT_EQ(f.net->node(1).neighbors().size(), 1u);
  EXPECT_TRUE(f.net->node(2).neighbors().empty());
  EXPECT_EQ(f.net->node(0).neighbors()[0].position, util::Vec2(100, 0));
}

TEST(Network, JammerDiscSilencesHellosBothWays) {
  // Node 3 sits inside a jammer disc for the whole run: it neither hears
  // node 2's hellos (receiver jammed) nor reaches node 2 (sender jammed),
  // while the unjammed pair 0-1 sees each other as usual.
  NetworkConfig cfg;
  cfg.field = {0.0, 0.0, 1000.0, 1000.0};
  cfg.node_count = 4;
  cfg.faults.outages.push_back({{600.0, 0.0}, 50.0, 0.0, 1000.0});
  sim::Simulator simulator;
  Network net(simulator, cfg,
              std::make_unique<StaticPlacement>(std::vector<util::Vec2>{
                  {0, 0}, {100, 0}, {500, 0}, {600, 0}}),
              util::Rng(99), /*horizon=*/1000.0);
  simulator.run_until(3.0);
  EXPECT_EQ(net.node(0).neighbors().size(), 1u);
  EXPECT_EQ(net.node(1).neighbors().size(), 1u);
  EXPECT_TRUE(net.node(2).neighbors().empty());
  EXPECT_TRUE(net.node(3).neighbors().empty());
}

TEST(Network, HelloCarriesPublicKey) {
  Fixture f({{0, 0}, {100, 0}});
  f.simulator.run_until(3.0);
  ASSERT_FALSE(f.net->node(0).neighbors().empty());
  EXPECT_EQ(f.net->node(0).neighbors()[0].pubkey,
            &f.net->node(1).public_key());
}

TEST(Network, UnicastDeliversToHandlerInRange) {
  Fixture f({{0, 0}, {100, 0}});
  Recorder rec;
  f.net->attach_handler(1, &rec);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.size_bytes = 512;
  pkt.flow = 3;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt);
  f.simulator.run_until(1.0);
  ASSERT_EQ(rec.received.size(), 1u);
  EXPECT_EQ(rec.received[0].first, 1u);
  EXPECT_EQ(rec.received[0].second.flow, 3u);
  EXPECT_EQ(rec.received[0].second.prev_hop, 0u);
}

TEST(Network, UnicastOutOfRangeDropsWithReason) {
  Fixture f({{0, 0}, {900, 0}});
  Recorder rec;
  CountingListener listener;
  f.net->attach_handler(1, &rec);
  f.net->add_listener(&listener);
  Packet pkt;
  pkt.size_bytes = 512;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt);
  f.simulator.run_until(1.0);
  EXPECT_TRUE(rec.received.empty());
  EXPECT_EQ(listener.drops, 1);
  EXPECT_EQ(listener.last_reason, DropReason::OutOfRange);
}

TEST(Network, UnicastToUnknownPseudonymDrops) {
  Fixture f({{0, 0}});
  CountingListener listener;
  f.net->add_listener(&listener);
  Packet pkt;
  pkt.size_bytes = 64;
  f.net->unicast(f.net->node(0), 0xBEEF, pkt);
  f.simulator.run_until(1.0);
  EXPECT_EQ(listener.drops, 1);
}

TEST(Network, BroadcastReachesAllInRangeExceptSender) {
  Fixture f({{0, 0}, {100, 0}, {200, 0}, {600, 0}});
  Recorder r1, r2, r3;
  f.net->attach_handler(1, &r1);
  f.net->attach_handler(2, &r2);
  f.net->attach_handler(3, &r3);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.size_bytes = 128;
  f.net->broadcast(f.net->node(0), pkt);
  f.simulator.run_until(1.0);
  EXPECT_EQ(r1.received.size(), 1u);
  EXPECT_EQ(r2.received.size(), 1u);
  EXPECT_TRUE(r3.received.empty());  // 600 m away
}

TEST(Network, TransmissionTimeScalesWithSize) {
  Fixture f({{0, 0}, {100, 0}});
  Recorder rec;
  f.net->attach_handler(1, &rec);
  Packet small, large;
  small.size_bytes = 64;
  large.size_bytes = 2048;
  // Send both from the same node; MAC serializes them.
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), small);
  const double t_small = f.net->node(0).mac_busy_until;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), large);
  const double t_large = f.net->node(0).mac_busy_until;
  EXPECT_GT(t_large - t_small, (2048.0 - 64.0) * 8.0 / 2e6 * 0.9);
  f.simulator.run_until(1.0);
  EXPECT_EQ(rec.received.size(), 2u);
}

TEST(Network, ProcessingDelayDefersTransmission) {
  Fixture f({{0, 0}, {100, 0}});
  Recorder rec;
  f.net->attach_handler(1, &rec);
  Packet pkt;
  pkt.size_bytes = 64;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt, 0.25);
  f.simulator.run_until(0.2);
  EXPECT_TRUE(rec.received.empty());
  f.simulator.run_until(1.0);
  EXPECT_EQ(rec.received.size(), 1u);
}

TEST(Network, ListenersSeeTransmitAndDeliver) {
  Fixture f({{0, 0}, {100, 0}});
  CountingListener listener;
  Recorder rec;
  f.net->add_listener(&listener);
  f.net->attach_handler(1, &rec);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.size_bytes = 64;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt);
  f.simulator.run_until(1.0);
  EXPECT_EQ(listener.transmits, 1);
  EXPECT_EQ(listener.delivers, 1);
}

TEST(Network, HelloCountAccumulates) {
  Fixture f({{0, 0}, {100, 0}});
  f.simulator.run_until(5.0);
  // Two nodes beaconing every second for 5 s, phases in [0,1).
  EXPECT_GE(f.net->hello_count(), 8u);
  EXPECT_LE(f.net->hello_count(), 12u);
}

TEST(Network, MovingReceiverEscapesUnicast) {
  // Receiver starts in range but moves out before frame delivery when the
  // sender is busy long enough.
  NetworkConfig cfg;
  cfg.node_count = 2;
  cfg.radio_range_m = 100.0;
  sim::Simulator simulator;
  Network net(simulator, cfg,
              std::make_unique<StaticPlacement>(
                  std::vector<util::Vec2>{{0, 0}, {99, 0}}),
              util::Rng(5), 1000.0);
  // Teleport-like fast motion: the receiver races away at 1 km/s.
  net.node(1).set_motion({99, 0}, 0.0, {1000.0, 0.0}, 10.0);
  CountingListener listener;
  net.add_listener(&listener);
  Packet pkt;
  pkt.size_bytes = 512;
  net.unicast(net.node(0), net.node(1).pseudonym(), pkt, /*delay=*/0.05);
  simulator.run_until(1.0);
  EXPECT_EQ(listener.drops, 1);
  EXPECT_EQ(listener.last_reason, DropReason::OutOfRange);
}

TEST(Network, PseudonymResolutionMatchesFullScan) {
  // Pins the hash-map fast path of resolve_pseudonym to the obvious O(N)
  // definition — for every node's current pseudonym, before and after
  // rotations (which retire the old mapping into the grace registry).
  sim::Simulator simulator;
  NetworkConfig cfg;
  cfg.node_count = 40;
  Network net(simulator, cfg, std::make_unique<StaticPlacement>(cfg.field),
              util::Rng(21), 1000.0);
  const auto check_all = [&net] {
    for (NodeId id = 0; id < net.size(); ++id) {
      const Pseudonym p = net.node(id).pseudonym();
      NodeId scanned = kInvalidNode;
      for (NodeId j = 0; j < net.size(); ++j) {
        if (net.node(j).pseudonym() == p) {
          scanned = j;
          break;
        }
      }
      ASSERT_EQ(scanned, id);
      EXPECT_EQ(net.resolve_pseudonym(p), id);
    }
  };
  check_all();
  std::vector<Pseudonym> old;
  for (NodeId id = 0; id < net.size(); ++id) {
    old.push_back(net.node(id).pseudonym());
    net.rotate_pseudonym(net.node(id));
  }
  check_all();
  // Retired pseudonyms still resolve (grace period for in-flight frames).
  for (NodeId id = 0; id < net.size(); ++id) {
    EXPECT_EQ(net.resolve_pseudonym(old[id]), id);
  }
  EXPECT_EQ(net.resolve_pseudonym(0xFFFFFFFFDEADULL), kInvalidNode);
}

/// Brute-force oracle: every node within `radius` of `center` at `t`,
/// ascending — the linear scan the neighbour index replaced.
std::vector<NodeId> scan_within(const Network& net, util::Vec2 center,
                                double radius, sim::Time t) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (util::distance_sq(net.node(id).position(t), center) <=
        radius * radius) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(Network, GridNeighbourQueriesMatchLinearScan) {
  // nodes_within must equal the scan exactly at arbitrary times mid-flight,
  // on the paper's field (one cell) and on a field wide enough for
  // range-sized cells.
  for (const double side : {1000.0, 2500.0}) {
    NetworkConfig cfg;
    cfg.field = util::Rect{0.0, 0.0, side, side};
    cfg.node_count = 120;
    sim::Simulator simulator;
    Network net(simulator, cfg,
                std::make_unique<RandomWaypoint>(cfg.field, 20.0),
                util::Rng(77), /*horizon=*/50.0);
    EXPECT_EQ(net.neighbour_index().cols(), side == 1000.0 ? 1u : 10u);
    util::Rng centers(123);
    for (double t = 0.0; t <= 40.0; t += 5.0) {
      simulator.run_until(t);
      for (int q = 0; q < 20; ++q) {
        const util::Vec2 c = centers.point_in(cfg.field);
        const double r = centers.uniform(50.0, 400.0);
        EXPECT_EQ(net.nodes_within(c, r, t), scan_within(net, c, r, t))
            << "side=" << side << " t=" << t;
      }
    }
  }
}

TEST(Network, NeighbourIndexLayoutFollowsFieldAndRange) {
  // The paper's 1000 m field at 250 m range is one cell; the 10k-node
  // paper-density arena (7071 m side) gets range-sized cells.
  auto layout = [](double side) {
    NetworkConfig cfg;
    cfg.field = util::Rect{0.0, 0.0, side, side};
    cfg.node_count = 4;
    sim::Simulator simulator;
    const Network net(simulator, cfg,
                      std::make_unique<StaticPlacement>(cfg.field),
                      util::Rng(5), /*horizon=*/0.0);
    return std::make_pair(net.neighbour_index().cols(),
                          net.neighbour_index().rows());
  };
  EXPECT_EQ(layout(1000.0), std::make_pair(1u, 1u));
  EXPECT_EQ(layout(7071.0), std::make_pair(29u, 29u));
}

}  // namespace
}  // namespace alert::net
