#include <gtest/gtest.h>

#include <memory>

#include "attack/intersection_attack.hpp"
#include "attack/observer.hpp"
#include "attack/route_tracer.hpp"
#include "attack/timing_attack.hpp"
#include "attack/zone_residency.hpp"
#include "net/mobility.hpp"
#include "routing/alert_router.hpp"  // alert-lint: allow(module-layering) test traces live routes of the real routers
#include "routing/gpsr.hpp"  // alert-lint: allow(module-layering) test traces live routes of the real routers
#include "routing/protocol_fixture.hpp"  // alert-lint: allow(module-layering) shared router fixture for the live-route test
#include "sim/simulator.hpp"  // alert-lint: allow(module-layering) test drives the adversary against a live simulator

namespace alert::attack {
namespace {

ObservedEvent tx(double t, net::NodeId node, std::uint64_t uid,
                 std::uint32_t flow, std::uint32_t seq,
                 net::NodeId src = 0, net::NodeId dst = 9) {
  ObservedEvent e;
  e.kind = EventKind::Transmit;
  e.time = t;
  e.node = node;
  e.packet_kind = net::PacketKind::Data;
  e.uid = uid;
  e.flow = flow;
  e.seq = seq;
  e.true_source = src;
  e.true_dest = dst;
  return e;
}

ObservedEvent rx(double t, net::NodeId node, std::uint64_t uid,
                 std::uint32_t flow, std::uint32_t seq, bool zone = false,
                 net::NodeId src = 0, net::NodeId dst = 9) {
  ObservedEvent e = tx(t, node, uid, flow, seq, src, dst);
  e.kind = EventKind::Receive;
  e.zone_broadcast = zone;
  e.in_dest_zone = zone;
  return e;
}

// --- RouteTracer -------------------------------------------------------

TEST(RouteTracer, IdenticalRoutesHaveFullOverlap) {
  std::vector<ObservedEvent> ev;
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    for (net::NodeId n : {0u, 1u, 2u}) {
      ev.push_back(tx(seq * 2.0, n, seq + 1, 0, seq));
    }
  }
  const auto r = trace_routes(ev);
  EXPECT_DOUBLE_EQ(r.mean_consecutive_overlap, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_participating_nodes, 3.0);
}

TEST(RouteTracer, DisjointRoutesHaveZeroOverlap) {
  std::vector<ObservedEvent> ev;
  ev.push_back(tx(0.0, 0, 1, 0, 0));
  ev.push_back(tx(0.1, 1, 1, 0, 0));
  ev.push_back(tx(2.0, 2, 2, 0, 1));
  ev.push_back(tx(2.1, 3, 2, 0, 1));
  const auto r = trace_routes(ev);
  EXPECT_DOUBLE_EQ(r.mean_consecutive_overlap, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_participating_nodes, 4.0);
}

TEST(RouteTracer, CumulativeParticipantsGrow) {
  std::vector<ObservedEvent> ev;
  ev.push_back(tx(0.0, 0, 1, 0, 0));
  ev.push_back(tx(2.0, 0, 2, 0, 1));
  ev.push_back(tx(2.1, 5, 2, 0, 1));
  const auto r = trace_routes(ev);
  ASSERT_EQ(r.cumulative_participants_by_packet.size(), 2u);
  EXPECT_DOUBLE_EQ(r.cumulative_participants_by_packet[0], 1.0);
  EXPECT_DOUBLE_EQ(r.cumulative_participants_by_packet[1], 2.0);
}

TEST(RouteTracer, IgnoresNonDataTraffic) {
  std::vector<ObservedEvent> ev;
  ev.push_back(tx(0.0, 0, 1, 0, 0));
  ObservedEvent cover = tx(0.0, 7, 2, 0, 0);
  cover.packet_kind = net::PacketKind::Cover;
  ev.push_back(cover);
  const auto r = trace_routes(ev);
  EXPECT_DOUBLE_EQ(r.mean_participating_nodes, 1.0);
}

TEST(RouteTracer, EmptyLogYieldsZeros) {
  const auto r = trace_routes({});
  EXPECT_DOUBLE_EQ(r.mean_participating_nodes, 0.0);
  EXPECT_TRUE(r.cumulative_participants_by_packet.empty());
}

// --- RouteTraceReducer ------------------------------------------------

/// Runs a tiny mobile scenario with both the online reducer and the full
/// observer log attached: the reducer must reproduce, field for field, what
/// trace_routes() computes over the log.
void expect_reducer_matches_log(bool alert) {
  routing::testing::ProtocolFixture f(40, 4.0, 40.0,
                                      {0.0, 0.0, 600.0, 600.0});
  RouteTraceReducer reducer;
  PassiveObserver observer(*f.network);
  f.network->add_listener(&reducer);
  f.network->add_listener(&observer);
  std::unique_ptr<routing::Protocol> router;
  if (alert) {
    router = std::make_unique<routing::AlertRouter>(*f.network, *f.location,
                                                    routing::AlertConfig{});
  } else {
    router = std::make_unique<routing::GpsrRouter>(*f.network, *f.location,
                                                   routing::GpsrConfig{});
  }
  f.warm_up();
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    f.simulator.schedule_at(4.0 + 3.0 * seq, [&router, seq] {
      router->send(0, 39, 256, 0, seq);
      router->send(7, 21, 256, 1, seq);
    });
  }
  f.simulator.run_until(40.0);

  const RouteTraceResult live = reducer.result();
  const RouteTraceResult replayed = trace_routes(observer.events());
  ASSERT_GT(live.mean_participating_nodes, 0.0);
  EXPECT_EQ(live.mean_consecutive_overlap, replayed.mean_consecutive_overlap);
  EXPECT_EQ(live.mean_participating_nodes, replayed.mean_participating_nodes);
  EXPECT_EQ(live.cumulative_participants_by_packet,
            replayed.cumulative_participants_by_packet);
  EXPECT_EQ(reducer.transmitters(), transmitters_by_flow(observer.events()));
}

TEST(RouteTraceReducer, MatchesLoggedAlertRoutes) {
  expect_reducer_matches_log(/*alert=*/true);
}

TEST(RouteTraceReducer, MatchesLoggedGpsrRoutes) {
  expect_reducer_matches_log(/*alert=*/false);
}

// --- TimingAttack ------------------------------------------------------

TEST(TimingAttack, IdentifiesFixedPatternPair) {
  // GPSR-like flow: node 0 always originates, node 9 always terminally
  // receives with a constant delay.
  std::vector<ObservedEvent> ev;
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    const double t = 2.0 * seq;
    ev.push_back(tx(t, 0, seq + 1, 0, seq));
    ev.push_back(tx(t + 0.002, 4, seq + 1, 0, seq));  // relay
    ev.push_back(rx(t + 0.002, 4, seq + 1, 0, seq));
    ev.push_back(rx(t + 0.005, 9, seq + 1, 0, seq));
  }
  const auto r = timing_attack(ev);
  ASSERT_EQ(r.guesses.size(), 1u);
  EXPECT_TRUE(r.guesses[0].source_correct);
  EXPECT_TRUE(r.guesses[0].dest_correct);
  EXPECT_DOUBLE_EQ(r.source_identification_rate(), 1.0);
  EXPECT_DOUBLE_EQ(r.pair_identification_rate(), 1.0);
  EXPECT_LT(r.guesses[0].delay_stddev_s, 1e-9);
}

TEST(TimingAttack, CoverTrafficConfusesOrigin) {
  // Every packet origination is accompanied by simultaneous cover
  // transmissions from lower-id neighbours: the attacker's tie-break picks
  // a cover node, not the true source (node 5).
  std::vector<ObservedEvent> ev;
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    const double t = 2.0 * seq;
    ev.push_back(tx(t + 0.003, 5, seq + 1, 0, seq, /*src=*/5));
    for (net::NodeId c : {1u, 2u, 3u}) {
      ObservedEvent cover = tx(t, c, 0, 0, 0, 5);
      cover.packet_kind = net::PacketKind::Cover;
      ev.push_back(cover);
    }
    ev.push_back(rx(t + 0.01, 9, seq + 1, 0, seq, false, 5));
  }
  const auto r = timing_attack(ev);
  ASSERT_EQ(r.guesses.size(), 1u);
  EXPECT_FALSE(r.guesses[0].source_correct);
}

TEST(TimingAttack, ZoneBroadcastHidesDestinationAmongK) {
  // Each packet terminates in a k=4 receiver set; the attacker's pick is
  // ambiguous and (tie-break by id) wrong for a high-id destination.
  std::vector<ObservedEvent> ev;
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    const double t = 2.0 * seq;
    ev.push_back(tx(t, 0, seq + 1, 0, seq));
    for (net::NodeId k : {6u, 7u, 8u, 9u}) {
      ev.push_back(rx(t + 0.01, k, seq + 1, 0, seq, true));
    }
  }
  const auto r = timing_attack(ev);
  ASSERT_EQ(r.guesses.size(), 1u);
  EXPECT_FALSE(r.guesses[0].dest_correct);  // picked 6, true dest 9
}

TEST(TimingAttack, EmptyLogNoGuesses) {
  const auto r = timing_attack({});
  EXPECT_TRUE(r.guesses.empty());
  EXPECT_DOUBLE_EQ(r.source_identification_rate(), 0.0);
}

// --- IntersectionAttack ------------------------------------------------

TEST(IntersectionAttack, PinsDestinationPresentInEverySet) {
  std::vector<ObservedEvent> ev;
  // D = 9 receives every broadcast; camouflage nodes churn.
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    ev.push_back(rx(2.0 * seq, 9, seq + 1, 0, seq, true));
    ev.push_back(rx(2.0 * seq, 10 + seq, seq + 1, 0, seq, true));
  }
  const auto r = intersection_attack(ev);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_TRUE(r.flows[0].identified);
  EXPECT_EQ(r.flows[0].candidates, std::set<net::NodeId>{9u});
  EXPECT_DOUBLE_EQ(r.identification_rate(), 1.0);
  EXPECT_DOUBLE_EQ(r.mean_success_probability(), 1.0);
  EXPECT_TRUE(r.flows[0].frequency_correct);
  // The candidate-count curve shrinks monotonically.
  for (std::size_t i = 1; i < r.flows[0].candidate_counts.size(); ++i) {
    EXPECT_LE(r.flows[0].candidate_counts[i],
              r.flows[0].candidate_counts[i - 1]);
  }
}

TEST(IntersectionAttack, CountermeasureExpelsDestination) {
  // With the m-of-k multicast D misses half the first-step sets; strict
  // intersection loses D and the frequency attack sees a uniform field.
  std::vector<ObservedEvent> ev;
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    ObservedEvent e = rx(2.0 * seq, 9, seq + 1, 0, seq, true);
    e.addressed = (seq % 2 == 0);  // D addressed only half the time
    ev.push_back(e);
    // Two stable camouflage holders addressed in alternating halves.
    ObservedEvent c1 = rx(2.0 * seq, 4, seq + 1, 0, seq, true);
    c1.addressed = (seq % 2 == 1);
    ev.push_back(c1);
    ObservedEvent c2 = rx(2.0 * seq, 5, seq + 1, 0, seq, true);
    ev.push_back(c2);
  }
  const auto r = intersection_attack(ev);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_FALSE(r.flows[0].identified);
  EXPECT_FALSE(r.flows[0].dest_in_candidates);
  EXPECT_FALSE(r.flows[0].frequency_correct);  // node 5 outranks D
}

TEST(IntersectionAttack, SecondStepBroadcastsExcluded) {
  std::vector<ObservedEvent> ev;
  ObservedEvent e = rx(0.0, 9, 1, 0, 0, true);
  e.second_step = true;
  ev.push_back(e);
  const auto r = intersection_attack(ev);
  EXPECT_TRUE(r.flows.empty());
}

TEST(IntersectionAttack, OutOfZoneReceiversExcluded) {
  std::vector<ObservedEvent> ev;
  ObservedEvent in = rx(0.0, 9, 1, 0, 0, true);
  ev.push_back(in);
  ObservedEvent out = rx(0.0, 3, 1, 0, 0, true);
  out.in_dest_zone = false;
  ev.push_back(out);
  const auto r = intersection_attack(ev);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_EQ(r.flows[0].candidates, std::set<net::NodeId>{9u});
}

// --- ZoneResidency -----------------------------------------------------

TEST(ZoneResidency, StaticNodesNeverLeave) {
  sim::Simulator simulator;
  net::NetworkConfig cfg;
  cfg.node_count = 20;
  net::Network network(simulator, cfg,
                       std::make_unique<net::StaticPlacement>(
                           util::Rect{0, 0, 1000, 1000}),
                       util::Rng(3), 100.0);
  const util::Rect zone{0.0, 0.0, 500.0, 500.0};
  ZoneResidency res(network, zone);
  EXPECT_EQ(res.remaining_at(0.0), res.initial_count());
  EXPECT_EQ(res.remaining_at(100.0), res.initial_count());
}

TEST(ZoneResidency, MobileNodesDrainOverTime) {
  sim::Simulator simulator;
  net::NetworkConfig cfg;
  cfg.node_count = 100;
  net::Network network(simulator, cfg,
                       std::make_unique<net::RandomWaypoint>(
                           util::Rect{0, 0, 1000, 1000}, 8.0),
                       util::Rng(4), 200.0);
  const util::Rect zone{400.0, 400.0, 600.0, 600.0};
  ZoneResidency res(network, zone);
  if (res.initial_count() == 0) GTEST_SKIP() << "empty zone draw";
  simulator.run_until(150.0);
  EXPECT_LT(res.remaining_at(150.0), res.initial_count());
}

TEST(ZoneResidency, OccupantsTracksCurrentMembership) {
  sim::Simulator simulator;
  net::NetworkConfig cfg;
  cfg.node_count = 10;
  net::Network network(
      simulator, cfg,
      std::make_unique<net::StaticPlacement>(std::vector<util::Vec2>{
          {100, 100}, {150, 150}, {800, 800}, {900, 100},
          {120, 180}, {400, 400}, {100, 900}, {850, 850},
          {170, 120}, {300, 900}}),
      util::Rng(5), 100.0);
  const util::Rect zone{0.0, 0.0, 200.0, 200.0};
  ZoneResidency res(network, zone);
  EXPECT_EQ(res.initial_count(), 4u);
  EXPECT_EQ(res.occupants_at(0.0).size(), 4u);
}

}  // namespace
}  // namespace alert::attack
