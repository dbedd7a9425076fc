#include "net/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace alert::net {
namespace {

Node make_node(NodeId id = 0) {
  util::Rng rng(id + 1);
  return Node(id, 0x020000000000ULL + id, crypto::generate_keypair(rng));
}

TEST(Node, IdentityAccessors) {
  const Node n = make_node(7);
  EXPECT_EQ(n.id(), 7u);
  EXPECT_EQ(n.mac_address(), 0x020000000007ULL);
  EXPECT_EQ(n.public_key().n, n.private_key().n);
}

TEST(Node, PositionInterpolatesAlongSegment) {
  Node n = make_node();
  n.set_motion({0.0, 0.0}, 0.0, {1.0, 2.0}, 10.0);
  EXPECT_EQ(n.position(0.0), util::Vec2(0.0, 0.0));
  EXPECT_EQ(n.position(3.0), util::Vec2(3.0, 6.0));
  EXPECT_EQ(n.position(10.0), util::Vec2(10.0, 20.0));
}

TEST(Node, PositionHoldsAfterSegmentEnd) {
  Node n = make_node();
  n.set_motion({0.0, 0.0}, 0.0, {1.0, 0.0}, 5.0);
  EXPECT_EQ(n.position(100.0), util::Vec2(5.0, 0.0));
}

TEST(Node, PositionClampedBeforeSegmentStart) {
  Node n = make_node();
  n.set_motion({2.0, 2.0}, 5.0, {1.0, 0.0}, 10.0);
  EXPECT_EQ(n.position(0.0), util::Vec2(2.0, 2.0));
}

TEST(Node, ObserveNeighborInsertsAndUpdates) {
  Node n = make_node();
  NeighborInfo info{111, {5.0, 5.0}, {}, 0.0};
  n.observe_neighbor(info, 1.0);
  ASSERT_EQ(n.neighbors().size(), 1u);
  EXPECT_EQ(n.neighbors()[0].last_heard, 1.0);

  info.position = {6.0, 6.0};
  n.observe_neighbor(info, 2.0);
  ASSERT_EQ(n.neighbors().size(), 1u);  // updated, not duplicated
  EXPECT_EQ(n.neighbors()[0].position, util::Vec2(6.0, 6.0));
  EXPECT_EQ(n.neighbors()[0].last_heard, 2.0);
}

TEST(Node, ExpireNeighborsDropsStaleEntries) {
  Node n = make_node();
  n.observe_neighbor({1, {0, 0}, {}, 0.0}, 0.0);
  n.observe_neighbor({2, {0, 0}, {}, 0.0}, 2.0);
  n.expire_neighbors(2.4, 2.5);
  ASSERT_EQ(n.neighbors().size(), 2u);
  n.expire_neighbors(4.0, 2.5);
  ASSERT_EQ(n.neighbors().size(), 1u);
  EXPECT_EQ(n.neighbors()[0].pseudonym, 2u);
}

/// The eager neighbour table Node kept before it had a pseudonym index and
/// an expiry bound: a linear search on every hello and a full sweep on
/// every expiry call. Node must hold exactly what this holds, in the same
/// order, after every operation.
class EagerTable {
 public:
  void observe(const NeighborInfo& info, sim::Time now) {
    for (auto& n : entries_) {
      if (n.pseudonym == info.pseudonym) {
        n = info;
        n.last_heard = now;
        return;
      }
    }
    NeighborInfo entry = info;
    entry.last_heard = now;
    entries_.push_back(entry);
  }
  void expire(sim::Time now, double max_age) {
    std::erase_if(entries_, [now, max_age](const NeighborInfo& n) {
      return now - n.last_heard > max_age;
    });
  }
  void remove(Pseudonym p) {
    std::erase_if(entries_,
                  [p](const NeighborInfo& n) { return n.pseudonym == p; });
  }
  void clear() { entries_.clear(); }
  [[nodiscard]] const std::vector<NeighborInfo>& entries() const {
    return entries_;
  }

 private:
  std::vector<NeighborInfo> entries_;
};

void expect_same_table(const Node& node, const EagerTable& ref,
                       std::uint64_t seed, int step) {
  const std::vector<NeighborInfo>& got = node.neighbors();
  const std::vector<NeighborInfo>& want = ref.entries();
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].pseudonym, want[i].pseudonym)
        << "seed " << seed << " step " << step << " entry " << i;
    ASSERT_EQ(got[i].position, want[i].position);
    ASSERT_EQ(got[i].pubkey, want[i].pubkey);
    ASSERT_EQ(got[i].last_heard, want[i].last_heard);
  }
}

TEST(NeighbourTable, MatchesEagerReference) {
  // Times are multiples of 0.25 s, so `now - last_heard` is exact and often
  // lands on max_age itself, the boundary where an entry must survive.
  constexpr double kMaxAge = 2.5;
  const std::array<crypto::PublicKey, 3> keys{};
  std::uint64_t reheard_after_expiry = 0;
  std::uint64_t entries_at_max_age = 0;
  std::size_t largest_table = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    // Small pools churn (re-sightings, expiry, removal); large ones grow
    // the table far past the index's first size.
    const std::size_t pool_size = seed % 3 == 0 ? 300 : 40;
    std::vector<Pseudonym> pool(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool[i] = i % 2 == 0 ? i : rng.next();  // includes pseudonym 0
    }
    const double advance_p = 4.0 / static_cast<double>(pool_size);

    Node node = make_node();
    EagerTable ref;
    std::vector<Pseudonym> expired;  // removed by an expiry, not re-heard
    double now = 0.0;
    auto expire = [&] {
      for (const NeighborInfo& n : ref.entries()) {
        if (now - n.last_heard == kMaxAge) ++entries_at_max_age;
        if (now - n.last_heard > kMaxAge) expired.push_back(n.pseudonym);
      }
      node.expire_neighbors(now, kMaxAge);
      ref.expire(now, kMaxAge);
    };
    for (int step = 0; step < 3000; ++step) {
      if (rng.bernoulli(advance_p)) {
        now += 0.25 * static_cast<double>(rng.between(1, 4));
      }
      const double op = rng.uniform();
      const Pseudonym p = pool[rng.below(pool_size)];
      if (op < 0.75) {
        const NeighborInfo info{p, rng.point_in({0.0, 0.0, 1000.0, 1000.0}),
                                &keys[rng.below(keys.size())],
                                -1.0};  // observe stamps `now` over this
        const auto was = std::find(expired.begin(), expired.end(), p);
        if (was != expired.end()) {
          ++reheard_after_expiry;
          expired.erase(was);
        }
        node.observe_neighbor(info, now);
        ref.observe(info, now);
        if (rng.bernoulli(0.7)) expire();  // as Network does per hello
      } else if (op < 0.9) {
        expire();
      } else if (op < 0.998) {
        node.remove_neighbor(p);
        ref.remove(p);
      } else {
        node.set_alive(false);
        node.set_alive(true);
        ref.clear();
      }
      largest_table = std::max(largest_table, ref.entries().size());
      expect_same_table(node, ref, seed, step);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(reheard_after_expiry, 0u);
  EXPECT_GT(entries_at_max_age, 0u);
  EXPECT_GE(largest_table, 100u);
}

TEST(NeighbourTable, StaysExactPastTheSlotTagRange) {
  // Index slots hold positions modulo 65535: past that many entries two
  // entries share a tag, and lookups must still find the right one.
  constexpr std::size_t kEntries = 70'000;
  constexpr std::size_t kTwin = 65'535 + 3;  // shares entry 3's tag
  Node n = make_node();
  for (std::size_t i = 0; i < kEntries; ++i) {
    n.observe_neighbor({1000 + i, {0, 0}, nullptr, 0.0}, 0.0);
  }
  n.observe_neighbor({1000 + 3, {1, 1}, nullptr, 0.0}, 1.0);
  n.observe_neighbor({1000 + kTwin, {2, 2}, nullptr, 0.0}, 1.0);
  ASSERT_EQ(n.neighbors().size(), kEntries);
  EXPECT_EQ(n.neighbors()[3].position, util::Vec2(1, 1));
  EXPECT_EQ(n.neighbors()[kTwin].position, util::Vec2(2, 2));

  n.remove_neighbor(1000 + kTwin);
  ASSERT_EQ(n.neighbors().size(), kEntries - 1);
  EXPECT_EQ(n.neighbors()[kTwin].pseudonym, 1000 + kTwin + 1);
  n.observe_neighbor({1000 + kEntries - 1, {3, 3}, nullptr, 0.0}, 2.0);
  n.observe_neighbor({1000 + kTwin, {4, 4}, nullptr, 0.0}, 2.0);
  ASSERT_EQ(n.neighbors().size(), kEntries);
  EXPECT_EQ(n.neighbors()[kEntries - 2].position, util::Vec2(3, 3));
  EXPECT_EQ(n.neighbors().back().pseudonym, 1000 + kTwin);

  n.expire_neighbors(3.0, 1.5);  // all but the two heard at 2.0
  ASSERT_EQ(n.neighbors().size(), 2u);
  n.observe_neighbor({1000 + kTwin, {5, 5}, nullptr, 0.0}, 3.0);
  ASSERT_EQ(n.neighbors().size(), 2u);
  EXPECT_EQ(n.neighbors()[1].position, util::Vec2(5, 5));
}

}  // namespace
}  // namespace alert::net
