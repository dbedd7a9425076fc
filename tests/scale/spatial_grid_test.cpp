#include "scale/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace alert::scale {
namespace {

constexpr util::Rect kField{0.0, 0.0, 1000.0, 1000.0};

/// Brute-force reference: ids whose position is within radius, ascending.
std::vector<std::uint32_t> scan_disc(const std::vector<util::Vec2>& pos,
                                     util::Vec2 center, double radius) {
  std::vector<std::uint32_t> out;
  const double r_sq = radius * radius;
  for (std::uint32_t id = 0; id < pos.size(); ++id) {
    if (util::distance_sq(pos[id], center) <= r_sq) out.push_back(id);
  }
  return out;
}

std::vector<std::uint32_t> grid_disc(const SpatialGrid& grid,
                                     const std::vector<util::Vec2>& pos,
                                     util::Vec2 center, double radius) {
  std::vector<std::uint32_t> out;
  grid.collect_in_disc(
      center, radius, [&pos](std::uint32_t id) { return pos[id]; },
      [&out](std::uint32_t id) { out.push_back(id); });
  return out;
}

/// Whether every cell's id list is strictly ascending.
bool cells_ascending(const SpatialGrid& grid) {
  for (std::uint32_t row = 0; row < grid.rows(); ++row) {
    for (std::uint32_t col = 0; col < grid.cols(); ++col) {
      const std::vector<std::uint32_t>& ids = grid.ids_in_cell(col, row);
      if (std::adjacent_find(ids.begin(), ids.end(),
                             std::greater_equal<>()) != ids.end()) {
        return false;
      }
    }
  }
  return true;
}

TEST(SpatialGrid, DimensionsCoverField) {
  const SpatialGrid grid(kField, 250.0, 8);
  EXPECT_EQ(grid.cols(), 4u);
  EXPECT_EQ(grid.rows(), 4u);
}

TEST(SpatialGrid, PointQueryMatchesScan) {
  util::Rng rng(7);
  std::vector<util::Vec2> pos;
  SpatialGrid grid(kField, 250.0, 200);
  for (std::uint32_t id = 0; id < 200; ++id) {
    pos.push_back(rng.point_in(kField));
    grid.update(id, pos.back(), pos.back());
  }
  for (int q = 0; q < 100; ++q) {
    const util::Vec2 center = rng.point_in(kField);
    EXPECT_EQ(grid_disc(grid, pos, center, 250.0),
              scan_disc(pos, center, 250.0));
  }
}

TEST(SpatialGrid, CountAgreesWithCollect) {
  util::Rng rng(8);
  std::vector<util::Vec2> pos;
  SpatialGrid grid(kField, 250.0, 100);
  for (std::uint32_t id = 0; id < 100; ++id) {
    pos.push_back(rng.point_in(kField));
    grid.update(id, pos.back(), pos.back());
  }
  for (int q = 0; q < 50; ++q) {
    const util::Vec2 center = rng.point_in(kField);
    const auto fn = [&pos](std::uint32_t id) { return pos[id]; };
    EXPECT_EQ(grid.count_in_disc(center, 250.0, fn),
              grid_disc(grid, pos, center, 250.0).size());
  }
}

TEST(SpatialGrid, SegmentCoverageFindsEveryInterpolatedPosition) {
  // A moving id must be findable at every time within its segment: sample
  // the interpolation densely and query a tight disc around each sample.
  util::Rng rng(9);
  SpatialGrid grid(kField, 250.0, 1);
  for (int trial = 0; trial < 50; ++trial) {
    const util::Vec2 a = rng.point_in(kField);
    const util::Vec2 b = rng.point_in(kField);
    grid.update(0, a, b);
    for (int s = 0; s <= 20; ++s) {
      const double t = static_cast<double>(s) / 20.0;
      const util::Vec2 p{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
      const std::vector<util::Vec2> pos{p};
      EXPECT_EQ(grid_disc(grid, pos, p, 1.0), std::vector<std::uint32_t>{0})
          << "trial " << trial << " s " << s;
    }
  }
}

TEST(SpatialGrid, UpdateReplacesCoverage) {
  SpatialGrid grid(kField, 250.0, 1);
  grid.update(0, {10.0, 10.0}, {990.0, 990.0});  // long diagonal: many cells
  const std::size_t long_cover = grid.coverage(0);
  EXPECT_GT(long_cover, 3u);
  grid.update(0, {10.0, 10.0}, {10.0, 10.0});  // shrink to a point
  EXPECT_LE(grid.coverage(0), 2u);  // corner points may pad to a neighbour
  const std::vector<util::Vec2> pos{{500.0, 500.0}};
  EXPECT_TRUE(grid_disc(grid, pos, {500.0, 500.0}, 10.0).empty())
      << "stale coverage from the previous segment survived update()";
}

TEST(SpatialGrid, RemoveDropsId) {
  SpatialGrid grid(kField, 250.0, 2);
  grid.update(0, {100.0, 100.0}, {100.0, 100.0});
  grid.update(1, {100.0, 100.0}, {100.0, 100.0});
  grid.remove(0);
  const std::vector<util::Vec2> pos{{100.0, 100.0}, {100.0, 100.0}};
  EXPECT_EQ(grid_disc(grid, pos, {100.0, 100.0}, 50.0),
            std::vector<std::uint32_t>{1});
  EXPECT_EQ(grid.coverage(0), 0u);
}

TEST(SpatialGrid, OutOfFieldPositionsAreClamped) {
  SpatialGrid grid(kField, 250.0, 1);
  grid.update(0, {-50.0, 1500.0}, {-50.0, 1500.0});
  const std::vector<util::Vec2> pos{{0.0, 1000.0}};
  EXPECT_EQ(grid_disc(grid, pos, {0.0, 1000.0}, 1.0),
            std::vector<std::uint32_t>{0});
}

TEST(SpatialGrid, MovingIdsMatchScanAtInterpolatedTimes) {
  // The Network usage pattern: segments indexed once, queried at arbitrary
  // intermediate times with interpolated positions.
  util::Rng rng(11);
  const std::uint32_t n = 150;
  std::vector<util::Vec2> from;
  std::vector<util::Vec2> to;
  SpatialGrid grid(kField, 250.0, n);
  for (std::uint32_t id = 0; id < n; ++id) {
    from.push_back(rng.point_in(kField));
    to.push_back(rng.point_in(kField));
    grid.update(id, from[id], to[id]);
  }
  for (int q = 0; q < 60; ++q) {
    const double t = rng.uniform(0.0, 1.0);
    std::vector<util::Vec2> pos;
    for (std::uint32_t id = 0; id < n; ++id) {
      pos.push_back({from[id].x + (to[id].x - from[id].x) * t,
                     from[id].y + (to[id].y - from[id].y) * t});
    }
    const util::Vec2 center = rng.point_in(kField);
    const double radius = rng.uniform(50.0, 400.0);
    EXPECT_EQ(grid_disc(grid, pos, center, radius),
              scan_disc(pos, center, radius));
  }
}

TEST(SpatialGrid, CellListsStayAscendingThroughUpdateAndRemove) {
  // Ids are indexed in a scrambled order and move, shrink and leave; every
  // cell must keep its list ascending so one-cell queries need no sort.
  util::Rng rng(12);
  const std::uint32_t n = 120;
  SpatialGrid grid(kField, 250.0, n);
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = (i * 37) % n;
  for (const std::uint32_t id : order) {
    grid.update(id, rng.point_in(kField), rng.point_in(kField));
  }
  EXPECT_TRUE(cells_ascending(grid));
  for (int round = 0; round < 200; ++round) {
    const auto id = static_cast<std::uint32_t>(rng.below(n));
    if (round % 5 == 0) {
      grid.remove(id);
    } else {
      const util::Vec2 a = rng.point_in(kField);
      grid.update(id, a, round % 3 == 0 ? a : rng.point_in(kField));
    }
    ASSERT_TRUE(cells_ascending(grid)) << "round " << round;
  }
}

TEST(SpatialGrid, NarrowFieldsGetOneCell) {
  const double edge = SpatialGrid::kMinRangesAcross * 250.0;
  EXPECT_EQ(SpatialGrid::cell_size_for(kField, 250.0), 1000.0);
  EXPECT_EQ(SpatialGrid::cell_size_for({0.0, 0.0, edge, 10.0}, 250.0),
            250.0);
  const SpatialGrid one(kField, SpatialGrid::cell_size_for(kField, 250.0),
                        1);
  EXPECT_EQ(one.cols(), 1u);
  EXPECT_EQ(one.rows(), 1u);
}

TEST(SpatialGrid, TinyCellSizeIsClamped) {
  // Degenerate cell sizes must not explode the cell table.
  const SpatialGrid grid(kField, 0.0, 1);
  EXPECT_GE(grid.cols(), 1u);
  EXPECT_GE(grid.rows(), 1u);
}

}  // namespace
}  // namespace alert::scale
