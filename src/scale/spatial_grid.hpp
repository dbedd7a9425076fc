#pragma once

/// \file spatial_grid.hpp
/// Uniform-grid spatial index over piecewise-linear node trajectories: the
/// one neighbour index behind Network's range queries.
///
/// Each id covers the supercover (Amanatides–Woo traversal) of its current
/// motion segment, so membership is correct for ANY query time within the
/// segment without per-tick reindexing: the index only changes on mobility
/// waypoint events (Network::schedule_mobility), never on queries. A disc
/// query touches the cells overlapping the disc's bounding box and filters
/// the candidates by exact distance — the `distance_sq(pos, center) <= r*r`
/// predicate of a brute-force scan — and hands the survivors out in
/// ascending id order, so the result equals the scan's element for element
/// and event traces stay bit-identical (docs/SCALE.md, "Determinism
/// argument").
///
/// Every cell keeps its id list ascending. A query that touches one cell
/// therefore reads its matches in order; only a query spanning several
/// cells sorts its (deduplicated) matches. cell_size_for picks the layout:
/// range-sized cells on wide fields, one cell on narrow ones.
///
/// Robustness: a queried position is computed as `start + v * dt`, which can
/// deviate from the ideal segment by a few ulps, so a point near a cell
/// boundary may belong to a cell adjacent to an indexed one. Padding the
/// query box by kQueryEps (far above the fp deviation at any supported
/// field size) guarantees every cell within that distance of a matching
/// position is visited; the exact filter then keeps false positives out.
/// The grid draws no randomness and reads no clocks.
///
/// Query methods take a position callback (id -> Vec2 at the query time) as
/// a template parameter and allocate nothing: the dedup stamps and the sort
/// scratch are sized once in the constructor.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/geometry.hpp"

namespace alert::scale {

class SpatialGrid {
 public:
  /// Padding added to the query box, in metres. Far above position fp error
  /// (~1e-9 m at a 100 km field), far below any meaningful radius.
  static constexpr double kQueryEps = 1e-6;

  /// Fields whose wider side spans fewer radio ranges than this are indexed
  /// as a single cell. Measured crossover (docs/SCALE.md): range-sized
  /// cells are no faster than one cell up to 5 ranges across (the paper's
  /// 1000 m field at 250 m is 4), tie at 6 and win from 8.
  static constexpr double kMinRangesAcross = 6.0;

  /// The cell edge for indexing `field` at radio range `range`: `range`
  /// when the field is at least kMinRangesAcross ranges wide, otherwise
  /// the field's wider side (one cell, which visits every id once in
  /// ascending order).
  [[nodiscard]] static double cell_size_for(util::Rect field, double range);

  /// `field` bounds the indexed area (positions are clamped to it, matching
  /// mobility's invariant that nodes stay in-field); `cell_size` is the
  /// cell edge in metres; ids are dense in [0, max_ids).
  SpatialGrid(util::Rect field, double cell_size, std::uint32_t max_ids);

  /// Replace id's coverage with the supercover of segment [a, b] (positions
  /// at the segment's start and at the earlier of segment end / horizon).
  /// A segment covering the same cells as before leaves the index as is.
  void update(std::uint32_t id, util::Vec2 a, util::Vec2 b);

  /// Drop id from every cell it covers.
  void remove(std::uint32_t id);

  /// Number of ids whose position lies within `radius` of `center` (dead
  /// nodes included — the callers filter liveness downstream).
  template <typename PosFn>
  [[nodiscard]] std::size_t count_in_disc(util::Vec2 center, double radius,
                                          PosFn&& pos) const {
    const double r_sq = radius * radius;
    std::size_t count = 0;
    for_each_candidate(query_box(center, radius), [&](std::uint32_t id) {
      if (util::distance_sq(pos(id), center) <= r_sq) ++count;
    });
    return count;
  }

  /// Call `emit(id)` for every id whose position lies within `radius` of
  /// `center`, in ascending id order.
  template <typename PosFn, typename EmitFn>
  void collect_in_disc(util::Vec2 center, double radius, PosFn&& pos,
                       EmitFn&& emit) const {
    const double r_sq = radius * radius;
    const QueryBox box = query_box(center, radius);
    if (box.cx0 == box.cx1 && box.cy0 == box.cy1) {
      for (const std::uint32_t id : cells_[box.cy0 * cols_ + box.cx0]) {
        if (util::distance_sq(pos(id), center) <= r_sq) emit(id);
      }
      return;
    }
    std::size_t found = 0;
    for_each_candidate(box, [&](std::uint32_t id) {
      if (util::distance_sq(pos(id), center) <= r_sq) matches_[found++] = id;
    });
    std::sort(matches_.begin(),
              matches_.begin() + static_cast<std::ptrdiff_t>(found));
    for (std::size_t i = 0; i < found; ++i) emit(matches_[i]);
  }

  [[nodiscard]] std::uint32_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  /// Cells currently covered by id (diagnostics/tests).
  [[nodiscard]] std::size_t coverage(std::uint32_t id) const {
    return id_cells_[id].size();
  }
  /// Ids indexed in cell `col` x `row`, ascending (diagnostics/tests).
  [[nodiscard]] const std::vector<std::uint32_t>& ids_in_cell(
      std::uint32_t col, std::uint32_t row) const {
    return cells_[row * cols_ + col];
  }

 private:
  struct QueryBox {
    std::uint32_t cx0, cx1, cy0, cy1;
  };

  [[nodiscard]] std::uint32_t col_of(double x) const;
  [[nodiscard]] std::uint32_t row_of(double y) const;
  [[nodiscard]] QueryBox query_box(util::Vec2 center, double radius) const;

  /// Call fn(id) once for every id indexed in a cell of `box`.
  template <typename Fn>
  void for_each_candidate(QueryBox box, Fn&& fn) const {
    if (box.cx0 == box.cx1 && box.cy0 == box.cy1) {
      for (const std::uint32_t id : cells_[box.cy0 * cols_ + box.cx0]) fn(id);
      return;
    }
    // An id whose segment crosses cells sits in several of them.
    ++epoch_;
    for (std::uint32_t cy = box.cy0; cy <= box.cy1; ++cy) {
      for (std::uint32_t cx = box.cx0; cx <= box.cx1; ++cx) {
        for (const std::uint32_t id : cells_[cy * cols_ + cx]) {
          if (stamp_[id] == epoch_) continue;
          stamp_[id] = epoch_;
          fn(id);
        }
      }
    }
  }

  /// The cells of segment [a, b]'s supercover, ascending, into covering_.
  void trace_segment(util::Vec2 a, util::Vec2 b);

  util::Rect field_;
  double cell_size_;
  double inv_cell_;
  std::uint32_t cols_ = 1;
  std::uint32_t rows_ = 1;

  std::vector<std::vector<std::uint32_t>> cells_;     ///< cell -> ids, ascending
  std::vector<std::vector<std::uint32_t>> id_cells_;  ///< id -> cells, ascending
  std::vector<std::uint32_t> covering_;  ///< update scratch: the new cells
  // Query scratch, sized to max_ids once: dedup marks and the matches of a
  // multi-cell query awaiting their sort.
  mutable std::vector<std::uint64_t> stamp_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<std::uint32_t> matches_;
};

}  // namespace alert::scale
