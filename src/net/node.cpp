#include "net/node.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

namespace alert::net {

void Node::set_motion(util::Vec2 start_pos, sim::Time start_time,
                      util::Vec2 velocity, sim::Time end_time) {
  seg_start_pos_ = start_pos;
  seg_start_ = start_time;
  velocity_ = velocity;
  seg_end_ = end_time;
}

util::Vec2 Node::position(sim::Time t) const {
  const sim::Time effective = std::clamp(t, seg_start_, seg_end_);
  return seg_start_pos_ + velocity_ * (effective - seg_start_);
}

void Node::set_alive(bool up) {
  alive_ = up;
  if (!up) {
    neighbors_.clear();
    std::fill(slots_.begin(), slots_.end(), std::uint16_t{0});
    oldest_heard_ = kNeverHeard;
    mac_busy_until = 0.0;
  }
}

std::size_t Node::home_slot(Pseudonym p) const {
  // Fibonacci hashing: the top bits of the product depend on every bit of
  // the pseudonym, so small consecutive values spread too.
  const int shift = 64 - std::countr_zero(slots_.size());
  return static_cast<std::size_t>((p * 0x9E3779B97F4A7C15ULL) >> shift);
}

Node::Probe Node::probe(Pseudonym p) const {
  // Entries are never unlinked from the index, only rebuilt without, so an
  // entry's own slot lies between its home slot and the next empty one.
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = home_slot(p);
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    for (std::size_t i = slots_[s] - 1U; i < neighbors_.size();
         i += kTagModulus) {
      if (neighbors_[i].pseudonym == p) return {s, i};
    }
  }
  return {s, kAbsent};
}

void Node::rebuild_index() {
  const std::size_t size =
      std::max(kMinSlots, std::bit_ceil(2 * neighbors_.capacity()));
  const std::size_t mask = size - 1;
  slots_.assign(size, 0);
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    std::size_t s = home_slot(neighbors_[i].pseudonym);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = tag_of(i);
  }
}

void Node::observe_neighbor(const NeighborInfo& info, sim::Time now) {
  oldest_heard_ = std::min(oldest_heard_, now);
  const Probe found = probe(info.pseudonym);
  if (found.position != kAbsent) {
    NeighborInfo& n = neighbors_[found.position];
    n = info;
    n.last_heard = now;
    return;
  }
  NeighborInfo entry = info;
  entry.last_heard = now;
  const std::size_t capacity = neighbors_.capacity();
  neighbors_.push_back(entry);
  if (neighbors_.capacity() != capacity) {
    rebuild_index();
  } else {
    slots_[found.slot] = tag_of(neighbors_.size() - 1);
  }
}

void Node::expire_neighbors(sim::Time now, double max_age) {
  // Every entry was heard at or after oldest_heard_, and `now - t` only
  // grows as t falls: unless the bound itself is stale, the sweep would
  // remove nothing.
  if (!(now - oldest_heard_ > max_age)) return;
  oldest_heard_ = kNeverHeard;
  const std::size_t removed =
      std::erase_if(neighbors_, [this, now, max_age](const NeighborInfo& n) {
        if (now - n.last_heard > max_age) return true;
        oldest_heard_ = std::min(oldest_heard_, n.last_heard);
        return false;
      });
  if (removed != 0) rebuild_index();
}

void Node::remove_neighbor(Pseudonym p) {
  const std::size_t position = probe(p).position;
  if (position == kAbsent) return;
  neighbors_.erase(neighbors_.begin() + static_cast<std::ptrdiff_t>(position));
  rebuild_index();
}

}  // namespace alert::net
