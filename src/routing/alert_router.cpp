#include "routing/alert_router.hpp"

#include <cassert>
#include <cstring>

#include "routing/geo_forwarding.hpp"

namespace alert::routing {

namespace {

/// Magic tag marking a valid decrypted TTL (Sec. 2.6: receivers that fail
/// to recover this tag treat the packet as cover traffic and drop it).
constexpr std::uint64_t kTtlMagic = 0x414C455254ull;  // "ALERT"

std::vector<std::uint8_t> encode_rect(const util::Rect& r) {
  std::vector<std::uint8_t> out(32);
  const double vals[4] = {r.min.x, r.min.y, r.max.x, r.max.y};
  std::memcpy(out.data(), vals, 32);
  return out;
}

util::Rect decode_rect(const std::vector<std::uint8_t>& bytes) {
  assert(bytes.size() == 32);
  double vals[4];
  std::memcpy(vals, bytes.data(), 32);
  return util::Rect{vals[0], vals[1], vals[2], vals[3]};
}

std::vector<std::uint8_t> encode_key(const crypto::SymmetricKey& k) {
  std::vector<std::uint8_t> out(16);
  std::memcpy(out.data(), k.words.data(), 16);
  return out;
}

crypto::SymmetricKey decode_key(const std::vector<std::uint8_t>& bytes) {
  assert(bytes.size() == 16);
  crypto::SymmetricKey k;
  std::memcpy(k.words.data(), bytes.data(), 16);
  return k;
}

std::uint64_t hold_key(net::NodeId node, std::uint32_t flow) {
  return (static_cast<std::uint64_t>(node) << 32) | flow;
}

}  // namespace

AlertRouter::AlertRouter(net::Network& network,
                         loc::LocationService& location, AlertConfig config)
    : Protocol(network, location),
      config_(config),
      h_(config.k_anonymity
             ? partitions_for_anonymity(
                   static_cast<double>(network.size()), *config.k_anonymity)
             : config.partitions_h),
      rng_(network.rng().fork(0xA1E47)) {
  assert(h_ >= 1);
  init_profiling("alert");
  attach_to_all();
}

AlertRouter::FlowState* AlertRouter::flow_state(net::NodeId src,
                                                net::NodeId dst,
                                                std::uint32_t flow) {
  auto it = flows_.find(flow);
  if (it != flows_.end()) return &it->second;

  FlowState st;
  st.src = src;
  st.dest = dst;
  const auto record = loc_.query(src, dst);
  if (!record) return nullptr;  // location service unreachable
  st.dest_pub = record->pubkey;
  st.dest_pseudonym = record->pseudonym;

  const util::Rect& field = net_.config().field;
  st.dest_zone = destination_zone(field, record->position, h_);
  st.src_zone =
      destination_zone(field, net_.node(src).position(net_.now()), h_);

  // Session setup (once per flow): generate K_s, wrap it and L_ZS under
  // K_pub^D. These public-key operations happen before the session's first
  // packet is handed to the MAC, so they are charged to the crypto total
  // but not to per-packet latency (Sec. 2.5 lets the source precompute
  // them and forward the results along the route).
  st.session_key = crypto::SymmetricKey::from_seed(rng_.next());
  st.src_zone_enc =
      crypto::rsa_encrypt_bytes(st.dest_pub, encode_rect(st.src_zone));
  st.session_key_enc =
      crypto::rsa_encrypt_bytes(st.dest_pub, encode_key(st.session_key));
  charge_crypto(net_.node(src),
                2.0 * net_.config().crypto_cost.public_encrypt_s);

  return &flows_.emplace(flow, std::move(st)).first->second;
}

void AlertRouter::send(net::NodeId src, net::NodeId dst,
                       std::size_t payload_bytes, std::uint32_t flow,
                       std::uint32_t seq) {
  ALERT_OBS_TIMED(profiler_, send_scope_);
  FlowState* state = flow_state(src, dst, flow);
  if (state == nullptr) return;  // no location service: cannot even begin
  FlowState& st = *state;
  net::Node& source = net_.node(src);

  // While the location service applies destination updates, the source
  // recomputes Z_D from the freshest position before each packet, so the
  // destination zone tracks a mobile D (Sec. 5.6's "with destination
  // update" behaviour). The source zone L_ZS likewise follows the source;
  // its ciphertext is only refreshed when S crosses into another zone
  // (a rare event that costs one public-key encryption).
  if (!loc_.frozen()) {
    if (const auto record = loc_.query(src, dst)) {
      st.dest_pseudonym = record->pseudonym;
      st.dest_zone =
          destination_zone(net_.config().field, record->position, h_);
    }
    const util::Rect src_zone_now = destination_zone(
        net_.config().field, source.position(net_.now()), h_);
    if (!(src_zone_now == st.src_zone)) {
      st.src_zone = src_zone_now;
      st.src_zone_enc =
          crypto::rsa_encrypt_bytes(st.dest_pub, encode_rect(st.src_zone));
      charge_crypto(source, net_.config().crypto_cost.public_encrypt_s);
    }
  }

  net::Packet pkt;
  pkt.kind = net::PacketKind::Data;
  pkt.src_pseudonym = source.pseudonym();
  pkt.dst_pseudonym = st.dest_pseudonym;
  pkt.flow = flow;
  pkt.seq = seq;
  pkt.uid = net_.next_uid();
  pkt.app_send_time = net_.now();
  pkt.first_send_time = net_.now();
  pkt.true_source = src;
  pkt.true_dest = dst;
  pkt.hops_remaining = config_.max_hops;

  // Payload encrypted under the session key (symmetric, Sec. 2.5). The
  // plaintext is arbitrary application data; we use the seq pattern so
  // tests can verify end-to-end recovery.
  pkt.payload.assign(payload_bytes, static_cast<std::uint8_t>(seq));
  crypto::xtea_ctr_apply(st.session_key,
                         (static_cast<std::uint64_t>(flow) << 32) | seq,
                         pkt.payload);
  const double enc_cost =
      net_.config().crypto_cost.symmetric_encrypt_for(payload_bytes);
  charge_crypto(source, enc_cost);

  pkt.alert = net::AlertFields{};
  pkt.alert->dest_zone = st.dest_zone;
  pkt.alert->cap_h = static_cast<std::uint8_t>(h_);
  pkt.alert->next_partition_horizontal = rng_.bernoulli(0.5);
  pkt.alert->src_zone_enc = st.src_zone_enc;
  pkt.alert->session_key_enc = st.session_key_enc;
  pkt.alert->dest_pubkey = st.dest_pub;
  pkt.alert->bitmap_flips_per_layer =
      static_cast<std::uint32_t>(config_.bitmap_flips);
  pkt.size_bytes = pkt.payload.size() + header_bytes(pkt);

  ++stats_.data_sent;
  if (config_.send_confirmation) {
    PendingConfirm pending;
    pending.packet = pkt;
    pending.retries_left = config_.max_retransmissions;
    pending_.emplace(confirm_key(flow, seq), std::move(pending));
    arm_confirm_timer(flow, seq);
  }

  // The symmetric encryption happens before the MAC gets the frame, so it
  // delays this packet: fold it into the camouflage hold time below.
  net::Packet first = pkt;
  net::Node* src_node = &source;
  net_.simulator().schedule_in(enc_cost, [this, src_node, first]() mutable {
    transmit_with_camouflage(*src_node, std::move(first));
  });
}

void AlertRouter::transmit_with_camouflage(net::Node& source,
                                           net::Packet pkt) {
  if (!config_.notify_and_go) {
    forward(source, std::move(pkt), /*force_partition=*/true);
    return;
  }
  // "Notify" phase: the back-off pair (t, t0) rides on the periodic update
  // packets (no extra frame); each neighbour then emits a few bytes of
  // cover traffic at a random time in [t, t + t0], and S releases the real
  // packet in the same window (Sec. 2.6). The TTL of the real packet is
  // encrypted under the next relay's public key during the hold time, so
  // the wait is not extended by the operation.
  const double window_start = config_.notify_t_s;
  const double window = config_.notify_t0_s;
  const util::Vec2 src_pos = source.position(net_.now());
  for (const net::NodeId id : net_.nodes_within(
           src_pos, net_.config().radio_range_m, net_.now())) {
    if (id == source.id()) continue;
    net::Node* neighbor = &net_.node(id);
    const double when = window_start + rng_.uniform() * window;
    net_.simulator().schedule_in(when, [this, neighbor] {
      net::Packet cover;
      cover.kind = net::PacketKind::Cover;
      cover.src_pseudonym = neighbor->pseudonym();
      cover.size_bytes = config_.cover_bytes;
      cover.true_source = neighbor->id();
      cover.alert = net::AlertFields{};
      // Garbage TTL ciphertext: nobody can decrypt it to the magic tag, so
      // every receiver drops the packet — the TTL=0 semantics of Sec. 2.6.
      // Receivers drop covers by kind; the draw stays because the router's
      // RNG stream (and with it every trace digest) depends on it.
      cover.alert->ttl_enc = rng_.next() | 1;
      ++stats_.cover_packets;
      net_.broadcast(*neighbor, std::move(cover));
    });
  }
  const double hold = window_start + rng_.uniform() * window;
  net::Node* src_node = &source;
  net_.simulator().schedule_in(hold, [this, src_node, pkt]() mutable {
    forward(*src_node, std::move(pkt), /*force_partition=*/true);
  });
}

void AlertRouter::arm_confirm_timer(std::uint32_t flow, std::uint32_t seq) {
  const std::uint64_t key = confirm_key(flow, seq);
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  it->second.timer = net_.simulator().schedule_in(
      config_.confirm_timeout_s, [this, flow, seq] { resend(flow, seq); });
}

void AlertRouter::resend(std::uint32_t flow, std::uint32_t seq) {
  const std::uint64_t key = confirm_key(flow, seq);
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // confirmed in the meantime
  if (it->second.retries_left <= 0) {
    // Out of retries: the application packet is now definitively given up.
    ledger_close(it->second.packet, net::PacketFate::Dropped);
    pending_.erase(it);
    return;
  }
  --it->second.retries_left;
  ++stats_.retransmissions;
  net::Packet copy = it->second.packet;
  copy.hops_remaining = config_.max_hops;
  copy.hop_count = 0;
  // Latency is measured per delivery attempt (as in the paper: the time
  // elapsed after a packet is sent and before it is received), so the
  // retransmitted copy restarts the clock.
  copy.app_send_time = net_.now();
  // A fresh route: new direction bit, new TDs — ALERT never reuses paths.
  copy.alert->next_partition_horizontal = rng_.bernoulli(0.5);
  net::Node& source = net_.node(copy.true_source);
  transmit_with_camouflage(source, std::move(copy));
  arm_confirm_timer(flow, seq);
}

void AlertRouter::handle(net::Node& self, const net::Packet& pkt) {
  ALERT_OBS_TIMED(profiler_, handle_scope_);
  switch (pkt.kind) {
    case net::PacketKind::Cover:
      // TTL=0 cover traffic (Sec. 2.6) dies at every receiver. Its garbage
      // TTL ciphertext never unseals to the magic tag, and the failed
      // attempt is neither charged nor audited, so no decryption is run.
      return;
    case net::PacketKind::Data:
    case net::PacketKind::Confirm:
    case net::PacketKind::Nak:
      break;
    default:
      return;
  }
  if (!pkt.alert) return;

  // First-hop TTL verification (Sec. 2.6): the source sealed the TTL under
  // our public key so this frame is indistinguishable from the cover
  // traffic around it. A failed unseal means the frame was not for us —
  // exactly how covers die — so we drop silently.
  if (pkt.alert->ttl_enc) {
    const std::uint64_t v = crypto::rsa_decrypt_value(
        self.private_key(), *pkt.alert->ttl_enc % self.private_key().n);
    if ((v >> 8) != kTtlMagic) return;
    charge_crypto(self, net_.config().crypto_cost.verify_s);
  }

  if (pkt.alert->in_dest_zone_phase) {
    on_zone_broadcast(self, pkt);
    return;
  }
  // A relay that happens to be D itself accepts silently and *continues
  // forwarding* so its behaviour is indistinguishable from any relay.
  if (pkt.kind == net::PacketKind::Data &&
      net_.resolve_pseudonym(pkt.dst_pseudonym) == self.id()) {
    accept_at_destination(self, pkt);
  }
  forward(self, pkt, /*force_partition=*/false);
}

void AlertRouter::seal_first_hop_ttl(net::Node& self, net::Packet& pkt,
                                     const net::NeighborInfo& next) {
  // Sec. 2.6: only the source's first transmission carries a TTL sealed
  // under the next relay's public key, making the real packet
  // indistinguishable from the covers released in the same window. The
  // operation happens during the notify-and-go hold, so it adds no
  // latency; the crypto time is still accounted.
  if (!config_.notify_and_go || pkt.kind != net::PacketKind::Data) return;
  if (pkt.hop_count != 1 || pkt.alert->ttl_enc) return;
  const std::uint64_t plain =
      (kTtlMagic << 8) | static_cast<std::uint64_t>(config_.max_hops & 0xFF);
  pkt.alert->ttl_enc =
      crypto::rsa_encrypt_value(*next.pubkey, plain % next.pubkey->n);
  charge_crypto(self, net_.config().crypto_cost.verify_s);
}

bool AlertRouter::reroute_failed(net::Node& self, const net::Packet& pkt) {
  // Data, Confirm and Nak all route through forward(); Cover is broadcast-
  // only and cannot unicast-fail. A failed camouflaged first hop still
  // carries its sealed TTL (hop_count == 1): forward() bumps hop_count past
  // 1 and clears the seal, so the salvage leg runs in the clear — the
  // camouflage window is over by the time the ARQ gives up anyway.
  if (!pkt.alert) return false;
  forward(self, pkt, /*force_partition=*/false);
  return true;
}

void AlertRouter::forward(net::Node& self, net::Packet pkt,
                          bool force_partition) {
  if (pkt.hops_remaining <= 0) {
    ++stats_.data_dropped;
    ledger_close(pkt, net::PacketFate::Dropped);
    return;
  }
  const util::Vec2 self_pos = self.position(net_.now());
  const util::Rect zd = pkt.alert->dest_zone;

  if (zd.contains(self_pos)) {
    deliver_into_zone(self, std::move(pkt));
    return;
  }

  --pkt.hops_remaining;
  ++pkt.hop_count;
  // The sealed TTL only guards the camouflaged first hop; onward relays
  // forward in the clear (Sec. 2.6).
  if (pkt.hop_count > 1) pkt.alert->ttl_enc.reset();

  // A packet already in fallback mode (sparse region: random TDs made no
  // progress) runs a plain GPSR leg toward the destination zone until it
  // arrives there; Sec. 2.7 allows face routing between RFs without
  // compromising anonymity.
  if (pkt.geo) {
    fallback_leg(self, std::move(pkt));
    return;
  }

  if (!force_partition) {
    // Relay leg: continue greedily toward the current TD.
    if (const auto* next = greedy_next_hop(self, self_pos, pkt.alert->td)) {
      ++stats_.forwards;
      net_.unicast(self, next->pseudonym, std::move(pkt),
                   config_.per_hop_processing_s);
      return;
    }
    // No neighbour closer to the TD: this node is the random forwarder
    // (Fig. 3) and performs the next partition.
    if (pkt.kind == net::PacketKind::Data) {
      ++stats_.random_forwarders;
      distinct_rfs_.insert(self.id());
    }
  }

  const util::Axis axis = pkt.alert->next_partition_horizontal
                              ? util::Axis::Horizontal
                              : util::Axis::Vertical;
  const int budget = static_cast<int>(pkt.alert->cap_h) - pkt.alert->h;
  const auto step = partition_until_separated(net_.config().field, self_pos,
                                              zd, axis, budget);
  if (step) {
    pkt.alert->h = static_cast<std::uint8_t>(pkt.alert->h +
                                             step->splits_performed);
    if (pkt.kind == net::PacketKind::Data) {
      stats_.partitions += static_cast<std::uint64_t>(step->splits_performed);
    }
    pkt.alert->next_partition_horizontal =
        util::flip(step->last_axis) == util::Axis::Horizontal;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const util::Vec2 td = choose_temporary_destination(*step, rng_);
      if (const auto* next = greedy_next_hop(self, self_pos, td)) {
        pkt.alert->td = td;
        seal_first_hop_ttl(self, pkt, *next);
        ++stats_.forwards;
        net_.unicast(self, next->pseudonym, std::move(pkt),
                     config_.per_hop_processing_s);
        return;
      }
    }
  }
  // Separation impossible within budget or no progress toward any TD:
  // enter fallback mode — a plain GPSR leg (greedy + perimeter recovery)
  // straight toward the destination zone (Sec. 2.7 explicitly allows face
  // routing between RFs).
  pkt.alert->td = zd.center();
  pkt.geo = net::GeoFields{};
  pkt.geo->dest_pos = zd.center();
  fallback_leg(self, std::move(pkt));
}

void AlertRouter::fallback_leg(net::Node& self, net::Packet pkt) {
  const GpsrHop hop =
      gpsr_next_hop(net_, self, pkt, config_.use_perimeter_fallback);
  if (hop.next == nullptr) {
    ++stats_.data_dropped;
    ledger_close(pkt, net::PacketFate::Dropped);
    return;
  }
  if (hop.greedy) seal_first_hop_ttl(self, pkt, *hop.next);
  ++stats_.forwards;
  net_.unicast(self, hop.next->pseudonym, std::move(pkt),
               config_.per_hop_processing_s);
}

void AlertRouter::deliver_into_zone(net::Node& self, net::Packet pkt) {
  --pkt.hops_remaining;
  ++pkt.hop_count;
  pkt.alert->in_dest_zone_phase = true;
  ++stats_.broadcasts;

  const bool counter = config_.intersection_countermeasure &&
                       pkt.kind == net::PacketKind::Data;
  double processing = config_.per_hop_processing_s;
  if (counter) {
    // Alter payload bits; append an encrypted bitmap layer (Sec. 3.3).
    crypto::AlterationBitmap bm = crypto::AlterationBitmap::alter(
        pkt.payload, config_.bitmap_flips, rng_);
    pkt.alert->bitmap_layers_enc.push_back(
        crypto::rsa_encrypt_bytes(pkt.alert->dest_pubkey, bm.serialize()));
    charge_crypto(self, net_.config().crypto_cost.public_encrypt_s);
    processing += net_.config().crypto_cost.public_encrypt_s;

    // First-step multicast: m random zone members (D not guaranteed in).
    const util::Vec2 self_pos = self.position(net_.now());
    std::vector<net::Pseudonym> zone_members;
    for (const auto& n : self.neighbors()) {
      if (pkt.alert->dest_zone.contains(n.position)) {
        zone_members.push_back(n.pseudonym);
      }
    }
    pkt.alert->multicast_set.clear();
    for (std::size_t i = 0;
         i < config_.countermeasure_m && !zone_members.empty(); ++i) {
      const std::size_t pick = rng_.below(zone_members.size());
      pkt.alert->multicast_set.push_back(zone_members[pick]);
      zone_members.erase(zone_members.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    }
    (void)self_pos;
  }
  pkt.size_bytes = pkt.payload.size() + header_bytes(pkt);
  // The broadcaster itself may be a zone member (or even D).
  net::Packet local = pkt;
  net_.broadcast(self, std::move(pkt), processing);
  on_zone_broadcast(self, local);
}

void AlertRouter::on_zone_broadcast(net::Node& self, const net::Packet& pkt) {
  const util::Vec2 self_pos = self.position(net_.now());
  if (!pkt.alert->dest_zone.contains(self_pos)) return;  // overheard only

  const bool i_am_target =
      net_.resolve_pseudonym(pkt.dst_pseudonym) == self.id();

  if (config_.intersection_countermeasure &&
      pkt.kind == net::PacketKind::Data) {
    if (pkt.alert->countermeasure_second_step) {
      if (i_am_target) accept_at_destination(self, pkt);
      return;
    }
    // First step. Arrival of the next packet triggers the one-hop
    // rebroadcast of any held previous packet (Sec. 3.3 mixing).
    const std::uint64_t hk = hold_key(self.id(), pkt.flow);
    auto held = held_.find(hk);
    if (held != held_.end() && held->second.seq < pkt.seq) {
      net::Packet release = std::move(held->second);
      held_.erase(held);
      release.alert->countermeasure_second_step = true;
      // Each rebroadcaster re-alters bits so broadcasts of the same packet
      // are never byte-identical on air.
      crypto::AlterationBitmap bm = crypto::AlterationBitmap::alter(
          release.payload, config_.bitmap_flips, rng_);
      release.alert->bitmap_layers_enc.push_back(crypto::rsa_encrypt_bytes(
          release.alert->dest_pubkey, bm.serialize()));
      charge_crypto(self, net_.config().crypto_cost.public_encrypt_s);
      release.size_bytes = release.payload.size() + header_bytes(release);
      ++stats_.broadcasts;
      net_.broadcast(self, std::move(release),
                     config_.per_hop_processing_s);
    }
    const bool in_multicast_set =
        std::find(pkt.alert->multicast_set.begin(),
                  pkt.alert->multicast_set.end(),
                  self.pseudonym()) != pkt.alert->multicast_set.end();
    if (in_multicast_set) {
      held_[hk] = pkt;  // hold until the next packet of this flow
      if (i_am_target) accept_at_destination(self, pkt);
    }
    return;
  }

  if (!i_am_target) return;  // one of the k-anonymity camouflage receivers

  switch (pkt.kind) {
    case net::PacketKind::Data:
      accept_at_destination(self, pkt);
      break;
    case net::PacketKind::Confirm: {
      pending_.erase(confirm_key(pkt.flow, pkt.seq));
      ledger_close(pkt, net::PacketFate::Delivered);
      break;
    }
    case net::PacketKind::Nak: {
      // NAK's seq field names the missing packet; resend immediately.
      const std::uint64_t key = confirm_key(pkt.flow, pkt.seq);
      if (pending_.contains(key)) resend(pkt.flow, pkt.seq);
      ++stats_.naks;
      ledger_close(pkt, net::PacketFate::Delivered);
      break;
    }
    default:
      break;
  }
}

void AlertRouter::accept_at_destination(net::Node& self,
                                        const net::Packet& pkt) {
  const std::uint64_t mark = confirm_key(pkt.flow, pkt.seq);
  if (delivered_marks_.contains(mark)) return;  // duplicate copy
  DestState& ds = dest_state_[pkt.flow];
  if (!ds.have_key) {
    // Unwrap the session key and the source zone once per flow (public-key
    // decryptions, charged to the crypto total).
    ds.session_key = decode_key(crypto::rsa_decrypt_bytes(
        self.private_key(), pkt.alert->session_key_enc, 16));
    ds.src_zone = decode_rect(crypto::rsa_decrypt_bytes(
        self.private_key(), pkt.alert->src_zone_enc, 32));
    ds.have_key = true;
    ds.have_src_zone = true;
    charge_crypto(self, 2.0 * net_.config().crypto_cost.public_decrypt_s);
  }

  // Undo countermeasure bit alterations (layers in reverse), then decrypt.
  std::vector<std::uint8_t> payload = pkt.payload;
  for (auto it = pkt.alert->bitmap_layers_enc.rbegin();
       it != pkt.alert->bitmap_layers_enc.rend(); ++it) {
    const auto raw = crypto::rsa_decrypt_bytes(
        self.private_key(), *it,
        static_cast<std::size_t>(pkt.alert->bitmap_flips_per_layer) * 4);
    crypto::AlterationBitmap::deserialize(raw).restore(payload);
    charge_crypto(self, net_.config().crypto_cost.public_decrypt_s);
  }
  crypto::xtea_ctr_apply(
      ds.session_key,
      (static_cast<std::uint64_t>(pkt.flow) << 32) | pkt.seq, payload);
  charge_crypto(self,
                net_.config().crypto_cost.symmetric_decrypt_for(payload.size()));
  // Verify recovery: plaintext is seq-patterned (see send()).
  const bool intact =
      payload.empty() || payload.front() == static_cast<std::uint8_t>(pkt.seq);
  if (!intact) return;  // corrupted; wait for a retransmission

  delivered_marks_.insert(mark);
  ++stats_.data_delivered;
  ledger_close(pkt, net::PacketFate::Delivered);

  if (config_.use_nak) {
    if (pkt.seq > ds.expected_seq) {
      // Gap: NAK the first missing packet (data field empty, Sec. 2.5).
      send_nak(self, pkt, ds.expected_seq);
    }
    ds.received.insert(pkt.seq);
    while (ds.received.contains(ds.expected_seq)) ++ds.expected_seq;
  }
  if (config_.send_confirmation) send_confirm(self, pkt);
}

void AlertRouter::send_confirm(net::Node& dest_node,
                               const net::Packet& data_pkt) {
  DestState& ds = dest_state_[data_pkt.flow];
  if (!ds.have_src_zone) return;
  net::Packet confirm;
  confirm.kind = net::PacketKind::Confirm;
  confirm.src_pseudonym = dest_node.pseudonym();
  confirm.dst_pseudonym = data_pkt.src_pseudonym;
  confirm.flow = data_pkt.flow;
  confirm.seq = data_pkt.seq;
  confirm.uid = net_.next_uid();
  confirm.app_send_time = net_.now();
  confirm.true_source = dest_node.id();
  confirm.true_dest = data_pkt.true_source;
  confirm.hops_remaining = config_.max_hops;
  confirm.alert = net::AlertFields{};
  confirm.alert->dest_zone = ds.src_zone;  // route back to Z_S
  confirm.alert->cap_h = static_cast<std::uint8_t>(h_);
  confirm.alert->next_partition_horizontal = rng_.bernoulli(0.5);
  confirm.size_bytes = header_bytes(confirm);
  forward(dest_node, std::move(confirm), /*force_partition=*/true);
}

void AlertRouter::send_nak(net::Node& dest_node, const net::Packet& data_pkt,
                           std::uint32_t missing_seq) {
  DestState& ds = dest_state_[data_pkt.flow];
  if (!ds.have_src_zone) return;
  net::Packet nak;
  nak.kind = net::PacketKind::Nak;
  nak.src_pseudonym = dest_node.pseudonym();
  nak.dst_pseudonym = data_pkt.src_pseudonym;
  nak.flow = data_pkt.flow;
  nak.seq = missing_seq;
  nak.uid = net_.next_uid();
  nak.app_send_time = net_.now();
  nak.true_source = dest_node.id();
  nak.true_dest = data_pkt.true_source;
  nak.hops_remaining = config_.max_hops;
  nak.alert = net::AlertFields{};
  nak.alert->dest_zone = ds.src_zone;
  nak.alert->cap_h = static_cast<std::uint8_t>(h_);
  nak.alert->next_partition_horizontal = rng_.bernoulli(0.5);
  nak.size_bytes = header_bytes(nak);  // data field empty in NAKs
  forward(dest_node, std::move(nak), /*force_partition=*/true);
}

}  // namespace alert::routing
