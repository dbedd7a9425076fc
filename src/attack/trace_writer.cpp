#include "attack/trace_writer.hpp"

#include <stdexcept>

namespace alert::attack {

const char* packet_kind_token(net::PacketKind kind) {
  switch (kind) {
    case net::PacketKind::Hello: return "hello";
    case net::PacketKind::Data: return "data";
    case net::PacketKind::Confirm: return "confirm";
    case net::PacketKind::Nak: return "nak";
    case net::PacketKind::Cover: return "cover";
    case net::PacketKind::IdDissemination: return "id_dissemination";
  }
  return "unknown";
}

JsonlTraceWriter::JsonlTraceWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("JsonlTraceWriter: cannot open " + path);
  }
}

JsonlTraceWriter::~JsonlTraceWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceWriter::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void JsonlTraceWriter::write(const char* kind, const net::Node& node,
                             const net::Packet& pkt, sim::Time when,
                             const char* extra) {
  const util::Vec2 pos = node.position(when);
  std::fprintf(
      file_,
      "{\"event\":\"%s\",\"t\":%.6f,\"node\":%u,\"x\":%.1f,\"y\":%.1f,"
      "\"pkt\":\"%s\",\"uid\":%llu,\"flow\":%u,\"seq\":%u,\"hops\":%d,"
      "\"bytes\":%zu,\"zone_phase\":%s%s}\n",
      kind, when, node.id(), pos.x, pos.y, packet_kind_token(pkt.kind),
      static_cast<unsigned long long>(pkt.uid), pkt.flow, pkt.seq,
      pkt.hop_count, pkt.size_bytes,
      (pkt.alert && pkt.alert->in_dest_zone_phase) ? "true" : "false",
      extra);
  ++count_;
}

void JsonlTraceWriter::on_transmit(const net::Node& sender,
                                   const net::Packet& pkt,
                                   sim::Time air_start) {
  write("tx", sender, pkt, air_start, "");
}

void JsonlTraceWriter::on_deliver(const net::Node& receiver,
                                  const net::Packet& pkt, sim::Time when) {
  write("rx", receiver, pkt, when, "");
}

void JsonlTraceWriter::on_drop(const net::Node& last_holder,
                               const net::Packet& pkt, sim::Time when,
                               net::DropReason why) {
  char extra[48];
  std::snprintf(extra, sizeof extra, ",\"reason\":\"%s\"",
                net::drop_reason_name(why));
  write("drop", last_holder, pkt, when, extra);
}

}  // namespace alert::attack
