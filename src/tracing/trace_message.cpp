#include "src/tracing/trace_message.h"

namespace et::tracing {

void LoadInfo::encode(Writer& w) const {
  w.f64(cpu_utilization);
  w.f64(memory_utilization);
  w.u32(workload);
}

LoadInfo LoadInfo::decode(Reader& r) {
  LoadInfo out;
  out.cpu_utilization = r.f64();
  out.memory_utilization = r.f64();
  out.workload = r.u32();
  return out;
}

void NetworkMetrics::encode(Writer& w) const {
  w.f64(loss_rate);
  w.f64(mean_rtt_ms);
  w.f64(out_of_order_rate);
  w.f64(bandwidth_bytes_per_us);
}

NetworkMetrics NetworkMetrics::decode(Reader& r) {
  NetworkMetrics out;
  out.loss_rate = r.f64();
  out.mean_rtt_ms = r.f64();
  out.out_of_order_rate = r.f64();
  out.bandwidth_bytes_per_us = r.f64();
  return out;
}

Bytes TracePayload::serialize() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.str(entity_id);
  w.i64(issued_at);
  w.boolean(state.has_value());
  if (state) w.u8(static_cast<std::uint8_t>(*state));
  w.boolean(load.has_value());
  if (load) load->encode(w);
  w.boolean(metrics.has_value());
  if (metrics) metrics->encode(w);
  w.boolean(secured);
  w.str(detail);
  return std::move(w).take();
}

TracePayload TracePayload::deserialize(BytesView b) {
  Reader r(b);
  TracePayload out;
  out.type = static_cast<TraceType>(r.u8());
  if (out.type < TraceType::kInitializing ||
      out.type > TraceType::kDigest) {
    throw SerializeError("unknown trace type");
  }
  out.entity_id = r.str();
  out.issued_at = r.i64();
  if (r.boolean()) out.state = static_cast<EntityState>(r.u8());
  if (r.boolean()) out.load = LoadInfo::decode(r);
  if (r.boolean()) out.metrics = NetworkMetrics::decode(r);
  out.secured = r.boolean();
  out.detail = r.str();
  r.expect_done();
  return out;
}

Bytes encode_trace_batch(const std::vector<Bytes>& traces) {
  std::size_t size = 1 + 4;
  for (const Bytes& t : traces) size += 4 + t.size();
  Writer w;
  w.reserve(size);
  w.u8(static_cast<std::uint8_t>(TraceType::kBatch));
  w.u32(static_cast<std::uint32_t>(traces.size()));
  for (const Bytes& t : traces) w.bytes(t);
  return std::move(w).take();
}

bool is_trace_batch(BytesView body) {
  return !body.empty() &&
         body[0] == static_cast<std::uint8_t>(TraceType::kBatch);
}

std::vector<TracePayload> decode_trace_batch(BytesView body) {
  Reader r(body);
  if (r.u8() != static_cast<std::uint8_t>(TraceType::kBatch)) {
    throw SerializeError("not a trace batch");
  }
  const std::uint32_t count = r.u32();
  if (count < 2 || count > kTraceBatchMax) {
    throw SerializeError("trace batch count out of range");
  }
  // Every entry costs at least its 4-byte length prefix.
  if (count > r.remaining() / 4) {
    throw SerializeError("trace batch count exceeds the payload");
  }
  std::vector<TracePayload> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    // A nested batch fails here: kBatch is no payload type.
    out.push_back(TracePayload::deserialize(r.bytes_view()));
    if (out.back().type == TraceType::kGaugeInterest) {
      throw SerializeError("GAUGE_INTEREST inside a trace batch");
    }
  }
  r.expect_done();
  return out;
}

Bytes SessionMessage::serialize() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(ping_number);
  w.i64(ping_timestamp);
  w.boolean(state.has_value());
  if (state) w.u8(static_cast<std::uint8_t>(*state));
  w.boolean(load.has_value());
  if (load) load->encode(w);
  w.bytes(token);
  w.bytes(delegate_secret);
  w.bytes(trace_key);
  w.bytes(liveness);
  return std::move(w).take();
}

SessionMessage SessionMessage::deserialize(BytesView b) {
  Reader r(b);
  SessionMessage out;
  out.type = static_cast<SessionMsgType>(r.u8());
  if (out.type < SessionMsgType::kPing ||
      out.type > SessionMsgType::kSilentMode) {
    throw SerializeError("unknown session message type");
  }
  out.ping_number = r.u64();
  out.ping_timestamp = r.i64();
  if (r.boolean()) out.state = static_cast<EntityState>(r.u8());
  if (r.boolean()) out.load = LoadInfo::decode(r);
  out.token = r.bytes();
  out.delegate_secret = r.bytes();
  out.trace_key = r.bytes();
  out.liveness = r.bytes();
  r.expect_done();
  return out;
}

}  // namespace et::tracing
