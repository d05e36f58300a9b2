#include "src/tracing/trace_digest.h"

#include "src/common/serialize.h"

namespace et::tracing {

Bytes TraceDigest::serialize() const {
  Writer w;
  w.str(host_id);
  w.i64(issued_at);
  w.u64(epoch);
  w.u32(members);
  w.boolean(!roster.empty());
  for (const std::string& id : roster) w.str(id);
  w.u32(static_cast<std::uint32_t>(bitmap_count()));
  w.raw(bitmaps);
  return std::move(w).take();
}

TraceDigest TraceDigest::deserialize(BytesView b) {
  Reader r(b);
  TraceDigest out;
  out.host_id = r.str();
  out.issued_at = r.i64();
  out.epoch = r.u64();
  out.members = r.u32();
  if (out.epoch == 0 || out.members == 0) {
    throw SerializeError("digest without a roster epoch or members");
  }
  if (r.boolean()) {
    // Every id costs at least its 4-byte length prefix.
    if (out.members > r.remaining() / 4) {
      throw SerializeError("digest roster count exceeds the payload");
    }
    out.roster.reserve(out.members);
    for (std::uint32_t i = 0; i < out.members; ++i) {
      out.roster.push_back(r.str());
    }
  }
  const std::size_t width = out.bitmap_bytes();
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / width) {
    throw SerializeError("digest bitmap count exceeds the payload");
  }
  const BytesView bitmaps = r.raw_view(count * width);
  r.expect_done();
  // Bits past the roster would name members that do not exist.
  const unsigned tail = out.members % 8;
  if (tail != 0) {
    for (std::size_t k = width - 1; k < bitmaps.size(); k += width) {
      if ((bitmaps[k] >> tail) != 0) {
        throw SerializeError("digest bitmap sets a bit past its roster");
      }
    }
  }
  out.bitmaps.assign(bitmaps.begin(), bitmaps.end());
  return out;
}

}  // namespace et::tracing
