// Property tests for the bitmap availability digest (DESIGN.md §14): the
// fold -> serialize -> sign -> verify -> deserialize -> expand pipeline
// must be an identity on the observation stream, and the decoder must
// reject anything a roster cannot expand.
#include "src/tracing/trace_digest.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/serialize.h"
#include "src/crypto/rsa.h"
#include "src/pubsub/message.h"

namespace et::tracing {
namespace {

std::vector<std::string> roster_of(std::uint32_t members, Rng& rng) {
  std::vector<std::string> ids;
  for (std::uint32_t i = 0; i < members; ++i) {
    ids.push_back("entity-" + std::to_string(i) + "-" +
                  std::to_string(rng.next_u64() % 100000));
  }
  return ids;
}

/// A digest over `members` members with `bitmaps` random bitmaps; carries
/// its roster when `with_roster`.
TraceDigest random_digest(Rng& rng, std::uint32_t members,
                          std::size_t bitmaps, bool with_roster) {
  TraceDigest d;
  d.host_id = "host-" + std::to_string(rng.next_u64() % 1000);
  d.issued_at = static_cast<TimePoint>(rng.next_u64() % (1ull << 40));
  d.epoch = rng.next_u64() | 1;
  d.members = members;
  if (with_roster) d.roster = roster_of(members, rng);
  for (std::size_t b = 0; b < bitmaps; ++b) {
    Bytes bits(d.bitmap_bytes(), 0);
    for (std::uint32_t i = 0; i < members; ++i) {
      if (rng.next_u64() % 3 != 0) bits[i / 8] |= 1u << (i % 8);
    }
    d.bitmaps.insert(d.bitmaps.end(), bits.begin(), bits.end());
  }
  return d;
}

std::vector<std::size_t> observations(const TraceDigest& d) {
  std::vector<std::size_t> out;
  d.for_each_observation([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(TraceDigestTest, RoundTripIdentityOverRandomEntitySets) {
  Rng rng(20260809);
  for (int iter = 0; iter < 50; ++iter) {
    // Sizes 1..64; the 1-member case is pinned separately below.
    const auto members = static_cast<std::uint32_t>(1 + rng.next_u64() % 64);
    const TraceDigest d = random_digest(rng, members, 1 + rng.next_u64() % 4,
                                        /*with_roster=*/iter % 2 == 0);
    const TraceDigest back = TraceDigest::deserialize(d.serialize());
    EXPECT_EQ(d, back) << "iteration " << iter << " (" << members
                       << " members)";
  }
}

TEST(TraceDigestTest, SingleEntryDigestRoundTrips) {
  Rng rng(7);
  const TraceDigest d = random_digest(rng, 1, 3, /*with_roster=*/true);
  ASSERT_EQ(d.roster.size(), 1u);
  ASSERT_EQ(d.bitmap_count(), 3u);
  EXPECT_EQ(TraceDigest::deserialize(d.serialize()), d);
}

TEST(TraceDigestTest, EmptyDigestRoundTrips) {
  TraceDigest d;
  d.host_id = "host-empty";
  d.epoch = 3;
  d.members = 12;
  d.issued_at = 42;
  EXPECT_EQ(TraceDigest::deserialize(d.serialize()), d);
  EXPECT_EQ(d.bitmap_count(), 0u);
  EXPECT_TRUE(observations(d).empty());
}

TEST(TraceDigestTest, ExpandRestoresPerEntityPayloads) {
  TraceDigest d;
  d.epoch = 1;
  d.members = 10;  // two bytes per bitmap, six padding bits
  for (int i = 0; i < 10; ++i) d.roster.push_back("m" + std::to_string(i));
  d.bitmaps = {0b1000'0101, 0b10, 0b0, 0b01};
  EXPECT_EQ(d.bitmap_count(), 2u);
  // Bitmap by bitmap (one per folded ping response), members in bit order.
  std::string expanded;
  d.for_each_observation([&](std::size_t i) { expanded += d.roster[i]; });
  EXPECT_EQ(expanded, "m0m2m7m9m8");
}

TEST(TraceDigestTest, BitmapsCostABitPerMemberWithoutTheRoster) {
  Rng rng(3);
  // A 512-member round: 64 bytes of bitmap plus a fixed header.
  const TraceDigest bare = random_digest(rng, 512, 1, /*with_roster=*/false);
  EXPECT_LT(bare.serialize().size(), 128u);
  TraceDigest carried = bare;
  carried.roster = roster_of(512, rng);
  EXPECT_GT(carried.serialize().size(), 512u * 8);
}

TEST(TraceDigestTest, SignVerifyExpandPipelineIsIdentity) {
  Rng rng(31337);
  const crypto::RsaKeyPair delegate = crypto::rsa_generate(rng, 512);
  for (const std::uint32_t n : {1u, 13u, 64u}) {
    const TraceDigest d = random_digest(rng, n, 2, /*with_roster=*/true);

    // The broker-side half: serialize into a signed message.
    pubsub::Message m;
    m.topic = "Availability/Traces/" + d.host_id + "/Digest";
    m.payload = d.serialize();
    m.publisher = "broker-0";
    m.sequence = 1;
    m.timestamp = d.issued_at;
    m.signature = delegate.private_key.sign(m.signable_bytes());

    // The tracker-side half: verify, deserialize, expand via the roster.
    ASSERT_TRUE(delegate.public_key.verify(m.signable_bytes(), m.signature));
    const TraceDigest received = TraceDigest::deserialize(m.payload);
    EXPECT_EQ(received, d);
    std::vector<std::string> expanded;
    received.for_each_observation(
        [&](std::size_t i) { expanded.push_back(received.roster.at(i)); });
    std::vector<std::string> expected;
    for (std::size_t b = 0; b < d.bitmap_count(); ++b) {
      for (std::uint32_t i = 0; i < n; ++i) {
        if ((d.bitmaps[b * d.bitmap_bytes() + i / 8] >> (i % 8)) & 1u) {
          expected.push_back(d.roster[i]);
        }
      }
    }
    EXPECT_EQ(expanded, expected);
  }
}

TEST(TraceDigestTest, TamperedPayloadFailsVerification) {
  Rng rng(5);
  const crypto::RsaKeyPair delegate = crypto::rsa_generate(rng, 512);
  const TraceDigest d = random_digest(rng, 8, 2, /*with_roster=*/true);
  pubsub::Message m;
  m.topic = "t";
  m.payload = d.serialize();
  m.signature = delegate.private_key.sign(m.signable_bytes());
  m.payload[m.payload.size() / 2] ^= 0x40;  // flip one bit mid-stream
  EXPECT_FALSE(delegate.public_key.verify(m.signable_bytes(), m.signature));
}

/// A digest encoding up to its roster flag.
Writer digest_header(std::uint64_t epoch, std::uint32_t members) {
  Writer w;
  w.str("host");
  w.i64(1);
  w.u64(epoch);
  w.u32(members);
  return w;
}

TEST(TraceDigestTest, MalformedBytesThrow) {
  Rng rng(11);
  const TraceDigest d = random_digest(rng, 3, 2, /*with_roster=*/true);
  Bytes b = d.serialize();
  EXPECT_THROW(TraceDigest::deserialize(BytesView(b.data(), b.size() - 1)),
               SerializeError);
  Bytes junk{0xde, 0xad, 0xbe, 0xef};
  EXPECT_THROW(TraceDigest::deserialize(junk), SerializeError);

  // A roster count no payload could hold must not reach an allocation.
  Writer huge_roster = digest_header(1, 0xFFFFFFFFu);
  huge_roster.boolean(true);
  EXPECT_THROW(TraceDigest::deserialize(std::move(huge_roster).take()),
               SerializeError);
  // Likewise a bitmap count.
  Writer huge_bitmaps = digest_header(1, 9);
  huge_bitmaps.boolean(false);
  huge_bitmaps.u32(0xFFFFFFFFu);
  huge_bitmaps.raw(Bytes{0xff, 0x01});
  EXPECT_THROW(TraceDigest::deserialize(std::move(huge_bitmaps).take()),
               SerializeError);
  // A bit past the roster names no member.
  Writer padding = digest_header(1, 9);
  padding.boolean(false);
  padding.u32(1);
  padding.raw(Bytes{0xff, 0x03});
  EXPECT_THROW(TraceDigest::deserialize(std::move(padding).take()),
               SerializeError);
  // Epoch 0 means "no roster", and a roster has members.
  for (const auto& [epoch, members] :
       {std::pair<std::uint64_t, std::uint32_t>{0, 9}, {1, 0}}) {
    Writer w = digest_header(epoch, members);
    w.boolean(false);
    w.u32(0);
    EXPECT_THROW(TraceDigest::deserialize(std::move(w).take()),
                 SerializeError);
  }
}

}  // namespace
}  // namespace et::tracing
