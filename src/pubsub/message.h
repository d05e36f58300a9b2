// Messages and wire frames of the publish/subscribe substrate.
//
// Everything that crosses a link is a `Frame`: a tagged union of the
// protocol verbs (connect, subscribe, publish, ...). A `Message` is the
// application-visible unit: topic + payload + metadata, including the
// optional authorization-token attachment the tracing layer relies on
// (paper §4.3: "All trace messages generated by a broker need to include
// the token").
//
// Two decode layers exist. `Frame::deserialize` produces an owning
// `Frame`/`Message` — every variable-length field deep-copied out of the
// wire buffer. `FrameView::parse` is the zero-copy alternative: all
// fields are string_views/BytesViews borrowed from the wire bytes, valid
// only as long as the buffer behind them (a backend's delivery view or
// receive arena, i.e. the duration of a packet handler call). Brokers
// route over views — a pure-forward hop re-sends the original wire bytes
// and never materializes an owning Message; only the paths that must
// keep, mutate or re-sign a message (local-service delivery, topic
// rewrites, payload decryption) pay for `materialize()`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/serialize.h"

namespace et::pubsub {

struct MessageView;

/// Topic-addressed application message.
struct Message {
  std::string topic;
  Bytes payload;
  /// Claimed identity of the original publisher (client entity id, or the
  /// broker name for broker-generated traces).
  std::string publisher;
  /// Monotonically increasing per-publisher sequence number.
  std::uint64_t sequence = 0;
  /// Publisher timestamp (µs).
  TimePoint timestamp = 0;
  /// Serialized tracing::AuthorizationToken; empty when not attached.
  Bytes auth_token;
  /// Signature or MAC over the message body; empty when unsigned.
  Bytes signature;
  /// True when `payload` is encrypted with a trace key.
  bool encrypted = false;

  /// Canonical byte encoding of the fields covered by signatures
  /// (everything except `signature` itself).
  [[nodiscard]] Bytes signable_bytes() const;

  void encode(Writer& w) const;
  static Message decode(Reader& r);
  /// Exact encoded size (for Writer::reserve on hot encode paths).
  [[nodiscard]] std::size_t encoded_size() const;
  /// Borrowed view over this message's own storage — valid only while the
  /// Message is alive and unmodified. Lets owning messages flow into
  /// view-based interfaces (MessageFilter) without re-encoding.
  [[nodiscard]] MessageView as_view() const;
};

/// Borrowed decode of a Message: every variable-length field is a view
/// into the frame's wire bytes. Cheap to produce (no allocation), valid
/// only while the wire buffer is — see the file comment.
struct MessageView {
  std::string_view topic;
  BytesView payload;
  std::string_view publisher;
  std::uint64_t sequence = 0;
  TimePoint timestamp = 0;
  BytesView auth_token;
  BytesView signature;
  bool encrypted = false;

  /// Canonical signable encoding, identical to Message::signable_bytes().
  [[nodiscard]] Bytes signable_bytes() const;

  /// Deep-copies into an owning Message. The escape hatch for paths that
  /// outlive the wire buffer: local services, mutation, re-sign.
  [[nodiscard]] Message materialize() const;

  static MessageView decode(Reader& r);
};

/// Protocol verbs. Numbering is part of the wire format.
enum class FrameType : std::uint8_t {
  kConnect = 1,      // client -> broker: attach, carries entity id
  kConnectAck = 2,   // broker -> client
  kSubscribe = 3,    // pattern registration (client->broker, broker->broker)
  kSubscribeAck = 4, // broker -> client: status for a subscribe
  kUnsubscribe = 5,
  kPublish = 6,      // carries a Message
  kError = 7,        // status report
  kKeepalive = 8,    // broker <-> broker liveness probe (status 1 = ack)
  kPeerExchange = 9, // broker <-> broker endpoint gossip (text = directory)
};

/// One frame on the wire.
struct Frame {
  FrameType type = FrameType::kError;
  /// kConnect: entity id. kSubscribe/kUnsubscribe: topic pattern.
  std::string text;
  /// kPublish: the message. Others: absent.
  std::optional<Message> message;
  /// kSubscribeAck / kError: status code (0 = OK) and detail.
  std::uint32_t status = 0;
  std::string detail;
  /// Correlation id for acks.
  std::uint64_t request_id = 0;

  [[nodiscard]] Bytes serialize() const;
  /// Throws SerializeError on malformed input.
  static Frame deserialize(BytesView b);
};

/// Borrowed decode of a Frame (same lifetime rules as MessageView).
/// `wire` keeps the frame's complete wire encoding so a forwarding hop
/// can re-send the original bytes instead of re-serializing.
struct FrameView {
  FrameType type = FrameType::kError;
  std::string_view text;
  std::optional<MessageView> message;
  std::uint32_t status = 0;
  std::string_view detail;
  std::uint64_t request_id = 0;
  BytesView wire;

  /// Deep-copies into an owning Frame.
  [[nodiscard]] Frame materialize() const;

  /// Throws SerializeError on malformed input. Performs exactly the same
  /// validation as Frame::deserialize (magic, type range, trailing bytes).
  static FrameView parse(BytesView b);
};

/// Convenience constructors.
Frame make_connect(std::string entity_id, std::uint64_t request_id);
Frame make_subscribe(std::string pattern, std::uint64_t request_id);
Frame make_unsubscribe(std::string pattern);
Frame make_publish(Message m);
/// Move-aware in-place construction: builds the Message directly inside
/// the Frame, no intermediate copy on the hot publish path.
Frame make_publish(std::string topic, Bytes payload, std::string publisher);
Frame make_error(std::uint32_t status, std::string detail,
                 std::uint64_t request_id);

/// Serializes a kPublish frame around `m` directly — byte-identical to
/// `make_publish(m).serialize()` but without copying the Message into a
/// Frame first. The broker's owning fan-out path encodes once with this
/// and shares the buffer across every destination.
Bytes encode_publish_frame(const Message& m);

}  // namespace et::pubsub
