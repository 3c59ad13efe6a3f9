// Protocol audit transcript.
//
// Every published protocol message is absorbed into a running hash with a
// domain-separated label. At the end of a run all honest agents must hold the
// same transcript digest; a mismatch is evidence that some party equivocated
// on the broadcast channel. (The paper assumes a reliable broadcast; the
// transcript gives the simulation a cheap way to *check* that assumption.)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"

namespace dmw::crypto {

class Transcript {
 public:
  explicit Transcript(std::string_view domain) {
    append_label("dmw-transcript-v1");
    append_label(domain);
  }

  void append_label(std::string_view label) {
    absorb_length(label.size());
    hash_.update(label);
  }

  void append_u64(std::string_view label, std::uint64_t value) {
    append_label(label);
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    absorb_length(8);
    hash_.update(std::span<const std::uint8_t>(bytes));
  }

  void append_bytes(std::string_view label,
                    std::span<const std::uint8_t> bytes) {
    append_label(label);
    absorb_length(bytes.size());
    hash_.update(bytes);
  }

  /// One bulletin posting: the same bytes as append_u64("from", from),
  /// append_u64("kind", kind) and append_bytes("payload", payload), fed as
  /// one framed header and the payload.
  void append_posting(std::uint64_t from, std::uint64_t kind,
                      std::span<const std::uint8_t> payload) {
    // (8 + 4 + 8 + 8) "from" + (8 + 4 + 8 + 8) "kind" + (8 + 7 + 8) "payload"
    std::array<std::uint8_t, 79> header;
    std::size_t at = 0;
    const auto put_u64 = [&](std::uint64_t value) {
      for (int i = 0; i < 8; ++i)
        header[at++] = static_cast<std::uint8_t>(value >> (8 * i));
    };
    const auto put_label = [&](std::string_view label) {
      put_u64(label.size());
      for (const char c : label) header[at++] = static_cast<std::uint8_t>(c);
    };
    put_label("from");
    put_u64(8);
    put_u64(from);
    put_label("kind");
    put_u64(8);
    put_u64(kind);
    put_label("payload");
    put_u64(payload.size());
    hash_.update(std::span<const std::uint8_t>(header));
    hash_.update(payload);
  }

  /// Finalize a copy of the running state (the transcript stays usable).
  Digest256 digest() const {
    Sha256 copy = hash_;
    return copy.finish();
  }

  std::string digest_hex() const { return crypto::digest_hex(digest()); }

 private:
  void absorb_length(std::size_t n) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<std::uint8_t>(std::uint64_t{n} >> (8 * i));
    hash_.update(std::span<const std::uint8_t>(bytes));
  }

  Sha256 hash_;
};

}  // namespace dmw::crypto
