// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for pseudonym derivation, deterministic per-task seed expansion
// (via HMAC/HKDF), the AEAD tag and the protocol audit transcript.
//
// Two compression kernels share one contract (bit-identical chaining
// values): the portable scalar routine, which is the reference and the
// fallback, and an x86 SHA-extensions (SHA-NI) kernel, compiled only when
// DMW_SIMD is on and installed only when the running CPU has the
// extensions. The choice is made once per process; sha256_backend() names
// it so a timing can say which kernel produced it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dmw::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  /// Chaining value between compression blocks.
  using State = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }

  /// A hash that has already absorbed `blocks` whole 64-byte blocks and
  /// holds chaining value `state` (a midstate taken with midstate()).
  static Sha256 resume(const State& state, std::uint64_t blocks);

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }
  /// Finalize and return the digest; the object must be reset() before reuse.
  Digest256 finish();

  /// Chaining value after a whole number of blocks (nothing buffered).
  State midstate() const;

  static Digest256 hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }
  static Digest256 hash(std::string_view text) {
    Sha256 h;
    h.update(text);
    return h.finish();
  }

 private:
  State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

std::string digest_hex(const Digest256& digest);

/// The compression kernel this process runs: "sha-ni" or "scalar".
const char* sha256_backend();

namespace detail {

/// Compress `n` consecutive 64-byte blocks into `state` (FIPS 180-4 §6.2.2).
using CompressFn = void (*)(Sha256::State& state, const std::uint8_t* blocks,
                            std::size_t n);

/// The portable kernel: the reference every other kernel must match, and
/// the fallback on every host.
void compress_scalar(Sha256::State& state, const std::uint8_t* blocks,
                     std::size_t n);

/// The SHA-NI kernel, or nullptr when this build compiled no x86 SIMD code
/// or this CPU lacks the SHA extensions.
CompressFn sha_ni_kernel();

}  // namespace detail

/// HMAC-SHA256 keyed once (RFC 2104 §4): holds the compression midstates
/// after the ipad and opad blocks, so each MAC costs only the message
/// blocks plus one outer block. Trivially copyable with no padding bytes,
/// so Secret<> wipes it and ct_eq compares it; treat it as key material.
class HmacSha256 {
 public:
  HmacSha256() = default;
  explicit HmacSha256(std::span<const std::uint8_t> key);

  /// MAC over the concatenation of `parts`.
  Digest256 mac(std::initializer_list<std::span<const std::uint8_t>> parts)
      const;
  Digest256 mac(std::span<const std::uint8_t> message) const {
    return mac({message});
  }

 private:
  Sha256::State inner_{};  ///< after absorbing key ^ ipad
  Sha256::State outer_{};  ///< after absorbing key ^ opad
};

/// HMAC-SHA256 (RFC 2104).
Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message);

/// HKDF-SHA256 extract (RFC 5869 §2.2). An empty salt (HashLen zeros)
/// uses a keyed state built once per process.
Digest256 hkdf_extract(std::span<const std::uint8_t> salt,
                       std::span<const std::uint8_t> ikm);

/// HKDF-SHA256 expand (RFC 5869 §2.3) under the keyed PRK, filling `out`
/// (at most 255*32 bytes).
void hkdf_expand(const HmacSha256& prk, std::string_view info,
                 std::span<std::uint8_t> out);

/// HKDF-SHA256 extract-then-expand (RFC 5869); `length` <= 255*32.
std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> salt,
                                      std::string_view info,
                                      std::size_t length);

}  // namespace dmw::crypto
