#include "crypto/aead.hpp"

#include <algorithm>

#include "crypto/chacha.hpp"
#include "crypto/sha256.hpp"
#include "support/check.hpp"
#include "support/secret.hpp"

namespace dmw::crypto {

namespace {

void store_le64(std::array<std::uint8_t, 8>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
}

Digest256 compute_tag(const HmacSha256& mac_key, std::uint64_t nonce,
                      std::span<const std::uint8_t> ciphertext,
                      std::span<const std::uint8_t> aad) {
  // MAC input: len(aad) || aad || nonce || ciphertext (length framing
  // prevents boundary ambiguity). The framing words sit on the stack and
  // aad and ciphertext are MACed in place.
  std::array<std::uint8_t, 8> aad_len, nonce_le;
  store_le64(aad_len, aad.size());
  store_le64(nonce_le, nonce);
  return mac_key.mac({aad_len, aad, nonce_le, ciphertext});
}

}  // namespace

AeadKey make_aead_key(std::span<const std::uint8_t> bytes) {
  DMW_REQUIRE(bytes.size() == kAeadKeyBytes);
  Digest256 prk = hkdf_extract({}, bytes);
  HmacSha256 prf(prk);
  std::array<std::uint8_t, kAeadKeyBytes> mac_bytes{};
  AeadKey key;
  hkdf_expand(prf, "dmw-aead-enc", key.reveal_mut().enc);
  hkdf_expand(prf, "dmw-aead-mac", mac_bytes);
  HmacSha256 mac(mac_bytes);
  key.reveal_mut().mac = mac;
  zeroize(prk);
  zeroize(prf);
  zeroize(mac_bytes);
  zeroize(mac);
  return key;
}

void chacha20_xor(std::span<const std::uint8_t> key32, std::uint64_t nonce,
                  std::span<std::uint8_t> data) {
  DMW_REQUIRE(key32.size() == kAeadKeyBytes);
  std::array<std::uint32_t, 8> key;
  for (int i = 0; i < 8; ++i) {
    key[i] = std::uint32_t{key32[4 * i]} |
             (std::uint32_t{key32[4 * i + 1]} << 8) |
             (std::uint32_t{key32[4 * i + 2]} << 16) |
             (std::uint32_t{key32[4 * i + 3]} << 24);
  }
  const std::array<std::uint32_t, 3> nonce_words = {
      static_cast<std::uint32_t>(nonce),
      static_cast<std::uint32_t>(nonce >> 32), 0x64616561};  // "aead"
  std::array<std::uint8_t, 64> block;
  std::uint32_t counter = 0;
  for (std::size_t offset = 0; offset < data.size(); offset += 64) {
    chacha20_block(key, counter++, nonce_words, block);
    const std::size_t chunk = std::min<std::size_t>(64, data.size() - offset);
    for (std::size_t i = 0; i < chunk; ++i) data[offset + i] ^= block[i];
  }
  zeroize(key);
  zeroize(block);
}

std::vector<std::uint8_t> aead_seal(const AeadKey& key, std::uint64_t nonce,
                                    std::span<const std::uint8_t> plaintext,
                                    std::span<const std::uint8_t> aad) {
  const AeadSchedule& schedule = key.reveal();
  std::vector<std::uint8_t> out(plaintext.size() + kAeadTagBytes);
  const std::span<std::uint8_t> ciphertext =
      std::span(out).first(plaintext.size());
  std::copy(plaintext.begin(), plaintext.end(), ciphertext.begin());
  chacha20_xor(schedule.enc, nonce, ciphertext);
  const Digest256 tag = compute_tag(schedule.mac, nonce, ciphertext, aad);
  std::copy_n(tag.begin(), kAeadTagBytes, out.begin() + plaintext.size());
  return out;
}

std::optional<std::vector<std::uint8_t>> aead_open(
    const AeadKey& key, std::uint64_t nonce,
    std::span<const std::uint8_t> sealed, std::span<const std::uint8_t> aad) {
  if (sealed.size() < kAeadTagBytes) return std::nullopt;
  const AeadSchedule& schedule = key.reveal();
  const auto ciphertext = sealed.first(sealed.size() - kAeadTagBytes);
  const auto tag = sealed.last(kAeadTagBytes);
  const Digest256 expected = compute_tag(schedule.mac, nonce, ciphertext, aad);
  if (!ct_eq(tag, std::span<const std::uint8_t>(expected.data(),
                                                kAeadTagBytes)))
    return std::nullopt;
  std::vector<std::uint8_t> out(ciphertext.begin(), ciphertext.end());
  chacha20_xor(schedule.enc, nonce, out);
  return out;
}

}  // namespace dmw::crypto
