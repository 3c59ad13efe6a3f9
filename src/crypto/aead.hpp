// Authenticated encryption (ChaCha20 + HMAC-SHA256, encrypt-then-MAC).
//
// Realizes the paper's "private channels among the agents" assumption:
// Phase II share bundles travel sealed under pairwise session keys (see
// crypto/dh.hpp). Not a misuse-resistant AEAD — nonces are deterministic
// per-message counters managed by the channel layer and must never repeat
// under one key.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "crypto/sha256.hpp"
#include "support/secret.hpp"

namespace dmw::crypto {

inline constexpr std::size_t kAeadKeyBytes = 32;
inline constexpr std::size_t kAeadTagBytes = 16;

/// A channel key's derived schedule: the ChaCha20 subkey and the MAC
/// subkey as keyed HMAC midstates. Built once per directional key, so a
/// seal or open runs no key derivation.
struct AeadSchedule {
  std::array<std::uint8_t, kAeadKeyBytes> enc{};  ///< HKDF "dmw-aead-enc"
  HmacSha256 mac;                                 ///< HKDF "dmw-aead-mac"
};
// Secret<> byte-wipes it and ct_eq compares its bytes: both need a
// trivially copyable type whose every byte is part of the value.
static_assert(std::has_unique_object_representations_v<AeadSchedule>);

/// AEAD key material is always handled through the secret-hygiene layer:
/// zeroized on destruction, auditable reveal() for the primitive calls.
using AeadKey = Secret<AeadSchedule>;

/// Derive the schedule of a 32-byte channel key: one HKDF extract (no
/// salt), expanded under "dmw-aead-enc" and "dmw-aead-mac". The only place
/// subkeys are derived. Intermediates are wiped; the caller owns `bytes`
/// and should zeroize them after handing them over.
AeadKey make_aead_key(std::span<const std::uint8_t> bytes);

/// XOR `data` in place with the ChaCha20 keystream for (key, nonce).
void chacha20_xor(std::span<const std::uint8_t> key32, std::uint64_t nonce,
                  std::span<std::uint8_t> data);

/// Seal: returns ciphertext || tag. `aad` is authenticated but not
/// encrypted (the channel layer binds sender, receiver and message kind).
std::vector<std::uint8_t> aead_seal(const AeadKey& key, std::uint64_t nonce,
                                    std::span<const std::uint8_t> plaintext,
                                    std::span<const std::uint8_t> aad);

/// Open: verifies the tag (constant-time comparison) and decrypts.
/// Returns nullopt on any authentication failure.
std::optional<std::vector<std::uint8_t>> aead_open(
    const AeadKey& key, std::uint64_t nonce,
    std::span<const std::uint8_t> sealed, std::span<const std::uint8_t> aad);

}  // namespace dmw::crypto
