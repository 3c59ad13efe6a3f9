#include "crypto/sha256.hpp"

#include <cstring>

#include "numeric/simd.hpp"  // DMW_SIMD_X86 and the vendor intrinsics
#include "support/check.hpp"
#include "support/hex.hpp"
#include "support/secret.hpp"

namespace dmw::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(DMW_SIMD_X86)
// When the whole TU is already compiled for SHA-NI (-march=native on such a
// host) the target attribute is redundant and would block inlining.
#if defined(__SHA__) && defined(__SSE4_1__)
#define DMW_TARGET_SHA
#else
#define DMW_TARGET_SHA __attribute__((target("sha,sse4.1")))
#endif
#endif

// The compression kernels must not branch on message or state words (the
// block count is public).
// dmwlint: constant-time
void process_block(Sha256::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace detail {

void compress_scalar(Sha256::State& state, const std::uint8_t* blocks,
                     std::size_t n) {
  for (; n > 0; --n, blocks += 64) process_block(state, blocks);
}

}  // namespace detail

#if defined(DMW_SIMD_X86)
namespace {

// SHA-NI keeps the working variables as two vectors, ABEF and CDGH, and
// retires two rounds per sha256rnds2. A 128-bit message group holds four
// schedule words W[4g..4g+3], lane 0 first.

/// Rounds 4g..4g+3 on message group `msg`.
DMW_TARGET_SHA inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i msg,
                                   int g) {
  const __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               kRoundConstants.data() + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Message group g from groups g-4 .. g-1:
/// W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
DMW_TARGET_SHA inline __m128i next_group(__m128i g4, __m128i g3, __m128i g2,
                                         __m128i g1) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(g4, g3),
                                        _mm_alignr_epi8(g1, g2, 4));
  return _mm_sha256msg2_epu32(partial, g1);
}

DMW_TARGET_SHA void compress_sha_ni(Sha256::State& state,
                                    const std::uint8_t* blocks,
                                    std::size_t n) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto* words = reinterpret_cast<__m128i*>(state.data());
  const __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    rounds4(abef, cdgh, m0, 0);
    rounds4(abef, cdgh, m1, 1);
    rounds4(abef, cdgh, m2, 2);
    rounds4(abef, cdgh, m3, 3);
    for (int g = 4; g < 16; g += 4) {
      m0 = next_group(m0, m1, m2, m3);
      rounds4(abef, cdgh, m0, g);
      m1 = next_group(m1, m2, m3, m0);
      rounds4(abef, cdgh, m1, g + 1);
      m2 = next_group(m2, m3, m0, m1);
      rounds4(abef, cdgh, m2, g + 2);
      m3 = next_group(m3, m0, m1, m2);
      rounds4(abef, cdgh, m3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace
#endif  // DMW_SIMD_X86
// dmwlint: end-constant-time

namespace detail {

CompressFn sha_ni_kernel() {
#if defined(DMW_SIMD_X86)
  // This may run inside another static initializer, before libgcc's own
  // constructor has filled in the CPU model.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    return &compress_sha_ni;
#endif
  return nullptr;
}

}  // namespace detail

namespace {

/// The compression entry point: the SHA-NI kernel when the CPU has it,
/// else the scalar reference, resolved once per process. The branch is on
/// a public CPU flag.
void compress(Sha256::State& state, const std::uint8_t* blocks,
              std::size_t n) {
  static const detail::CompressFn kernel = [] {
    const detail::CompressFn hardware = detail::sha_ni_kernel();
    return hardware != nullptr ? hardware : &detail::compress_scalar;
  }();
  kernel(state, blocks, n);
}

}  // namespace

const char* sha256_backend() {
  return detail::sha_ni_kernel() ? "sha-ni" : "scalar";
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
  finished_ = false;
}

Sha256 Sha256::resume(const State& state, std::uint64_t blocks) {
  Sha256 h;
  h.state_ = state;
  h.total_bytes_ = blocks * 64;
  return h;
}

Sha256::State Sha256::midstate() const {
  DMW_REQUIRE_MSG(!finished_ && buffered_ == 0,
                  "Sha256 midstate needs whole blocks and an open hash");
  return state_;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  DMW_REQUIRE_MSG(!finished_, "Sha256 used after finish(); call reset()");
  if (data.empty()) return;  // an empty span may carry a null data()
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // The whole-block run goes to one call, so the kernel keeps the chaining
  // value in registers across blocks.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest256 Sha256::finish() {
  DMW_REQUIRE_MSG(!finished_, "Sha256::finish called twice");
  finished_ = true;
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i)
    len_be[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  finished_ = false;  // allow the two internal updates
  update(std::span<const std::uint8_t>(pad, pad_len));
  update(std::span<const std::uint8_t>(len_be, 8));
  finished_ = true;
  DMW_CHECK(buffered_ == 0);
  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string digest_hex(const Digest256& digest) {
  return dmw::to_hex(std::span<const std::uint8_t>(digest));
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    Digest256 kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
    zeroize(kd);
  } else if (!key.empty()) {
    std::memcpy(block.data(), key.data(), key.size());
  }
  for (auto& b : block) b ^= 0x36;
  Sha256 h;
  h.update(std::span<const std::uint8_t>(block));
  inner_ = h.midstate();
  for (auto& b : block) b ^= 0x36 ^ 0x5c;
  h.reset();
  h.update(std::span<const std::uint8_t>(block));
  outer_ = h.midstate();
  zeroize(block);
  zeroize(h);
}

Digest256 HmacSha256::mac(
    std::initializer_list<std::span<const std::uint8_t>> parts) const {
  Sha256 inner = Sha256::resume(inner_, 1);
  for (const auto part : parts) inner.update(part);
  const Digest256 inner_digest = inner.finish();
  Sha256 outer = Sha256::resume(outer_, 1);
  outer.update(std::span<const std::uint8_t>(inner_digest));
  return outer.finish();
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) {
  HmacSha256 keyed(key);
  const Digest256 mac = keyed.mac(message);
  zeroize(keyed);
  return mac;
}

Digest256 hkdf_extract(std::span<const std::uint8_t> salt,
                       std::span<const std::uint8_t> ikm) {
  if (salt.empty()) {
    // RFC 5869: a missing salt is HashLen zeros, which pads to the same
    // HMAC key block as the empty key.
    static const HmacSha256 empty_salt{std::span<const std::uint8_t>{}};
    return empty_salt.mac(ikm);
  }
  return HmacSha256(salt).mac(ikm);
}

void hkdf_expand(const HmacSha256& prk, std::string_view info,
                 std::span<std::uint8_t> out) {
  DMW_REQUIRE(out.size() <= 255 * 32);
  const std::span<const std::uint8_t> info_bytes(
      reinterpret_cast<const std::uint8_t*>(info.data()), info.size());
  // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
  Digest256 t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  for (std::size_t offset = 0; offset < out.size(); offset += t.size()) {
    t = prk.mac({std::span<const std::uint8_t>(t.data(), t_len), info_bytes,
                 std::span<const std::uint8_t>(&counter, 1)});
    ++counter;
    t_len = t.size();
    std::memcpy(out.data() + offset, t.data(),
                std::min(t.size(), out.size() - offset));
  }
  zeroize(t);
}

std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> salt,
                                      std::string_view info,
                                      std::size_t length) {
  DMW_REQUIRE(length <= 255 * 32);
  Digest256 prk = hkdf_extract(salt, ikm);
  HmacSha256 keyed(prk);
  std::vector<std::uint8_t> out(length);
  hkdf_expand(keyed, info, out);
  zeroize(prk);
  zeroize(keyed);
  return out;
}

}  // namespace dmw::crypto
