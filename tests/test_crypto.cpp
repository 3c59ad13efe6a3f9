// SHA-256 / HMAC / HKDF / ChaCha20 against published test vectors, plus the
// deterministic CSPRNG and the protocol transcript.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "crypto/chacha.hpp"
#include "crypto/sha256.hpp"
#include "crypto/transcript.hpp"
#include "support/check.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"

namespace dmw::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, Fips180MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string message = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 h;
    h.update(message.substr(0, split));
    h.update(message.substr(split));
    EXPECT_EQ(digest_hex(h.finish()), digest_hex(Sha256::hash(message)));
  }
}

TEST(Sha256, ExactBlockBoundaryPadding) {
  // 55, 56 and 64 byte messages exercise all padding branches.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string message(len, 'x');
    Sha256 a;
    a.update(message);
    Sha256 b;
    for (char c : message) b.update(std::string_view(&c, 1));
    EXPECT_EQ(digest_hex(a.finish()), digest_hex(b.finish())) << len;
  }
}

TEST(Sha256, ReuseAfterFinishRequiresReset) {
  Sha256 h;
  h.update("abc");
  (void)h.finish();
  EXPECT_THROW(h.update("more"), dmw::CheckError);
  h.reset();
  h.update("abc");
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto mac = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac =
      hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKeyData) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6KeyLargerThanBlock) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  const std::vector<std::uint8_t> ikm(22, 0x0b);
  const auto salt = dmw::from_hex("000102030405060708090a0b0c");
  std::string info;
  for (int i = 0xf0; i <= 0xf9; ++i) info.push_back(static_cast<char>(i));
  const auto okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(dmw::to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySalt) {
  // Zero-length salt and info: the extract runs under the cached keyed
  // state for the empty salt. Run twice to cover its reuse.
  const std::vector<std::uint8_t> ikm(22, 0x0b);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(dmw::to_hex(hkdf_sha256(ikm, {}, "", 42)),
              "8da4e775a563c18f715f802a063c5a31"
              "b8a11f5c5ee1879ec3454e5f3c738d2d"
              "9d201395faa4b61a96c8");
  }
  // An explicit salt of HashLen zeros is the same key as no salt.
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(hkdf_extract({}, ikm), hkdf_extract(zeros, ikm));
  EXPECT_EQ(dmw::to_hex(hkdf_extract({}, ikm)),
            "19ef24a32c717b167f33a91d6f648bdf"
            "96596776afdb6377ac434c1c293ccb04");
}

TEST(HmacSha256, ReusedKeyMatchesOneShotEveryTime) {
  // Key lengths below, at and above the block size (the last is hashed).
  for (const std::size_t key_len : {0u, 20u, 32u, 64u, 131u}) {
    std::vector<std::uint8_t> key(key_len);
    for (std::size_t i = 0; i < key_len; ++i)
      key[i] = static_cast<std::uint8_t>(i * 13 + 5);
    const HmacSha256 keyed(key);
    for (std::size_t len = 0; len < 200; ++len) {
      std::vector<std::uint8_t> message(len);
      for (std::size_t i = 0; i < len; ++i)
        message[i] = static_cast<std::uint8_t>(i ^ len);
      const Digest256 expected = hmac_sha256(key, message);
      ASSERT_EQ(keyed.mac(message), expected) << key_len << " " << len;
      // Any split of the message into parts MACs the concatenation.
      const std::span<const std::uint8_t> all(message);
      const std::size_t cut = len / 3;
      const Digest256 split = keyed.mac(
          {all.first(cut), all.subspan(cut, len - 2 * cut), all.last(cut)});
      ASSERT_EQ(split, expected) << key_len << " " << len;
    }
  }
}

TEST(Sha256, ResumeFromMidstateContinuesTheHash) {
  std::vector<std::uint8_t> message(64 * 3 + 17);
  for (std::size_t i = 0; i < message.size(); ++i)
    message[i] = static_cast<std::uint8_t>(i * 7);
  const std::span<const std::uint8_t> all(message);
  Sha256 prefix;
  prefix.update(all.first(128));
  Sha256 resumed = Sha256::resume(prefix.midstate(), 2);
  resumed.update(all.subspan(128));
  EXPECT_EQ(resumed.finish(), Sha256::hash(message));
  Sha256 partial;
  partial.update(all.first(10));
  EXPECT_THROW((void)partial.midstate(), dmw::CheckError);
}

// The initial hash value (FIPS 180-4 §5.3.3).
constexpr Sha256::State kSha256Iv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};

TEST(Sha256, ScalarKernelMatchesFips180Abc) {
  // The padded one-block message "abc" compressed from the IV is the
  // digest, whichever kernel this host dispatches to.
  std::array<std::uint8_t, 64> block{'a', 'b', 'c', 0x80};
  block[63] = 24;  // bit length
  Sha256::State state = kSha256Iv;
  detail::compress_scalar(state, block.data(), 1);
  EXPECT_EQ(state, (Sha256::State{0xba7816bf, 0x8f01cfea, 0x414140de,
                                  0x5dae2223, 0xb00361a3, 0x96177a9c,
                                  0xb410ff61, 0xf20015ad}));
}

TEST(Sha256, HardwareKernelMatchesScalar) {
  const detail::CompressFn hardware = detail::sha_ni_kernel();
  if (hardware == nullptr)
    GTEST_SKIP() << "no SHA-NI kernel in this build or on this CPU";
  EXPECT_STREQ(sha256_backend(), "sha-ni");
  Xoshiro256ss rng(20260418);
  std::array<std::uint8_t, 8 * 64> blocks;
  for (int trial = 0; trial < 10000; ++trial) {
    Sha256::State start;
    for (auto& word : start) word = static_cast<std::uint32_t>(rng.next());
    for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng.next());
    const std::size_t n = 1 + rng.below(8);
    Sha256::State expected = start;
    detail::compress_scalar(expected, blocks.data(), n);
    Sha256::State got = start;
    hardware(got, blocks.data(), n);
    ASSERT_EQ(got, expected) << "trial " << trial << ", " << n << " blocks";
  }
}

TEST(Sha256, EverySplitMatchesOneShot) {
  // Two updates split anywhere: the first may leave a partial block
  // buffered, the second then completes it and runs the whole-block rest.
  std::vector<std::uint8_t> message(300);
  for (std::size_t i = 0; i < message.size(); ++i)
    message[i] = static_cast<std::uint8_t>(i * 31 + 7);
  for (std::size_t len = 0; len <= message.size(); ++len) {
    const std::span<const std::uint8_t> all(message.data(), len);
    const Digest256 expected = Sha256::hash(all);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      Sha256 h;
      h.update(all.first(cut));
      h.update(all.subspan(cut));
      ASSERT_EQ(h.finish(), expected) << len << " split at " << cut;
    }
  }
}

TEST(Hkdf, LengthControl) {
  const std::vector<std::uint8_t> ikm(16, 1);
  const std::vector<std::uint8_t> salt;
  EXPECT_EQ(hkdf_sha256(ikm, salt, "x", 0).size(), 0u);
  EXPECT_EQ(hkdf_sha256(ikm, salt, "x", 33).size(), 33u);
  EXPECT_EQ(hkdf_sha256(ikm, salt, "x", 100).size(), 100u);
  // Prefix property: shorter output is a prefix of longer output.
  const auto a = hkdf_sha256(ikm, salt, "x", 40);
  const auto b = hkdf_sha256(ikm, salt, "x", 80);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  std::array<std::uint32_t, 8> key;
  for (int i = 0; i < 8; ++i)
    key[i] = static_cast<std::uint32_t>(4 * i) |
             (static_cast<std::uint32_t>(4 * i + 1) << 8) |
             (static_cast<std::uint32_t>(4 * i + 2) << 16) |
             (static_cast<std::uint32_t>(4 * i + 3) << 24);
  const std::array<std::uint32_t, 3> nonce = {0x09000000, 0x4a000000,
                                              0x00000000};
  std::array<std::uint8_t, 64> block;
  chacha20_block(key, 1, nonce, block);
  EXPECT_EQ(dmw::to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaChaRng, DeterministicAcrossInstances) {
  auto a = ChaChaRng::from_seed(7);
  auto b = ChaChaRng::from_seed(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(ChaChaRng, StreamsAreIndependent) {
  auto a = ChaChaRng::from_seed(7, 0);
  auto b = ChaChaRng::from_seed(7, 1);
  bool all_equal = true;
  for (int i = 0; i < 50; ++i)
    if (a.next() != b.next()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(ChaChaRng, BelowIsInRange) {
  auto rng = ChaChaRng::from_seed(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(ChaChaRng, FillProducesKeystreamBytes) {
  auto a = ChaChaRng::from_seed(11);
  auto b = ChaChaRng::from_seed(11);
  std::vector<std::uint8_t> buf1(100), buf2(100);
  a.fill(buf1);
  b.fill(buf2);
  EXPECT_EQ(buf1, buf2);
  EXPECT_NE(buf1, std::vector<std::uint8_t>(100, 0));
}

TEST(Transcript, DeterministicAndOrderSensitive) {
  Transcript a("t"), b("t"), c("t");
  a.append_u64("x", 1);
  a.append_u64("y", 2);
  b.append_u64("x", 1);
  b.append_u64("y", 2);
  c.append_u64("y", 2);
  c.append_u64("x", 1);
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  EXPECT_NE(a.digest_hex(), c.digest_hex());
}

TEST(Transcript, DomainSeparated) {
  Transcript a("alpha"), b("beta");
  a.append_u64("x", 1);
  b.append_u64("x", 1);
  EXPECT_NE(a.digest_hex(), b.digest_hex());
}

TEST(Transcript, LengthFramingPreventsAmbiguity) {
  // ("ab", "c") must not collide with ("a", "bc").
  Transcript a("t"), b("t");
  a.append_label("ab");
  a.append_label("c");
  b.append_label("a");
  b.append_label("bc");
  EXPECT_NE(a.digest_hex(), b.digest_hex());
}

TEST(Transcript, AppendPostingMatchesLabelledAppends) {
  Transcript bulk("t"), labelled("t");
  for (std::uint64_t p = 0; p < 40; ++p) {
    const std::vector<std::uint8_t> payload(p * 11 % 97,
                                            static_cast<std::uint8_t>(p));
    const std::uint64_t from = p % 7, kind = p * 0x0101010101ULL;
    bulk.append_posting(from, kind, payload);
    labelled.append_u64("from", from);
    labelled.append_u64("kind", kind);
    labelled.append_bytes("payload", payload);
    ASSERT_EQ(bulk.digest_hex(), labelled.digest_hex()) << p;
  }
}

TEST(Transcript, DigestIsNonDestructive) {
  Transcript t("t");
  t.append_u64("x", 1);
  const auto d1 = t.digest_hex();
  const auto d2 = t.digest_hex();
  EXPECT_EQ(d1, d2);
  t.append_u64("y", 2);
  EXPECT_NE(t.digest_hex(), d1);
}

}  // namespace
}  // namespace dmw::crypto
