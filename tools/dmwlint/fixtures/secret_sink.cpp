// Fixture: secret-sink rule. Secret-typed identifiers reach sinks only
// through an explicit reveal().
// dmwlint-fixture-path: src/crypto/secret_sink_fixture.cpp
#include "crypto/aead.hpp"
#include "support/logging.hpp"
#include "support/secret.hpp"

namespace dmw {

void leak_examples(const Secret<int>& token, const crypto::AeadKey& key,
                   const crypto::HmacSha256& mac_key) {
  DMW_INFO("token=%d", token);  // EXPECT: secret-sink

  std::printf("%d\n", token);  // EXPECT: secret-sink

  // A sink statement that spans lines is still one statement.
  DMW_WARN("key byte %u",  // EXPECT: secret-sink
           key[0]);

  DMW_DEBUG("mac midstates at %p", &mac_key);  // EXPECT: secret-sink

  // Mentioning a secret inside a *string* is fine: literals are blanked.
  DMW_INFO("the token and key are not printed here");

  // The reveal() token is the sanctioned path.
  DMW_DEBUG("token=%d", token.reveal());
  std::printf("%d\n", key.reveal().enc[0]);

  // dmwlint:allow(secret-sink) test vector dump, gated at call site
  DMW_TRACE("raw=%d", token);
}

void not_a_sink(const Secret<int>& token) {
  // Plain computation with a secret is not a finding.
  const int doubled = token.reveal() * 2;
  (void)doubled;
}

}  // namespace dmw
