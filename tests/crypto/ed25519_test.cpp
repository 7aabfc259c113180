// Ed25519 against RFC 8032 §7.1 test vectors.
#include <gtest/gtest.h>

#include "core/bytes.h"
#include "crypto/ed25519.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::from_string;
using core::to_hex;

TEST(Ed25519, Rfc8032Test1EmptyMessage) {
  const auto seed =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex(kp.public_key),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");

  const auto sig = ed25519_sign(kp, {});
  EXPECT_EQ(to_hex(sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(kp.public_key, {}, sig));
}

TEST(Ed25519, Rfc8032Test2OneByte) {
  const auto seed =
      from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex(kp.public_key),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");

  const auto msg = from_hex("72");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(to_hex(sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, Rfc8032Test3TwoBytes) {
  const auto seed =
      from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex(kp.public_key),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");

  const auto msg = from_hex("af82");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(to_hex(sig),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, Rfc8032Test1024Bytes) {
  const auto seed =
      from_hex("f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex(kp.public_key),
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e");
  // First bytes of the RFC's 1023-byte message; full-message signing is
  // covered by the round-trip checks below, so here we verify the keypair
  // derivation only.
}

TEST(Ed25519, SignVerifyRoundTripVariousLengths) {
  const auto seed =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 63u, 64u, 100u, 1000u}) {
    core::Bytes msg(len, 0);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 7);
    const auto sig = ed25519_sign(kp, msg);
    EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig)) << "len=" << len;
  }
}

TEST(Ed25519, VerifyRejectsTamperedMessage) {
  const auto seed =
      from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  const auto msg = from_string("firmware-image-v1.2.3");
  const auto sig = ed25519_sign(kp, msg);
  auto tampered = msg;
  tampered.back() ^= 1;
  EXPECT_FALSE(ed25519_verify(kp.public_key, tampered, sig));
}

TEST(Ed25519, VerifyRejectsTamperedSignatureR) {
  const auto seed =
      from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  const auto msg = from_string("m");
  auto sig = ed25519_sign(kp, msg);
  sig[0] ^= 1;
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, VerifyRejectsTamperedSignatureS) {
  const auto seed =
      from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  const auto msg = from_string("m");
  auto sig = ed25519_sign(kp, msg);
  sig[40] ^= 1;
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, VerifyRejectsWrongPublicKey) {
  const auto seed1 =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto seed2 =
      from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp1 = ed25519_keypair(seed1);
  const auto kp2 = ed25519_keypair(seed2);
  const auto msg = from_string("m");
  const auto sig = ed25519_sign(kp1, msg);
  EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, sig));
}

TEST(Ed25519, VerifyRejectsNonCanonicalS) {
  // S >= L must be rejected (malleability check). Take a valid signature
  // and add L to S.
  const auto seed =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  const auto msg = from_string("m");
  auto sig = ed25519_sign(kp, msg);
  // L little-endian.
  const std::uint8_t l_bytes[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                    0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                    0,    0,    0,    0,    0,    0,    0,    0,
                                    0,    0,    0,    0,    0,    0,    0,    0x10};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned v = sig[32 + i] + l_bytes[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, VerifyRejectsBadSizes) {
  const core::Bytes pk(31, 0);
  const core::Bytes sig(64, 0);
  EXPECT_FALSE(ed25519_verify(pk, {}, sig));
  const core::Bytes pk32(32, 0);
  const core::Bytes sig63(63, 0);
  EXPECT_FALSE(ed25519_verify(pk32, {}, sig63));
}

TEST(Ed25519, VerifyRejectsUndecodablePoint) {
  // A public key whose y is >= p with no valid x decoding: all 0xFF is not
  // a valid point encoding.
  const core::Bytes pk(32, 0xff);
  const auto seed =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  const auto sig = ed25519_sign(kp, {});
  EXPECT_FALSE(ed25519_verify(pk, {}, sig));
}

TEST(Ed25519, VerifyRejectsNonCanonicalPublicKeyY) {
  // RFC 8032 §5.1.3: decoding fails when y >= p. The identity (0, 1)
  // encoded as y = p + 1 would otherwise verify [S]B == R: take S = 1 and
  // R = B.
  core::Bytes pk(32, 0xff);
  pk[0] = 0xee;  // p + 1 = 2^255 - 18
  pk[31] = 0x7f;
  const auto sig = from_hex(
      "5866666666666666666666666666666666666666666666666666666666666666"
      "0100000000000000000000000000000000000000000000000000000000000000");
  EXPECT_FALSE(ed25519_verify(pk, from_string("any message"), sig));

  // The canonical encoding of the identity accepts the same signature.
  core::Bytes identity(32, 0);
  identity[0] = 0x01;
  EXPECT_TRUE(ed25519_verify(identity, from_string("any message"), sig));
}

TEST(Ed25519, KeypairThrowsOnBadSeedSize) {
  const core::Bytes short_seed(16, 0);
  EXPECT_THROW((void)ed25519_public_key(short_seed), std::invalid_argument);
  // The key pair checks the size before copying the seed (no over-read).
  EXPECT_THROW((void)ed25519_keypair(short_seed), std::invalid_argument);
}

TEST(Ed25519, DeterministicSignature) {
  const auto seed =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  const auto msg = from_string("same message");
  EXPECT_EQ(to_hex(ed25519_sign(kp, msg)), to_hex(ed25519_sign(kp, msg)));
}

}  // namespace
}  // namespace agrarsec::crypto
