// SHA-256 / SHA-512 against FIPS 180-4 / NIST CAVS vectors.
#include <gtest/gtest.h>

#include "core/bytes.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::from_string;
using core::to_hex;

std::string sha256_hex(std::string_view msg) {
  const auto d = Sha256::hash(from_string(msg));
  return to_hex(d);
}

std::string sha512_hex(std::string_view msg) {
  const auto d = Sha512::hash(from_string(msg));
  return to_hex(d);
}

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const core::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  // Split at awkward boundaries relative to the 64-byte block size.
  const std::string msg(200, 'x');
  for (std::size_t split : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 199u}) {
    Sha256 h;
    h.update(from_string(msg.substr(0, split)));
    h.update(from_string(msg.substr(split)));
    EXPECT_EQ(to_hex(h.finish()), sha256_hex(msg)) << "split=" << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(from_string("garbage"));
  (void)h.finish();
  h.reset();
  h.update(from_string("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ExactBlockBoundaryMessage) {
  // 64-byte message exercises the padding-to-new-block path.
  EXPECT_EQ(sha256_hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

// An empty span carries a null data(); with "abc" buffered, update({})
// must not hand it to memcpy (UBSan: null pointer passed as argument).
TEST(Sha256, EmptyUpdateAfterPartialBlock) {
  Sha256 h;
  h.update(from_string("abc"));
  h.update({});
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha512, EmptyMessage) {
  EXPECT_EQ(sha512_hex(""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(sha512_hex("abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(sha512_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  Sha512 h;
  const core::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  const std::string msg(400, 'y');
  for (std::size_t split : {1u, 127u, 128u, 129u, 255u, 256u, 257u, 399u}) {
    Sha512 h;
    h.update(from_string(msg.substr(0, split)));
    h.update(from_string(msg.substr(split)));
    EXPECT_EQ(to_hex(h.finish()), sha512_hex(msg)) << "split=" << split;
  }
}

TEST(Sha512, ExactBlockBoundaryMessage) {
  EXPECT_EQ(sha512_hex(std::string(128, 'a')),
            "b73d1929aa615934e61a871596b3f3b33359f42b8175602e89f7e06e5f658a24"
            "3667807ed300314b95cacdd579f3e33abdfbe351909519a846d465c59582f321");
}

// Differential property: distinct short messages must not collide (sanity
// sweep over 1 000 single-byte-different messages).
TEST(Sha512, EmptyUpdateAfterPartialBlock) {
  Sha512 h;
  h.update(from_string("abc"));
  h.update({});
  EXPECT_EQ(to_hex(h.finish()), sha512_hex("abc"));
}

TEST(Sha256, NoTrivialCollisionsOnByteFlips) {
  core::Bytes base(32, 0);
  const auto ref = Sha256::hash(base);
  for (int i = 0; i < 32; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      core::Bytes mutated = base;
      mutated[static_cast<std::size_t>(i)] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(to_hex(Sha256::hash(mutated)), to_hex(ref));
    }
  }
}

}  // namespace
}  // namespace agrarsec::crypto
