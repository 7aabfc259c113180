// HMAC-SHA256 against RFC 4231 test vectors.
#include <gtest/gtest.h>

#include "core/bytes.h"
#include "crypto/hmac.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::from_string;
using core::to_hex;

TEST(HmacSha256, Rfc4231Case1) {
  const auto key = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto data = from_string("Hi There");
  EXPECT_EQ(to_hex(HmacSha256::mac(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto key = from_string("Jefe");
  const auto data = from_string("what do ya want for nothing?");
  EXPECT_EQ(to_hex(HmacSha256::mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const auto key = from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
  const core::Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(HmacSha256::mac(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  const auto key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const core::Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(HmacSha256::mac(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const core::Bytes key(131, 0xaa);
  const auto data = from_string("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(HmacSha256::mac(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7LongKeyLongData) {
  const core::Bytes key(131, 0xaa);
  const auto data = from_string(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(HmacSha256::mac(key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, IncrementalMatchesOneShot) {
  const auto key = from_string("incremental-key");
  const auto data = from_string("part-one|part-two|part-three");
  HmacSha256 h{key};
  h.update(from_string("part-one|"));
  h.update(from_string("part-two|"));
  h.update(from_string("part-three"));
  EXPECT_EQ(to_hex(h.finish()), to_hex(HmacSha256::mac(key, data)));
}

TEST(HmacSha256, VerifyAcceptsCorrectTag) {
  const auto key = from_string("k");
  const auto data = from_string("d");
  const auto tag = HmacSha256::mac(key, data);
  EXPECT_TRUE(HmacSha256::verify(key, data, tag));
}

TEST(HmacSha256, VerifyRejectsTamperedTag) {
  const auto key = from_string("k");
  const auto data = from_string("d");
  auto tag = HmacSha256::mac(key, data);
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha256::verify(key, data, tag));
}

TEST(HmacSha256, VerifyRejectsTamperedData) {
  const auto key = from_string("k");
  const auto tag = HmacSha256::mac(key, from_string("d"));
  EXPECT_FALSE(HmacSha256::verify(key, from_string("e"), tag));
}

TEST(HmacSha256, VerifyRejectsWrongKey) {
  const auto data = from_string("d");
  const auto tag = HmacSha256::mac(from_string("k1"), data);
  EXPECT_FALSE(HmacSha256::verify(from_string("k2"), data, tag));
}

TEST(HmacSha256, EmptyKeyAndMessageSupported) {
  const auto tag = HmacSha256::mac({}, {});
  EXPECT_EQ(to_hex(tag),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

// An empty key span carries a null data(); padding it into the block key
// must not hand that pointer to memcpy (UBSan: null pointer argument).
TEST(HmacSha256, EmptyKeyConstructorCopiesNothing) {
  HmacSha256 hmac({});
  const auto data = from_string("abc");
  hmac.update(data);
  // RFC 2104 zero-pads a short key to the block size, so the empty key
  // is the all-zero block key.
  EXPECT_EQ(hmac.finish(), HmacSha256::mac(core::Bytes(Sha256::kBlockSize, 0), data));
}

}  // namespace
}  // namespace agrarsec::crypto
