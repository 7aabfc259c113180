// Ed25519 signatures (RFC 8032). Used for firmware/image signing (secure
// boot), certificate signatures in the PKI, and handshake authentication.
// Verified against the RFC 8032 §7.1 test vectors in tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace agrarsec::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

/// Key pair. The seed is the RFC 8032 32-byte private key.
struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey public_key;
};

/// Derives the public key from a 32-byte seed. Throws
/// std::invalid_argument for any other size.
[[nodiscard]] Ed25519PublicKey ed25519_public_key(std::span<const std::uint8_t> seed);

/// Builds a key pair from a seed; throws like ed25519_public_key.
[[nodiscard]] Ed25519KeyPair ed25519_keypair(std::span<const std::uint8_t> seed);

/// Signs `message` (deterministic, per RFC 8032).
[[nodiscard]] Ed25519Signature ed25519_sign(const Ed25519KeyPair& keypair,
                                            std::span<const std::uint8_t> message);

/// Verifies a signature. Rejects non-canonical S (S >= L), public keys
/// whose y is not canonical (y >= p) and undecodable points.
[[nodiscard]] bool ed25519_verify(std::span<const std::uint8_t> public_key,
                                  std::span<const std::uint8_t> message,
                                  std::span<const std::uint8_t> signature);

}  // namespace agrarsec::crypto
