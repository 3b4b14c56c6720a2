// Ed25519 signatures (RFC 8032), implemented from scratch:
//   - field arithmetic mod p = 2^255 - 19 (5 x 51-bit limbs, __int128 mul,
//     dedicated squaring)
//   - twisted Edwards point arithmetic in extended coordinates with the
//     unified add-2008-hwcd-3 formulas plus a dedicated doubling and mixed
//     additions against precomputed (y+x, y-x, 2dxy) points
//   - scalar arithmetic mod the group order L (byte-limb folding reduction
//     on the fast path, binary long division on the reference path)
//   - SHA-512 from src/crypto/sha2.h
//
// Two code paths produce bit-identical signatures and verdicts:
//   - the *fast path* (default): a precomputed signed-radix-16 fixed-base
//     table for signing/key derivation, and one Straus multi-scalar
//     multiplication for every verification, single or batched (a
//     random-linear-combination batch verifier with bisection fallback);
//   - the *naive path*: the original clarity-first double-and-add ladders,
//     kept as a cross-checking oracle behind Ed25519SetFastPath(false).
//
// Verification splits every scalar into two 128-bit halves wherever the
// point's tables allow it. The base point B always has width-5 odd-multiple
// tables of B and of 2^128 B, so its 253-bit scalar costs a 128-step chain.
// A long-lived signer key can be *prepared* (Ed25519PrepareKey) into the
// same pair of tables for its point A; a verification whose keys are all
// prepared then runs about 129 shared doublings instead of 253. An
// unprepared key contributes one full-length term over odd multiples built
// per call, and costs what a plain verification always cost. The compared
// group elements are the same either way, so verdicts never depend on
// whether a key was prepared.
//
// Curve constants (d, sqrt(-1), the base point) are derived numerically at
// first use instead of being transcribed, and validated by the RFC 8032
// test vectors in tests/crypto_test.cc.
//
// Constant-time discipline: the *fast-path* signing and key-derivation
// pipeline (seed hash -> clamp -> radix-16 digits -> fixed-base table
// multiplication -> S = r + k*a) is branch-free and memory-index-free in
// the secret, enforced two ways: statically by sdrlint rule R5 over the
// `sdrlint:secret` annotations in the sources, and dynamically by the
// MemorySanitizer taint harness `tools/ct_check` (see docs/ANALYSIS.md).
// Verification handles public data only and is variable-time. The *naive*
// reference ladders remain variable-time by design and must only see
// secrets in offline cross-checking, never on a host exposed to timing
// adversaries.
#ifndef SDR_SRC_CRYPTO_ED25519_H_
#define SDR_SRC_CRYPTO_ED25519_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/bytes.h"

namespace sdr {

constexpr size_t kEd25519SeedSize = 32;
constexpr size_t kEd25519PublicKeySize = 32;
constexpr size_t kEd25519SignatureSize = 64;

// Derives the public key for a 32-byte seed.
Bytes Ed25519PublicKey(const Bytes& seed);

// Signs `message` with the given 32-byte seed; returns the 64-byte
// signature R || S.
Bytes Ed25519Sign(const Bytes& seed, const Bytes& message);

// Verifies signature over message for the given 32-byte public key.
// Rejects non-canonical S (S >= L) and undecodable points.
bool Ed25519Verify(const Bytes& public_key, const Bytes& message,
                   const Bytes& signature);

// Precomputed signing state for one seed: the clamped secret scalar, the
// deterministic-nonce prefix, and the encoded public key. Expanding costs
// one fixed-base multiplication; signing with the expanded key skips the
// per-call seed hashing and public-key derivation (the bulk of a naive
// sign). Signatures are bit-identical to Ed25519Sign on the same seed.
struct Ed25519ExpandedKey {
  uint8_t scalar[32];  // sdrlint:secret
  uint8_t prefix[32];  // sdrlint:secret
  Bytes public_key;
};

Ed25519ExpandedKey Ed25519ExpandKey(const Bytes& seed);
Bytes Ed25519SignExpanded(const Ed25519ExpandedKey& key, const Bytes& message);

// A public key prepared for repeated verification: its point A, decompressed
// once, as affine width-5 odd-multiple tables of A and of 2^128 A (about
// 2 KB). Building one costs about one verification, and each verification
// against it then skips decompressing A and runs the half-length chain.
// Immutable once built, so any number of threads may verify against one
// concurrently.
struct Ed25519PreparedKey;

// Prepares `public_key`; nullptr when it is not 32 bytes or does not decode
// to a curve point (every signature under such a key is rejected anyway).
std::shared_ptr<const Ed25519PreparedKey> Ed25519PrepareKey(
    const Bytes& public_key);

// Always equals Ed25519Verify on the public key `key` was prepared from.
bool Ed25519VerifyPrepared(const Ed25519PreparedKey& key, const Bytes& message,
                           const Bytes& signature);

// One (public key, message, signature) triple for batch verification.
// `prepared`, when set, must be the prepared form of `public_key`; the
// caller keeps it alive for the duration of the call.
struct Ed25519BatchItem {
  Bytes public_key;
  Bytes message;
  Bytes signature;
  const Ed25519PreparedKey* prepared = nullptr;
};

// Verifies many signatures at once with a random-linear-combination check:
// sum_i z_i * (S_i B - R_i - k_i A_i) == identity for random 128-bit z_i,
// sharing one Straus multi-scalar multiplication across the batch (about
// 129 doublings when every key is prepared, 253 otherwise).
// When the combined equation fails, the batch is bisected until every
// culprit is identified, so out[i] equals Ed25519Verify(item i) — except
// for items whose R or A has a small-order (torsion) component, which
// honest signers never produce. For those the combination is not exact:
// z_i k_i is reduced mod L, which changes the multiple of A's torsion
// component, and small-order defects of different items can cancel. Such
// an item can be accepted where the cofactorless single check rejects it.
// Amortized cost per signature is well below a single verification for
// batches of ~4 or more.
std::vector<bool> Ed25519VerifyBatch(const std::vector<Ed25519BatchItem>& items);

// Test/bench hook: toggles between the precomputed-table fast path and the
// original naive ladders (both produce identical bytes). Fast is the
// default; flipping this is global and not thread-safe.
void Ed25519SetFastPath(bool enabled);
bool Ed25519FastPathEnabled();

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_ED25519_H_
