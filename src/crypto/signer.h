// Pluggable signing abstraction.
//
// The protocol's guarantees hinge on non-repudiable slave signatures over
// pledge packets, so the default scheme is real Ed25519. For very large
// simulations (millions of reads) an HMAC mode trades non-repudiation for
// speed — everything else in the protocol stays identical — and a Null mode
// exists for logic-only unit tests. Which mode is in use is part of the
// cluster configuration and is reported by the benches.
//
// Two throughput helpers sit on top of plain VerifySignature:
//   - VerifySignatureBatch amortizes many verifications into one
//     random-linear-combination check when the scheme supports it
//     (SchemeSupportsBatchVerify — currently Ed25519 only);
//   - VerifyCache deduplicates repeated verifications of the same
//     (key, message, signature) triple, e.g. one master's version token
//     attached to thousands of pledges, and keeps the few long-lived
//     Ed25519 keys it verifies against in prepared form.
#ifndef SDR_SRC_CRYPTO_SIGNER_H_
#define SDR_SRC_CRYPTO_SIGNER_H_

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace sdr {

struct Ed25519ExpandedKey;
struct Ed25519PreparedKey;
class WorkerPool;

enum class SignatureScheme : uint8_t {
  kEd25519 = 0,
  kHmacSha256 = 1,  // symmetric; verifier must hold the same key
  kNull = 2,        // no-op; for logic-only tests
};

const char* SignatureSchemeName(SignatureScheme scheme);

// A key pair under one of the schemes. For kEd25519 `private_key` is the
// 32-byte seed and `public_key` the compressed point; for kHmacSha256 both
// are the shared key; for kNull both are empty.
struct KeyPair {
  SignatureScheme scheme = SignatureScheme::kEd25519;
  Bytes private_key;
  Bytes public_key;

  // Deterministic key generation from the simulation RNG.
  static KeyPair Generate(SignatureScheme scheme, Rng& rng);
};

// Signs messages with a held private key. For Ed25519 the seed is expanded
// once on first use (secret scalar, nonce prefix, public key), so repeated
// signing — a slave pledging every read — skips the per-call key setup.
class Signer {
 public:
  explicit Signer(KeyPair key_pair) : key_(std::move(key_pair)) {}

  Bytes Sign(const Bytes& message) const;
  const Bytes& public_key() const { return key_.public_key; }
  SignatureScheme scheme() const { return key_.scheme; }

 private:
  KeyPair key_;
  mutable std::shared_ptr<Ed25519ExpandedKey> expanded_;  // lazy, Ed25519 only
};

// Verifies signatures against a public key.
bool VerifySignature(SignatureScheme scheme, const Bytes& public_key,
                     const Bytes& message, const Bytes& signature);

// One (public key, message, signature) triple for VerifySignatureBatch.
struct VerifyItem {
  Bytes public_key;
  Bytes message;
  Bytes signature;
};

// True when the scheme has a batch verification cheaper than item-by-item
// verification (currently Ed25519 only).
bool SchemeSupportsBatchVerify(SignatureScheme scheme);

// Verifies all items; out[i] == VerifySignature(item i) always, but for
// batch-capable schemes the amortized cost per item is well below a single
// verification.
std::vector<bool> VerifySignatureBatch(SignatureScheme scheme,
                                       const std::vector<VerifyItem>& items);

// A small LRU cache deduplicating repeated verifications of the identical
// (scheme, public key, message, signature) triple. Both verdicts are
// cached: a forged signature stays forged no matter how often it is
// retried. Null-scheme verifications bypass the cache (a map lookup costs
// more than the check itself).
//
// Every signature check that misses goes to the crypto, and for Ed25519
// the cache also remembers the public keys it checked against, in a
// second bounded LRU map (kPreparedKeyCapacity keys). A key's first
// verification only records it; its second builds an Ed25519PreparedKey
// (the point's split tables, about one verification's cost),
// and every later one verifies against that. The signatures in this
// protocol come from a handful of long-lived keys — masters, slaves, the
// content key — so each role's checks soon all run on prepared keys, while
// one-off keys pay nothing extra. Preparation changes cost only: verdicts
// are those of VerifySignature, and the map never touches Stats.
//
// Not thread-safe, by design — each simulated node owns its cache.
class VerifyCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  // Size of the prepared-key map; every role verifies under far fewer keys.
  static constexpr size_t kPreparedKeyCapacity = 32;

  explicit VerifyCache(size_t capacity = 1024) : capacity_(capacity) {}

  // Cached equivalent of VerifySignature.
  bool Verify(SignatureScheme scheme, const Bytes& public_key,
              const Bytes& message, const Bytes& signature);

  // Cached equivalent of VerifySignatureBatch: hits are answered from the
  // cache, the remaining misses go through one batch verification, and
  // their verdicts are inserted.
  //
  // With a WorkerPool the pure-compute phases — cache-key hashing and the
  // miss verifications (sharded into per-lane sub-batches) — fan out across
  // its lanes; cache lookups and inserts, and the prepared-key map, stay on
  // the calling thread. Lanes only read prepared keys, which the calling
  // thread pins for the whole call, so evicting one mid-call cannot free a
  // table a lane is using. Batch verification reports exact per-item
  // validity, so sub-batch boundaries cannot change a verdict and the
  // vector is byte-identical at any lane count — except for hostile items
  // with a small-order R or key, which Ed25519VerifyBatch does not judge
  // exactly (see ed25519.h): their verdicts can depend on the sub-batch.
  std::vector<bool> VerifyBatch(SignatureScheme scheme,
                                const std::vector<VerifyItem>& items,
                                WorkerPool* pool = nullptr);

  const Stats& stats() const { return stats_; }
  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  // Keys currently held in prepared form.
  size_t prepared_keys() const;

 private:
  // Key: SHA-256 over (scheme, public key, message, signature), so entries
  // are fixed-size regardless of message length.
  using Key = std::string;

  static Key MakeKey(SignatureScheme scheme, const Bytes& public_key,
                     const Bytes& message, const Bytes& signature);
  // Returns the cached verdict for key, refreshing its LRU position;
  // nullptr on miss. Updates hit/miss counters.
  const bool* Lookup(const Key& key);
  void Insert(const Key& key, bool verdict);

  // Counts one more verification against `public_key` and returns its
  // prepared form, building it on the second; nullptr before that, for a
  // key that does not decode, and for schemes other than Ed25519.
  std::shared_ptr<const Ed25519PreparedKey> PreparedFor(
      SignatureScheme scheme, const Bytes& public_key);

  size_t capacity_;
  // Most-recently-used at the front.
  std::list<std::pair<Key, bool>> lru_;
  std::unordered_map<Key, std::list<std::pair<Key, bool>>::iterator> map_;
  Stats stats_;

  // The prepared-key map, most-recently-used at the front. An entry seen
  // once holds no key yet; `prepared` stays null after the second use only
  // when the key does not decode.
  using PublicKey = std::array<uint8_t, 32>;
  struct KeyEntry {
    PublicKey public_key;
    bool seen_twice = false;
    std::shared_ptr<const Ed25519PreparedKey> prepared;
  };
  std::list<KeyEntry> key_lru_;
  std::map<PublicKey, std::list<KeyEntry>::iterator> key_index_;
};

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_SIGNER_H_
