#include "src/crypto/signer.h"

#include <algorithm>

#include "src/crypto/ed25519.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha2.h"
#include "src/util/parallel.h"

namespace sdr {

const char* SignatureSchemeName(SignatureScheme scheme) {
  switch (scheme) {
    case SignatureScheme::kEd25519:
      return "ed25519";
    case SignatureScheme::kHmacSha256:
      return "hmac-sha256";
    case SignatureScheme::kNull:
      return "null";
  }
  return "?";
}

KeyPair KeyPair::Generate(SignatureScheme scheme, Rng& rng) {
  KeyPair kp;
  kp.scheme = scheme;
  switch (scheme) {
    case SignatureScheme::kEd25519: {
      kp.private_key = rng.NextBytes(kEd25519SeedSize);
      kp.public_key = Ed25519PublicKey(kp.private_key);
      break;
    }
    case SignatureScheme::kHmacSha256: {
      kp.private_key = rng.NextBytes(32);
      kp.public_key = kp.private_key;
      break;
    }
    case SignatureScheme::kNull:
      break;
  }
  return kp;
}

Bytes Signer::Sign(const Bytes& message) const {
  switch (key_.scheme) {
    case SignatureScheme::kEd25519:
      if (!expanded_) {
        expanded_ = std::make_shared<Ed25519ExpandedKey>(
            Ed25519ExpandKey(key_.private_key));
      }
      return Ed25519SignExpanded(*expanded_, message);
    case SignatureScheme::kHmacSha256:
      return HmacSha256(key_.private_key, message);
    case SignatureScheme::kNull:
      return Bytes{0x4e};  // non-empty marker so "missing" != "null-signed"
  }
  return Bytes();
}

bool VerifySignature(SignatureScheme scheme, const Bytes& public_key,
                     const Bytes& message, const Bytes& signature) {
  switch (scheme) {
    case SignatureScheme::kEd25519:
      return Ed25519Verify(public_key, message, signature);
    case SignatureScheme::kHmacSha256:
      return ConstantTimeEquals(HmacSha256(public_key, message), signature);
    case SignatureScheme::kNull:
      return signature == Bytes{0x4e};
  }
  return false;
}

bool SchemeSupportsBatchVerify(SignatureScheme scheme) {
  return scheme == SignatureScheme::kEd25519;
}

namespace {

using PreparedKeyPtr = std::shared_ptr<const Ed25519PreparedKey>;

// Verifies *items[lo, hi). For Ed25519, item i verifies against
// prepared[i] when `prepared` is non-null and that entry is set.
std::vector<bool> VerifyRange(SignatureScheme scheme,
                              const std::vector<const VerifyItem*>& items,
                              const PreparedKeyPtr* prepared, size_t lo,
                              size_t hi) {
  if (scheme == SignatureScheme::kEd25519) {
    std::vector<Ed25519BatchItem> batch(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      Ed25519BatchItem& b = batch[i - lo];
      b.public_key = items[i]->public_key;
      b.message = items[i]->message;
      b.signature = items[i]->signature;
      b.prepared = prepared != nullptr ? prepared[i].get() : nullptr;
    }
    return Ed25519VerifyBatch(batch);
  }
  std::vector<bool> out(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    out[i - lo] = VerifySignature(scheme, items[i]->public_key,
                                  items[i]->message, items[i]->signature);
  }
  return out;
}

}  // namespace

std::vector<bool> VerifySignatureBatch(SignatureScheme scheme,
                                       const std::vector<VerifyItem>& items) {
  std::vector<const VerifyItem*> ptrs(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ptrs[i] = &items[i];
  }
  return VerifyRange(scheme, ptrs, nullptr, 0, ptrs.size());
}

size_t VerifyCache::prepared_keys() const {
  size_t n = 0;
  for (const KeyEntry& entry : key_lru_) {
    n += entry.prepared != nullptr ? 1 : 0;
  }
  return n;
}

std::shared_ptr<const Ed25519PreparedKey> VerifyCache::PreparedFor(
    SignatureScheme scheme, const Bytes& public_key) {
  if (scheme != SignatureScheme::kEd25519 ||
      public_key.size() != kEd25519PublicKeySize) {
    return nullptr;
  }
  PublicKey pk;
  std::copy(public_key.begin(), public_key.end(), pk.begin());
  auto it = key_index_.find(pk);
  if (it == key_index_.end()) {
    if (key_lru_.size() >= kPreparedKeyCapacity) {
      key_index_.erase(key_lru_.back().public_key);
      key_lru_.pop_back();
    }
    key_lru_.push_front(KeyEntry{pk, false, nullptr});
    key_index_[pk] = key_lru_.begin();
    return nullptr;
  }
  key_lru_.splice(key_lru_.begin(), key_lru_, it->second);
  KeyEntry& entry = *it->second;
  if (!entry.seen_twice) {
    // The second verification is the break-even point: preparing costs
    // about one verification and halves every later one.
    entry.seen_twice = true;
    entry.prepared = Ed25519PrepareKey(public_key);
  }
  return entry.prepared;
}

VerifyCache::Key VerifyCache::MakeKey(SignatureScheme scheme,
                                      const Bytes& public_key,
                                      const Bytes& message,
                                      const Bytes& signature) {
  // Length-prefix each field so (key, message) boundaries cannot collide.
  Sha256 h;
  uint8_t hdr[1 + 3 * 8];
  hdr[0] = static_cast<uint8_t>(scheme);
  auto put_len = [&hdr](int at, uint64_t n) {
    for (int i = 0; i < 8; ++i) {
      hdr[at + i] = (uint8_t)(n >> (8 * i));
    }
  };
  put_len(1, public_key.size());
  put_len(9, message.size());
  put_len(17, signature.size());
  h.Update(hdr, sizeof(hdr));
  h.Update(public_key);
  h.Update(message);
  h.Update(signature);
  Bytes digest = h.Final();
  return Key(reinterpret_cast<const char*>(digest.data()), digest.size());
}

const bool* VerifyCache::Lookup(const Key& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->second;
}

void VerifyCache::Insert(const Key& key, bool verdict) {
  if (capacity_ == 0) {
    return;
  }
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = verdict;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(key, verdict);
  map_[key] = lru_.begin();
}

bool VerifyCache::Verify(SignatureScheme scheme, const Bytes& public_key,
                         const Bytes& message, const Bytes& signature) {
  if (scheme == SignatureScheme::kNull) {
    return VerifySignature(scheme, public_key, message, signature);
  }
  Key key = MakeKey(scheme, public_key, message, signature);
  if (const bool* cached = Lookup(key)) {
    return *cached;
  }
  PreparedKeyPtr prepared = PreparedFor(scheme, public_key);
  bool verdict = prepared != nullptr
                     ? Ed25519VerifyPrepared(*prepared, message, signature)
                     : VerifySignature(scheme, public_key, message, signature);
  Insert(key, verdict);
  return verdict;
}

std::vector<bool> VerifyCache::VerifyBatch(SignatureScheme scheme,
                                           const std::vector<VerifyItem>& items,
                                           WorkerPool* pool) {
  if (scheme == SignatureScheme::kNull) {
    return VerifySignatureBatch(scheme, items);
  }
  std::vector<bool> out(items.size(), false);
  std::vector<Key> keys(items.size());
  if (pool != nullptr && pool->jobs() > 1 && items.size() >= 8) {
    pool->Run(static_cast<int>(items.size()), [&](int, int i) {
      keys[i] = MakeKey(scheme, items[i].public_key, items[i].message,
                        items[i].signature);
    });
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      keys[i] = MakeKey(scheme, items[i].public_key, items[i].message,
                        items[i].signature);
    }
  }
  // item index -> slot in the deduplicated miss list. Duplicates inside one
  // batch (the same version token on many pledges) are verified once.
  std::vector<size_t> miss_slot(items.size());
  std::unordered_map<Key, size_t> pending;
  std::vector<Key> slot_key;
  std::vector<size_t> miss_idx;
  std::vector<const VerifyItem*> misses;
  for (size_t i = 0; i < items.size(); ++i) {
    auto dup = pending.find(keys[i]);
    if (dup != pending.end()) {
      ++stats_.hits;
      miss_slot[i] = dup->second;
      miss_idx.push_back(i);
      continue;
    }
    if (const bool* cached = Lookup(keys[i])) {
      out[i] = *cached;
      continue;
    }
    miss_slot[i] = misses.size();
    pending[keys[i]] = misses.size();
    slot_key.push_back(keys[i]);
    miss_idx.push_back(i);
    misses.push_back(&items[i]);
  }
  if (!misses.empty()) {
    // Pinned until the call returns: lanes read these tables while a later
    // PreparedFor may already have evicted their map entry.
    std::vector<PreparedKeyPtr> prepared(misses.size());
    for (size_t slot = 0; slot < misses.size(); ++slot) {
      prepared[slot] = PreparedFor(scheme, misses[slot]->public_key);
    }
    std::vector<bool> verdicts;
    if (pool != nullptr && pool->jobs() > 1 && misses.size() >= 2) {
      // Shard the misses into contiguous per-lane sub-batches. Each lane's
      // verification is independent; per-item verdicts do not depend on
      // which sub-batch an item landed in, except for the small-order
      // hostile items Ed25519VerifyBatch does not judge exactly.
      int lanes = std::min<int>(pool->jobs(), static_cast<int>(misses.size()));
      size_t per = (misses.size() + lanes - 1) / static_cast<size_t>(lanes);
      verdicts.resize(misses.size(), false);
      std::vector<std::vector<bool>> shard(static_cast<size_t>(lanes));
      pool->Run(lanes, [&](int, int c) {
        size_t lo = static_cast<size_t>(c) * per;
        size_t hi = std::min(misses.size(), lo + per);
        if (lo >= hi) {
          return;
        }
        shard[c] = VerifyRange(scheme, misses, prepared.data(), lo, hi);
      });
      for (int c = 0; c < lanes; ++c) {
        size_t lo = static_cast<size_t>(c) * per;
        for (size_t k = 0; k < shard[c].size(); ++k) {
          verdicts[lo + k] = shard[c][k];
        }
      }
    } else {
      verdicts =
          VerifyRange(scheme, misses, prepared.data(), 0, misses.size());
    }
    for (size_t i : miss_idx) {
      out[i] = verdicts[miss_slot[i]];
    }
    for (size_t slot = 0; slot < misses.size(); ++slot) {
      Insert(slot_key[slot], verdicts[slot]);
    }
  }
  return out;
}

}  // namespace sdr
