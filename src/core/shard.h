// Keyspace sharding (scale-out, beyond the paper). The keyspace is range-
// partitioned across shards; each shard owns its own master group, slave
// set, auditor and an independent version sequence, so the per-master
// write cap E7 measured (one commit per max_latency) multiplies by the
// shard count.
//
// Placement is published through the Directory and signed by the content
// key, the same root of trust that certifies masters: an untrusted host
// between client and directory can neither move a key range to a slave
// group it controls nor split clients across divergent placements without
// forging the content signature.
//
// Multi-shard queries are planned client-side: ranged queries are clipped
// to each owning shard and the per-shard results merged back into exactly
// what a single unsharded store would produce (AVG is decomposed into
// per-shard SUM + COUNT legs; see PlanShardQuery for the one documented
// caveat). Every leg is a full protocol read — pledge, token freshness,
// probabilistic double-check — so the paper's guarantees hold per shard.
#ifndef SDR_SRC_CORE_SHARD_H_
#define SDR_SRC_CORE_SHARD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/certificate.h"
#include "src/crypto/signer.h"
#include "src/store/executor.h"
#include "src/store/query.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace sdr {

// Range partition of the keyspace. Shard i owns [lo_i, hi_i); shard 0
// starts at "" (unbounded below) and the last shard ends at "" (unbounded
// above). boundaries[i] is the first key of shard i+1, so S shards carry
// S-1 boundaries, strictly ascending.
struct ShardMap {
  std::vector<std::string> boundaries;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(boundaries.size()) + 1;
  }

  // The shard owning `key`.
  uint32_t ShardForKey(std::string_view key) const;

  // Inclusive [first, last] shard range intersecting [lo, hi), with ""
  // meaning unbounded on either side (the Query range convention).
  std::pair<uint32_t, uint32_t> ShardSpan(std::string_view lo,
                                          std::string_view hi) const;

  // Owned range of one shard; "" at either end means unbounded.
  std::string ShardLo(uint32_t shard) const;
  std::string ShardHi(uint32_t shard) const;

  void EncodeTo(Writer& w) const;
  static ShardMap DecodeFrom(Reader& r);

  bool operator==(const ShardMap&) const = default;
};

// Splits `keys` into `num_shards` contiguous ranges of near-equal key
// count. Sorts and dedups its input, so the result depends only on the key
// *set* — rebuilding from the same corpus in any order, or rebalancing to
// a different shard count and back, reproduces the map bit-for-bit.
// Produces fewer shards when there are not enough distinct keys.
ShardMap BuildShardMap(std::vector<std::string> keys, uint32_t num_shards);

// The directory's placement answer: the range map plus, per shard, the
// masters serving it, all signed by the content key (the root that also
// certifies masters), so clients need not trust the directory host.
struct ShardPlacement {
  uint64_t generation = 0;  // bumped on rebalance; newest wins
  ShardMap map;
  std::vector<std::vector<NodeId>> shard_masters;
  Bytes signature;  // by the content key, over SignedBody()

  Bytes SignedBody() const;
  void EncodeTo(Writer& w) const;
  static ShardPlacement DecodeFrom(Reader& r);
  Bytes Encode() const;
  static Result<ShardPlacement> Decode(BytesView data);

  bool operator==(const ShardPlacement&) const = default;
};

ShardPlacement MakeShardPlacement(const Signer& content_signer,
                                  uint64_t generation, ShardMap map,
                                  std::vector<std::vector<NodeId>> masters);

bool VerifyShardPlacement(SignatureScheme scheme,
                          const Bytes& content_public_key,
                          const ShardPlacement& placement);

// One leg of a fanned-out query.
struct ShardSubquery {
  uint32_t shard = 0;
  Query query;

  bool operator==(const ShardSubquery&) const = default;
};

// The one shard owning all of `q` (its key, or its whole range), or
// nullopt when `q` spans several shards and needs PlanShardQuery.
std::optional<uint32_t> OwningShard(const ShardMap& map, const Query& q);

// Plans `q` across the map. GET goes to the single owning shard; ranged
// kinds are clipped to each shard they intersect. A plan of size one
// carries the original query unmodified (byte-identical encoding), so
// single-shard maps add nothing to the wire. Multi-shard AVG is decomposed
// into a SUM leg plus a COUNT leg per shard; the merge divides total sum
// by total row count, which matches the executor's numeric-rows-only
// divisor exactly when every row in the range parses as an integer (true
// for the catalog's price/ and stock/ ranges, which is where the workload
// generator aims aggregates). Mixed ranges where some shard holds both
// numeric and non-numeric rows can merge to a smaller AVG than a single
// store would report — documented, not silently wrong: COUNT counts every
// row while the executor's AVG divides by numeric rows only.
std::vector<ShardSubquery> PlanShardQuery(const ShardMap& map, const Query& q);

// Merges per-shard results (aligned index-for-index with `plan`) into the
// result an unsharded store would produce: row legs concatenate in shard
// (= key) order and re-apply the original limit; COUNT/SUM add; MIN/MAX
// fold over non-empty legs; AVG recombines its SUM and COUNT legs.
QueryResult MergeShardResults(const Query& original,
                              const std::vector<ShardSubquery>& plan,
                              const std::vector<QueryResult>& results);

}  // namespace sdr

#endif  // SDR_SRC_CORE_SHARD_H_
