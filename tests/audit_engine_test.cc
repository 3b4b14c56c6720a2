// Tests for the auditor's deduplicated, memoized, multi-worker
// re-execution engine:
//   - dedup collapses identical (version, query) pledges into one
//     execution but still compares every pledge's hash individually, so a
//     forged pledge hiding behind an honest twin is caught;
//   - the cross-version memo never produces a stale verdict: on an honest
//     cluster with a live write stream, memo hits across finalized
//     versions yield zero mismatches;
//   - every simulated output — trace bytes and auditor metrics — is
//     byte-identical at any --audit_jobs value, on calm and chaotic runs;
//   - batched signature admission over worker lanes reads prepared keys
//     safely and gives the cache-less verdicts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/runner.h"
#include "src/core/cluster.h"
#include "src/crypto/signer.h"
#include "src/trace/export.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace sdr {
namespace {

// A small closed-loop cluster with enough query repetition for the dedup
// and memo paths to light up within a short run.
ClusterConfig EngineConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 4;
  config.corpus.n_items = 50;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 0.05;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 5 * kMillisecond;
  config.client_write_fraction = 0.02;
  config.track_ground_truth = false;
  return config;
}

// The auditor's admission shape: runs of signatures under long-lived keys,
// some forged, verified by VerifyCache::VerifyBatch over a pool. Worker
// lanes verify their sub-batches against prepared keys the calling thread
// pinned, so under ThreadSanitizer this covers concurrent reads of the
// shared tables. There are two more keys than the prepared-key map holds
// and each signs a run of three items, so every key is prepared within
// its run and the first keys' tables are evicted from the map by the last
// runs before the lanes read them.
TEST(AuditEngineTest, PooledBatchVerifyReadsPinnedPreparedKeys) {
  Rng rng(5);
  std::vector<KeyPair> kps;
  for (size_t k = 0; k < VerifyCache::kPreparedKeyCapacity + 2; ++k) {
    kps.push_back(KeyPair::Generate(SignatureScheme::kEd25519, rng));
  }
  WorkerPool pool(4);
  VerifyCache cache;
  for (int round = 0; round < 2; ++round) {
    std::vector<VerifyItem> items;
    std::vector<bool> want;
    for (size_t k = 0; k < kps.size(); ++k) {
      for (int j = 0; j < 3; ++j) {
        Bytes msg = ToBytes("pledge r" + std::to_string(round) + " k" +
                            std::to_string(k) + " j" + std::to_string(j));
        Bytes sig = Signer(kps[k]).Sign(msg);
        if ((k + static_cast<size_t>(j)) % 7 == 3) {
          sig[9] ^= 0x01;
        }
        want.push_back(VerifySignature(SignatureScheme::kEd25519,
                                       kps[k].public_key, msg, sig));
        items.push_back({kps[k].public_key, msg, sig});
      }
    }
    EXPECT_EQ(cache.VerifyBatch(SignatureScheme::kEd25519, items, &pool),
              want)
        << "round " << round;
  }
  EXPECT_EQ(cache.prepared_keys(), VerifyCache::kPreparedKeyCapacity);
}

TEST(AuditEngineTest, ForgedPledgeBehindDedupedTwinIsCaught) {
  ClusterConfig config = EngineConfig(7);
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.05;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  AuditorMetrics am = cluster.auditor().metrics();
  // The workload must actually exercise the dedup path...
  ASSERT_GT(am.pledges_deduped, 0u);
  // ...and the liar must not be able to hide behind it: dedup shares the
  // re-execution, never the per-pledge comparison.
  EXPECT_GT(am.mismatches_found, 0u);
  EXPECT_GT(am.accusations_sent, 0u);
}

TEST(AuditEngineTest, MemoHitsAcrossFinalizedVersionsStayCorrect) {
  // Honest cluster with a steady write stream: versions commit, finalize,
  // and prune while the memo reuses results across them. A memo entry
  // surviving a write that actually affected its query would re-execute to
  // a different hash than some pledge and show up as a false mismatch.
  Cluster cluster(EngineConfig(11));
  cluster.RunFor(60 * kSecond);

  AuditorMetrics am = cluster.auditor().metrics();
  ASSERT_GT(am.reexec_memo_hits, 0u);
  ASSERT_GT(am.versions_finalized, 1u);
  EXPECT_EQ(am.mismatches_found, 0u);
  EXPECT_EQ(am.accusations_sent, 0u);
  EXPECT_EQ(am.bad_read_notices_sent, 0u);
}

// Every scalar the auditor reports, as one comparable tuple.
std::vector<uint64_t> MetricTuple(const AuditorMetrics& am) {
  return {am.pledges_received,      am.pledges_audited,
          am.pledges_skipped_sampling, am.pledges_version_pruned,
          am.pledges_exec_failed,   am.pledges_bad_signature,
          am.mismatches_found,      am.accusations_sent,
          am.bad_read_notices_sent, am.cache_hits,
          am.versions_finalized,    am.work_units_executed,
          am.pledges_deduped,       am.reexec_memo_hits,
          am.reexec_memo_misses,    am.audit_workers_busy,
          am.verify_batches,        am.sigs_batch_verified,
          am.sig_cache_hits,        am.sig_cache_misses,
          am.sig_cache_evictions};
}

struct RunOutput {
  Bytes trace;
  std::vector<uint64_t> auditor;
};

RunOutput RunWithJobs(int audit_jobs, bool chaotic) {
  ClusterConfig config = EngineConfig(13);
  config.audit_jobs = audit_jobs;
  config.trace.enabled = true;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 1) {
      b.lie_probability = 0.02;
    }
    return b;
  };
  Cluster cluster(config);

  std::unique_ptr<ChaosController> controller;
  if (chaotic) {
    auto scenario = ParseScenario(
        "at 5s set_behavior slave:0 lie_probability=0.2; "
        "at 20s partition slave:0 master:*; at 30s heal all");
    EXPECT_TRUE(scenario.ok());
    controller = std::make_unique<ChaosController>(
        &cluster, std::move(scenario).value(),
        std::vector<std::unique_ptr<InvariantChecker>>{});
    controller->Install();
  }
  cluster.RunFor(45 * kSecond);
  if (controller) {
    controller->Finish();
  }

  RunOutput out;
  out.trace = EncodeTrace(*cluster.trace());
  out.auditor = MetricTuple(cluster.auditor().metrics());
  return out;
}

TEST(AuditEngineTest, OutputsByteIdenticalAcrossWorkerCounts) {
  for (bool chaotic : {false, true}) {
    RunOutput base = RunWithJobs(1, chaotic);
    for (int jobs : {2, 8}) {
      RunOutput other = RunWithJobs(jobs, chaotic);
      EXPECT_EQ(base.trace, other.trace)
          << "trace diverged at audit_jobs=" << jobs
          << (chaotic ? " (chaos)" : " (plain)");
      EXPECT_EQ(base.auditor, other.auditor)
          << "auditor metrics diverged at audit_jobs=" << jobs
          << (chaotic ? " (chaos)" : " (plain)");
    }
  }
}

}  // namespace
}  // namespace sdr
