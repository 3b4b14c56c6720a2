#include "sim_workload.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "loopback.h"
#include "src/crypto/sha1.h"
#include "src/crypto/signer.h"
#include "src/store/executor.h"

namespace perfbench {

using sdr::Client;
using sdr::Cluster;
using sdr::ClusterConfig;
using sdr::DocumentStore;
using sdr::kMillisecond;
using sdr::kSecond;
using sdr::NodeId;
using sdr::Pledge;
using sdr::Query;
using sdr::QueryKind;
using sdr::QueryResult;
using sdr::SignatureScheme;
using sdr::SimTime;
using sdr::WriteBatch;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Offered rates were chosen once on a 4-core x86 host
// by sweeping the rate up to the point where read_p99_ms first exceeded
// max_latency (the knee) and then capping writes below the hottest shard's
// commit cap of commit_batch / max_latency; see perfbench/README.md for the
// sweep and the chosen figures.
// ---------------------------------------------------------------------------

// Every mix keeps a little of each query class so the post-run check times
// all four executor paths on every workload.
SimWorkload PointReads() {
  SimWorkload w;
  w.name = "point_reads";
  ClusterConfig& c = w.config;
  c.num_masters = 2;
  c.slaves_per_master = 2;
  c.num_auditors = 1;
  c.num_clients = 16;
  c.corpus.n_items = 200;
  c.mix.get_weight = 0.94;
  c.mix.scan_weight = 0.02;
  c.mix.grep_weight = 0.02;
  c.mix.agg_weight = 0.02;
  // The classic group commits one write per max_latency, so 2% writes
  // bound the whole offered rate: 200 ms gives a 5 writes/s cap.
  c.params.max_latency = 200 * kMillisecond;
  c.params.keepalive_period = 120 * kMillisecond;
  w.write_fraction = 0.02;
  w.offered_ops_per_s = 60;  // 1.2 writes/s, a quarter of the commit cap
  w.load_duration = 300 * kSecond;
  return w;
}

SimWorkload GrepAudit() {
  SimWorkload w;
  w.name = "grep_audit";
  ClusterConfig& c = w.config;
  c.num_masters = 2;
  c.slaves_per_master = 2;
  c.num_auditors = 1;
  c.num_clients = 16;
  c.corpus.n_items = 5000;  // 15k documents
  c.mix.get_weight = 0.40;
  c.mix.scan_weight = 0.25;
  c.mix.grep_weight = 0.20;
  c.mix.agg_weight = 0.15;
  c.params.fork_check_enabled = true;
  c.audit_jobs = 2;
  c.params.max_latency = 100 * kMillisecond;
  c.params.keepalive_period = 60 * kMillisecond;
  w.write_fraction = 0.10;
  // Reads alone first push read_p99_ms past max_latency at about 36 ops/s;
  // 20 ops/s is just over half of that, and 2 writes/s a fifth of the cap.
  w.offered_ops_per_s = 20;
  w.load_duration = 180 * kSecond;
  w.liar_slave = 1;
  w.liar_on_after = 20 * kSecond;
  w.lie_probability = 0.02;
  return w;
}

SimWorkload ShardedWrites() {
  SimWorkload w;
  w.name = "sharded_writes";
  ClusterConfig& c = w.config;
  c.num_shards = 4;
  c.num_masters = 1;
  c.slaves_per_master = 2;
  c.num_auditors = 1;
  c.num_clients = 16;
  c.corpus.n_items = 800;
  c.mix.get_weight = 0.60;
  c.mix.scan_weight = 0.20;
  c.mix.grep_weight = 0.05;
  c.mix.agg_weight = 0.15;
  c.params.commit_batch = 8;
  // A bundle closes when it holds commit_batch writes or after
  // commit_window. Commits are spaced max_latency apart, so the write cap
  // of commit_batch / max_latency holds only for full bundles: the window
  // is long enough for the hot shards to fill theirs.
  c.params.commit_window = 400 * kMillisecond;
  c.params.max_latency = 100 * kMillisecond;
  c.params.keepalive_period = 40 * kMillisecond;
  w.write_fraction = 0.30;
  // 30 writes/s in all; the hottest shard takes about 22/s against a cap
  // of 80/s.
  w.offered_ops_per_s = 100;
  w.load_duration = 60 * kSecond;
  return w;
}

// ---------------------------------------------------------------------------

enum QueryClass { kGetClass = 0, kScanClass, kGrepClass, kAggClass };
const char* const kClassNames[] = {"get", "scan", "grep", "agg"};

QueryClass ClassOf(QueryKind kind) {
  switch (kind) {
    case QueryKind::kGet:
      return kGetClass;
    case QueryKind::kScan:
      return kScanClass;
    case QueryKind::kGrep:
      return kGrepClass;
    default:
      return kAggClass;
  }
}

struct Arrival {
  double at_s = 0;  // offset into the arrival window, simulated seconds
  int client = 0;
  bool write = false;
  Query query;
  WriteBatch batch;
};

// The benchmark's own input stream: Poisson arrival times, client choice,
// queries and writes, all from --seed and nothing else.
std::vector<Arrival> GenerateArrivals(const SimWorkload& w, uint64_t seed) {
  sdr::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5DEECE66Dull);
  sdr::QueryMix mix = w.config.mix;
  mix.n_items = w.config.corpus.n_items;
  sdr::WriteGen gen = w.config.write_gen;
  gen.n_items = w.config.corpus.n_items;
  const double window = static_cast<double>(w.load_duration) / kSecond;
  const double mean_gap = 1.0 / w.offered_ops_per_s;
  std::vector<Arrival> out;
  for (double t = rng.NextExponential(mean_gap); t < window;
       t += rng.NextExponential(mean_gap)) {
    Arrival a;
    a.at_s = t;
    a.client = static_cast<int>(rng.NextBounded(w.config.num_clients));
    a.write = rng.NextBool(w.write_fraction);
    if (a.write) {
      a.batch = gen.Generate(rng);
    } else {
      a.query = mix.Generate(rng);
    }
    out.push_back(std::move(a));
  }
  return out;
}

// Everything that must repeat exactly for the same seed: named counts,
// simulated-time figures and every latency sample in order.
struct Counts {
  std::vector<std::pair<std::string, double>> items;
  std::vector<double> read_ms, write_ms;
  void Add(const std::string& name, double v) { items.emplace_back(name, v); }
};

// One run of the workload at one seed: set-up, the timed load window with
// its drain, a settle period and the post-run check.
class Repeat {
 public:
  // `keep_records` keeps every accepted read for the post-run check;
  // without it only their number is kept, so memory and host time stay the
  // system's.
  Repeat(const SimWorkload& w, uint64_t seed, SignatureScheme scheme,
         SpanLog* spans, bool step_trace, bool keep_records)
      : w_(w),
        seed_(seed),
        scheme_(scheme),
        spans_(spans),
        step_trace_(step_trace),
        keep_records_(keep_records) {}

  bool Setup();
  // The timed load: BeginLoad, then LoadChunk until it returns false. Each
  // LoadChunk call advances one simulated second of the arrival window, or
  // finally the whole drain, so several repeats can advance in lockstep.
  void BeginLoad();
  bool LoadChunk();
  void Load() {
    BeginLoad();
    while (LoadChunk()) {
    }
  }
  void Settle();
  // Post-run correctness check; violations go to `out`. Times the
  // executor and MaterializeAt calls it makes.
  void Check(RunResult* out);
  Counts DeterministicCounts() const;

  Cluster& cluster() { return *cluster_; }
  const SimWorkload& workload() const { return w_; }

  double setup_s = 0;
  double load_host_s = 0;  // host time of the arrival window and the drain
  Samples read_ms, write_ms;
  uint64_t reads_attempted = 0, reads_accepted = 0;
  uint64_t writes_attempted = 0, writes_committed = 0;
  double detect_ms = -1;  // -1: no liar, or never excluded
  double unproven_at_window_end = 0;
  uint64_t events = 0, messages = 0, bytes = 0;
  Samples step_us;
  Samples auditor_lag, auditor_backlog;
  std::vector<AcceptedRecord> records;
  uint64_t accepted_records = 0;
  std::vector<Pledge> captured;  // first pledges, for the crypto replay
  CheckTimings timings;
  uint64_t wrong_accepted = 0;

  uint64_t ops() const { return reads_accepted + writes_committed; }

 private:
  struct Hook {
    SimTime period;
    SimTime next_due;
    std::function<void()> fn;
  };
  void AddHook(SimTime period, std::function<void()> fn);
  void Advance(SimTime until);
  void IssueNext();
  bool AllReady();

  const SimWorkload& w_;
  uint64_t seed_;
  SignatureScheme scheme_;
  SpanLog* spans_;
  bool step_trace_;
  bool keep_records_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<Arrival> arrivals_;
  std::vector<std::vector<int>> writers_;  // client indices by master
  std::vector<std::pair<WriteBatch, uint64_t>> committed_;
  size_t next_ = 0;
  uint64_t completed_ = 0;
  SimTime t0_ = 0;
  SimTime liar_on_at_ = -1;
  NodeId liar_node_ = sdr::kInvalidNode;
  std::vector<Hook> hooks_;
};

bool Repeat::AllReady() {
  for (int i = 0; i < cluster_->num_clients(); ++i) {
    if (!cluster_->client(i).ready()) return false;
  }
  return true;
}

bool Repeat::Setup() {
  ClusterConfig cfg = w_.config;
  cfg.seed = seed_;
  cfg.params.scheme = scheme_;
  cfg.track_ground_truth = false;  // checked after the run instead
  cfg.client_mode = Client::LoadMode::kManual;
  const double h0 = HostNow();
  {
    ScopedSpan span(spans_, "cluster.construct");
    cluster_ = std::make_unique<Cluster>(cfg);
  }
  {
    ScopedSpan span(spans_, "cluster.until_ready");
    while (!AllReady() && cluster_->sim().Now() < 30 * kSecond) {
      cluster_->RunFor(10 * kMillisecond);
    }
  }
  setup_s = HostNow() - h0;
  for (int i = 0; i < cluster_->num_clients(); ++i) {
    Client& c = cluster_->client(i);
    c.on_accept = [this, prev = std::move(c.on_accept)](
                      const Query& q, const Pledge& p, const QueryResult& r) {
      ++accepted_records;
      if (keep_records_) {
        AcceptedRecord rec;
        rec.query = q;
        rec.shard =
            static_cast<uint32_t>(cluster_->shard_of_master(p.token.master));
        rec.version = p.token.content_version;
        rec.slave = p.slave;
        rec.result = r;
        records.push_back(std::move(rec));
        if (captured.size() < 256) captured.push_back(p);
      }
      if (prev) prev(q, p, r);
    };
  }
  if (w_.liar_slave >= 0) {
    liar_node_ = cluster_->slave(w_.liar_slave).id();
  }
  return AllReady();
}

void Repeat::AddHook(SimTime period, std::function<void()> fn) {
  if (step_trace_) {
    hooks_.push_back(Hook{period, cluster_->sim().Now() + period, fn});
  } else {
    cluster_->AddTickHook(period, std::move(fn));
  }
}

// Untraced: Cluster::RunFor (its tick hooks poll). Traced: one
// Simulator::Step at a time, each timed and recorded as a span, with the
// same polls run by hand; a sentinel event marks `until`.
void Repeat::Advance(SimTime until) {
  sdr::Simulator& sim = cluster_->sim();
  if (!step_trace_) {
    cluster_->RunFor(until - sim.Now());
    return;
  }
  bool reached = false;
  sim.ScheduleAt(until, [&reached] { reached = true; });
  while (!reached) {
    const int64_t a = spans_->NowNs();
    sim.Step();
    const int64_t b = spans_->NowNs();
    step_us.Add(static_cast<double>(b - a) / 1e3);
    spans_->Add("sim.Step", a, b);
    for (Hook& h : hooks_) {
      if (sim.Now() >= h.next_due) {
        h.next_due += h.period;
        h.fn();
      }
    }
  }
}

void Repeat::IssueNext() {
  Arrival& a = arrivals_[next_];
  const SimTime due = cluster_->sim().Now();
  int target = a.client;
  if (a.write) {
    // Writes take turns over the masters, so the share of writes that pay
    // the extra hop through the broadcast sequencer is the same at every
    // seed instead of following how the clients happened to pick masters.
    const std::vector<int>& pool = writers_[writes_attempted % writers_.size()];
    if (!pool.empty()) target = pool[a.client % pool.size()];
  }
  Client& client = cluster_->client(target);
  if (a.write) {
    ++writes_attempted;
    WriteBatch copy = a.batch;
    client.IssueWrite(std::move(a.batch), [this, due, copy = std::move(copy)](
                                              bool ok, uint64_t version) {
      ++completed_;
      if (!ok) return;
      ++writes_committed;
      write_ms.Add(static_cast<double>(cluster_->sim().Now() - due) /
                   kMillisecond);
      committed_.emplace_back(copy, version);
    });
  } else {
    ++reads_attempted;
    client.IssueRead(std::move(a.query),
                     [this, due](bool ok, const QueryResult&) {
                       ++completed_;
                       if (!ok) return;
                       ++reads_accepted;
                       read_ms.Add(
                           static_cast<double>(cluster_->sim().Now() - due) /
                           kMillisecond);
                     });
  }
  if (++next_ < arrivals_.size()) {
    cluster_->sim().ScheduleAt(
        t0_ + static_cast<SimTime>(arrivals_[next_].at_s * kSecond),
        [this] { IssueNext(); });
  }
}

void Repeat::BeginLoad() {
  arrivals_ = GenerateArrivals(w_, seed_);
  // Clients grouped by the master they attached to during set-up (one group
  // per master; in sharded runs every client talks to every shard's master,
  // so there is one group of all clients).
  writers_.assign(cluster_->num_shards() > 1 ? 1 : cluster_->num_masters(), {});
  for (int i = 0; i < cluster_->num_clients(); ++i) {
    for (size_t m = 0; m < writers_.size(); ++m) {
      if (writers_.size() == 1 ||
          cluster_->client(i).master() == cluster_->master(m).id()) {
        writers_[m].push_back(i);
      }
    }
  }
  sdr::Simulator& sim = cluster_->sim();
  t0_ = sim.Now();
  if (!arrivals_.empty()) {
    sim.ScheduleAt(t0_ + static_cast<SimTime>(arrivals_[0].at_s * kSecond),
                   [this] { IssueNext(); });
  }
  if (liar_node_ != sdr::kInvalidNode) {
    sim.ScheduleAt(t0_ + w_.liar_on_after, [this] {
      sdr::Slave& liar = cluster_->slave(w_.liar_slave);
      sdr::Slave::Behavior b = liar.behavior();
      b.lie_probability = w_.lie_probability;
      liar.SetBehavior(b);
      liar_on_at_ = cluster_->sim().Now();
    });
    AddHook(10 * kMillisecond, [this] {
      if (detect_ms < 0 && liar_on_at_ >= 0 &&
          cluster_->ExcludedByAnyMaster(liar_node_)) {
        detect_ms = static_cast<double>(cluster_->sim().Now() - liar_on_at_) /
                    kMillisecond;
      }
    });
  }
  AddHook(100 * kMillisecond, [this] {
    for (int i = 0; i < cluster_->num_auditors(); ++i) {
      auditor_lag.Add(static_cast<double>(cluster_->auditor(i).version_lag()));
      auditor_backlog.Add(static_cast<double>(cluster_->auditor(i).backlog()));
    }
  });
}

bool Repeat::LoadChunk() {
  sdr::Simulator& sim = cluster_->sim();
  const SimTime window_end = t0_ + w_.load_duration;
  if (sim.Now() < window_end) {
    {
      ScopedSpan span(spans_, "load.second");
      const double c = HostNow();
      Advance(std::min(window_end, sim.Now() + kSecond));
      load_host_s += HostNow() - c;
    }
    if (sim.Now() >= window_end) {
      // The share of served history not yet proven when the load stops.
      const Cluster::Totals at_end = cluster_->ComputeTotals();
      uint64_t audited = 0;
      for (int i = 0; i < cluster_->num_auditors(); ++i) {
        audited += cluster_->auditor(i).metrics().pledges_audited;
      }
      unproven_at_window_end =
          1.0 - Ratio(static_cast<double>(audited),
                      static_cast<double>(at_end.pledges_forwarded));
    }
    return true;
  }
  {
    ScopedSpan span(spans_, "load.drain");
    const double c = HostNow();
    const SimTime drain_cap = window_end + 60 * kSecond;
    while (completed_ < arrivals_.size() && sim.Now() < drain_cap) {
      Advance(sim.Now() + 100 * kMillisecond);
    }
    load_host_s += HostNow() - c;
  }
  events = sim.events_processed();
  messages = cluster_->net().messages_sent();
  bytes = cluster_->net().bytes_sent();
  return false;
}

void Repeat::Settle() {
  // Lets the last state updates reach every slave before stores compare.
  ScopedSpan span(spans_, "settle");
  cluster_->RunFor(w_.config.params.max_latency + 2 * kSecond);
}

Counts Repeat::DeterministicCounts() const {
  Counts c;
  const Cluster::Totals t = cluster_->ComputeTotals();
  c.Add("events", static_cast<double>(events));
  c.Add("messages", static_cast<double>(messages));
  c.Add("bytes", static_cast<double>(bytes));
  c.Add("commit_signatures", static_cast<double>(t.commit_signatures));
  c.Add("slave_work_units", static_cast<double>(t.slave_work_units));
  c.Add("master_work_units", static_cast<double>(t.master_work_units));
  c.Add("auditor_work_units", static_cast<double>(t.auditor_work_units));
  c.Add("reads_accepted", static_cast<double>(reads_accepted));
  c.Add("writes_committed", static_cast<double>(writes_committed));
  c.Add("accepted_records", static_cast<double>(accepted_records));
  c.Add("detect_ms", detect_ms);
  c.Add("unproven_frac", unproven_at_window_end);
  c.read_ms = read_ms.values();
  c.write_ms = write_ms.values();
  return c;
}

void CompareCounts(const Counts& a, const Counts& b, RunResult* out) {
  for (size_t i = 0; i < a.items.size() && i < b.items.size(); ++i) {
    if (a.items[i].second != b.items[i].second) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "determinism: %s differs across repeats (%.17g vs %.17g)",
                    a.items[i].first.c_str(), a.items[i].second,
                    b.items[i].second);
      out->Fail(buf);
    }
  }
  if (a.read_ms != b.read_ms) {
    out->Fail("determinism: read latency samples differ across repeats");
  }
  if (a.write_ms != b.write_ms) {
    out->Fail("determinism: write latency samples differ across repeats");
  }
}

// The log of each shard's first master, indexed by shard.
std::vector<const sdr::OpLog*> ShardLogs(Cluster& c) {
  std::vector<const sdr::OpLog*> logs;
  for (int sh = 0; sh < c.num_shards(); ++sh) {
    logs.push_back(&c.master(sh * c.masters_per_shard()).oplog());
  }
  return logs;
}

std::string OpKey(const sdr::WriteOp& op) {
  std::string k(1, static_cast<char>(op.kind));
  k += op.key;
  k += '\0';
  k += op.value;
  return k;
}

void Repeat::Check(RunResult* out) {
  ScopedSpan span(spans_, "check");
  const std::string& name = w_.name;
  std::string error;
  std::vector<size_t> wrong =
      FindWrongReads(ShardLogs(*cluster_), records, &error, &timings, spans_);
  if (!error.empty()) out->Fail(name + ": " + error);
  wrong_accepted = wrong.size();
  for (size_t i : wrong) {
    if (records[i].slave != liar_node_) {
      out->Fail(name + ": accepted a wrong result from honest slave node " +
                std::to_string(records[i].slave));
      break;
    }
  }

  Cluster& c = *cluster_;
  const int M = c.masters_per_shard();
  const int per_shard = c.slaves_per_shard();
  for (int i = 0; i < c.num_slaves(); ++i) {
    const sdr::Slave& slave = c.slave(i);
    if (slave.id() == liar_node_) {
      if (!c.ExcludedByAnyMaster(slave.id())) {
        out->Fail(name + ": the lying slave was never excluded");
      }
      continue;
    }
    if (c.ExcludedByAnyMaster(slave.id())) {
      out->Fail(name + ": honest slave " + std::to_string(i) + " excluded");
    }
    const sdr::OpLog& log = c.master((i / per_shard) * M).oplog();
    if (slave.applied_version() != log.head_version() ||
        slave.store().data() != log.head().data()) {
      out->Fail(name + ": slave " + std::to_string(i) +
                " store differs from its master's head after the drain");
    }
  }

  // Replicas of a shard agree, and every committed write is in the log.
  const int S = c.num_shards();
  std::vector<std::map<std::string, int>> logged(S);
  for (int sh = 0; sh < S; ++sh) {
    const sdr::OpLog& log = c.master(sh * M).oplog();
    for (int m = 1; m < M; ++m) {
      const sdr::OpLog& other = c.master(sh * M + m).oplog();
      if (other.head_version() != log.head_version() ||
          other.head().data() != log.head().data()) {
        out->Fail(name + ": masters of shard " + std::to_string(sh) +
                  " disagree on the head");
      }
    }
    for (uint64_t v = 1; v <= log.head_version(); ++v) {
      const WriteBatch* batch = log.BatchFor(v);
      if (batch == nullptr) {
        out->Fail(name + ": master log is missing version " +
                  std::to_string(v));
        continue;
      }
      for (const sdr::WriteOp& op : *batch) ++logged[sh][OpKey(op)];
    }
  }
  uint64_t missing = 0;
  for (const auto& [batch, version] : committed_) {
    for (const sdr::WriteOp& op : batch) {
      const int sh =
          S > 1 ? static_cast<int>(c.shard_map().ShardForKey(op.key)) : 0;
      auto it = logged[sh].find(OpKey(op));
      if (it == logged[sh].end() || it->second == 0) {
        ++missing;
      } else {
        --it->second;
      }
    }
  }
  if (missing > 0) {
    out->Fail(name + ": " + std::to_string(missing) +
              " ops of committed writes are absent from the master log");
  }
}

// Host time of the replayed layer calls, per call.
struct Replayed {
  double sign_us = 0;
  double verify_us = 0;
  double batch_verify_us_per_sig = 0;
  double sha1_ns_per_byte = 0;
  double result_bytes_per_read = 0;
};

// Replays Signer::Sign, VerifySignature and VerifySignatureBatch over the
// run's own captured pledges and version tokens, and Sha1 over its own
// accepted results.
Replayed ReplayLayers(Repeat& rep, SpanLog* log, RunResult* out) {
  ScopedSpan span(log, "replay");
  Cluster& c = rep.cluster();
  std::map<NodeId, sdr::Bytes> keys;
  for (int i = 0; i < c.num_slaves(); ++i) {
    keys[c.slave(i).id()] = c.slave(i).public_key();
  }
  for (int i = 0; i < c.num_masters(); ++i) {
    keys[c.master(i).id()] = c.master(i).public_key();
  }
  std::vector<sdr::VerifyItem> items;
  for (const Pledge& p : rep.captured) {
    items.push_back({keys[p.slave], p.SignedBody(), p.signature});
    items.push_back(
        {keys[p.token.master], p.token.SignedBody(), p.token.signature});
  }
  Replayed r;
  if (items.empty()) return r;
  const SignatureScheme scheme = SignatureScheme::kEd25519;
  const double n = static_cast<double>(items.size());

  double total = 0;
  for (const sdr::VerifyItem& it : items) {
    const int64_t a = log->NowNs();
    const bool ok =
        sdr::VerifySignature(scheme, it.public_key, it.message, it.signature);
    const int64_t b = log->NowNs();
    log->Add("replay.verify", a, b);
    total += static_cast<double>(b - a);
    if (!ok) out->Fail("replay: a captured signature does not verify");
  }
  r.verify_us = total / n / 1e3;

  sdr::Rng rng(7);
  sdr::Signer signer(sdr::KeyPair::Generate(scheme, rng));
  signer.Sign(items[0].message);  // expands the key once, as a slave does
  total = 0;
  for (const sdr::VerifyItem& it : items) {
    const int64_t a = log->NowNs();
    sdr::Bytes sig = signer.Sign(it.message);
    const int64_t b = log->NowNs();
    log->Add("replay.sign", a, b);
    total += static_cast<double>(b - a);
  }
  r.sign_us = total / n / 1e3;

  // Batches of the auditor's default batch size.
  const size_t batch = c.config().params.audit_verify_batch_size;
  total = 0;
  for (size_t i = 0; i < items.size(); i += batch) {
    std::vector<sdr::VerifyItem> chunk(
        items.begin() + i, items.begin() + std::min(items.size(), i + batch));
    const int64_t a = log->NowNs();
    std::vector<bool> ok = sdr::VerifySignatureBatch(scheme, chunk);
    const int64_t b = log->NowNs();
    log->Add("replay.batch_verify", a, b);
    total += static_cast<double>(b - a);
    for (bool v : ok) {
      if (!v) out->Fail("replay: a captured signature fails batch verify");
    }
  }
  r.batch_verify_us_per_sig = total / n / 1e3;

  double bytes = 0;
  for (const AcceptedRecord& rec : rep.records) {
    bytes += static_cast<double>(rec.result.Encode().size());
  }
  r.result_bytes_per_read =
      Ratio(bytes, static_cast<double>(rep.records.size()));
  std::vector<sdr::Bytes> encoded;
  size_t hashed = 0;
  for (const AcceptedRecord& rec : rep.records) {
    encoded.push_back(rec.result.Encode());
    hashed += encoded.back().size();
    if (encoded.size() >= 4096 || hashed >= (8u << 20)) break;
  }
  {
    // Small results hash in well under a timer call, so the loop is timed
    // as one span.
    const int64_t a = log->NowNs();
    for (int pass = 0; pass < 4; ++pass) {
      for (const sdr::Bytes& e : encoded) sdr::Sha1::Hash(e);
    }
    const int64_t b = log->NowNs();
    log->Add("replay.sha1", a, b);
    r.sha1_ns_per_byte =
        Ratio(static_cast<double>(b - a), 4.0 * static_cast<double>(hashed));
  }
  return r;
}

// Layer counters of one repeat, read from the roles' own metrics.
struct LayerCounts {
  double ops = 0, reads = 0;
  double events = 0, messages = 0, bytes = 0;
  double slave_reads_served = 0, slave_work_units = 0, vvs_attached = 0;
  double client_retries = 0, double_checks = 0, stale_rejects = 0;
  double requests = 0;  // per-shard read requests the clients sent
  // Verify-cache misses are actual verifications: one at a time on
  // clients, slaves and masters, in batches on the auditor.
  double sig_hits = 0, sig_misses = 0, auditor_sig_misses = 0;
  double commit_sigs = 0, keepalive_signs = 0, writes_committed = 0;
  double writes_batched = 0, batches = 0;
  double pledges_received = 0, memo_hits = 0, memo_misses = 0, deduped = 0;
  double audit_work_items = 0, double_checks_served = 0;
  double hot_share = 0;
};

LayerCounts ReadLayerCounts(Repeat& rep) {
  Cluster& c = rep.cluster();
  LayerCounts l;
  l.ops = static_cast<double>(rep.ops());
  l.reads = static_cast<double>(rep.reads_attempted);
  l.events = static_cast<double>(rep.events);
  l.messages = static_cast<double>(rep.messages);
  l.bytes = static_cast<double>(rep.bytes);
  for (int i = 0; i < c.num_clients(); ++i) {
    const sdr::ClientMetrics& m = c.client(i).metrics();
    l.client_retries += static_cast<double>(m.retries);
    l.double_checks += static_cast<double>(m.double_checks_sent);
    l.stale_rejects += static_cast<double>(m.reads_rejected_stale);
    // A read within one shard is one request; a fanned-out read is one
    // request per leg.
    l.requests += static_cast<double>(m.reads_issued - m.multi_shard_reads +
                                      m.shard_subreads_issued);
    l.sig_hits += static_cast<double>(m.sig_cache_hits);
    l.sig_misses += static_cast<double>(m.sig_cache_misses);
  }
  std::vector<double> per_shard(c.num_shards(), 0.0);
  for (int i = 0; i < c.num_slaves(); ++i) {
    const sdr::SlaveMetrics& m = c.slave(i).metrics();
    l.slave_reads_served += static_cast<double>(m.reads_served);
    l.slave_work_units += static_cast<double>(m.work_units_executed);
    l.vvs_attached += static_cast<double>(m.vvs_attached);
    l.sig_hits += static_cast<double>(m.sig_cache_hits);
    l.sig_misses += static_cast<double>(m.sig_cache_misses);
    per_shard[i / c.slaves_per_shard()] += static_cast<double>(m.reads_served);
  }
  l.hot_share = Ratio(*std::max_element(per_shard.begin(), per_shard.end()),
                      l.slave_reads_served);
  for (int i = 0; i < c.num_masters(); ++i) {
    const sdr::MasterMetrics& m = c.master(i).metrics();
    l.sig_hits += static_cast<double>(m.sig_cache_hits);
    l.sig_misses += static_cast<double>(m.sig_cache_misses);
    l.commit_sigs += static_cast<double>(m.commit_signatures);
    // One token signature per keepalive round, fanned out to each slave.
    l.keepalive_signs += Ratio(static_cast<double>(m.keepalives_sent),
                               c.config().slaves_per_master);
    l.writes_committed += static_cast<double>(m.writes_committed);
    l.writes_batched += static_cast<double>(m.writes_batched);
    l.batches += static_cast<double>(m.batches_committed);
    l.double_checks_served += static_cast<double>(m.double_checks_served);
  }
  for (int i = 0; i < c.num_auditors(); ++i) {
    const sdr::AuditorMetrics& m = c.auditor(i).metrics();
    l.sig_hits += static_cast<double>(m.sig_cache_hits);
    l.auditor_sig_misses += static_cast<double>(m.sig_cache_misses);
    l.pledges_received += static_cast<double>(m.pledges_received);
    l.memo_hits += static_cast<double>(m.reexec_memo_hits);
    l.memo_misses += static_cast<double>(m.reexec_memo_misses);
    l.deduped += static_cast<double>(m.pledges_deduped);
    l.audit_work_items += static_cast<double>(m.audit_workers_busy);
  }
  return l;
}

void AddEndToEnd(Repeat& rep, RunResult* out) {
  const size_t tail = rep.workload().tail_min_beyond;
  if (rep.read_ms.Supports(0.5, 1)) {
    out->Set("read_p50_ms", rep.read_ms.Quantile(0.5), "ms");
  }
  if (rep.read_ms.Supports(0.99, tail)) {
    out->Set("read_p99_ms", rep.read_ms.Quantile(0.99), "ms");
  }
  if (rep.write_ms.Supports(0.5, 1)) {
    out->Set("write_p50_ms", rep.write_ms.Quantile(0.5), "ms");
  }
  if (rep.write_ms.Supports(0.95, tail)) {
    out->Set("write_p95_ms", rep.write_ms.Quantile(0.95), "ms");
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "samples: %zu reads, %zu writes; a tail percentile needs "
                ">= %zu samples beyond it",
                rep.read_ms.count(), rep.write_ms.count(), tail);
  out->Note(buf);
  const double read_failed =
      static_cast<double>(rep.reads_attempted - rep.reads_accepted);
  const double write_failed =
      static_cast<double>(rep.writes_attempted - rep.writes_committed);
  out->Set("read_fail_frac",
           Ratio(read_failed, static_cast<double>(rep.reads_attempted)),
           "ratio");
  out->Set("write_fail_frac",
           Ratio(write_failed, static_cast<double>(rep.writes_attempted)),
           "ratio");
  out->Set("unproven_frac", rep.unproven_at_window_end, "ratio");
  if (rep.workload().liar_slave >= 0) {
    out->Set("detect_ms", rep.detect_ms, "ms");
  }
  out->attempted = rep.reads_attempted + rep.writes_attempted;
  out->failed = rep.reads_attempted + rep.writes_attempted - rep.ops();
}

constexpr int kSetupsPerRepeat = 10;
constexpr int kMinTimedRepeats = 2;

// Runs `rep`'s load and times kSetupsPerRepeat more set-ups spread evenly
// between its simulated seconds, outside their timing. Set-up takes
// milliseconds, inside one stretch of the host's drifting speed, so only
// samples spread over the whole run give a median as steady as the load's
// mean.
void LoadWithSetups(Repeat& rep, uint64_t seed, std::vector<double>* setups) {
  const SimWorkload& w = rep.workload();
  const int64_t every =
      std::max<int64_t>(1, w.load_duration / kSecond / kSetupsPerRepeat);
  rep.BeginLoad();
  for (int64_t chunk = 1; rep.LoadChunk(); ++chunk) {
    if (chunk % every == 0) {
      Repeat other(w, seed, SignatureScheme::kEd25519, nullptr, false, false);
      other.Setup();
      setups->push_back(other.setup_s);
    }
  }
}

RunResult RunUntraced(const SimWorkload& w, uint64_t seed, double seconds) {
  RunResult out;
  std::vector<double> setups;
  Counts first;
  uint64_t ops = 0;
  int timed = 0;
  double load_host_s = 0;
  double peak_rss = 0;
  const double start = HostNow();
  double longest = 0;
  // Timed repeats keep no accepted reads, so their host time is the
  // system's own. They go on while one more and the checked repeat still
  // fit in `seconds`: the host's speed drifts by tens of percent over
  // seconds to minutes, so the longer the timed stretch, the steadier the
  // mean over it.
  for (int r = 0;
       r < kMinTimedRepeats ||
       (HostNow() - start + 2 * longest < seconds - 1 && r < 64);
       ++r) {
    const double r0 = HostNow();
    Repeat rep(w, seed, SignatureScheme::kEd25519, nullptr, false, false);
    if (!rep.Setup()) {
      out.Fail(w.name + ": clients never became ready");
      return out;
    }
    setups.push_back(rep.setup_s);
    // The first repeat runs alone, so the peak RSS after it is the
    // system's own; the others also time set-ups between their seconds.
    if (r == 0) {
      rep.Load();
    } else {
      LoadWithSetups(rep, seed, &setups);
    }
    ++timed;
    load_host_s += rep.load_host_s;
    Counts counts = rep.DeterministicCounts();
    if (r == 0) {
      peak_rss = SelfPeakRssMb();
      ops = rep.ops();
      first = std::move(counts);
    } else {
      CompareCounts(first, counts, &out);
    }
    longest = std::max(longest, HostNow() - r0);
  }
  // Repeats are gated equal, so one more, untimed, keeps every accepted
  // read and is checked and reported for all.
  {
    Repeat rep(w, seed, SignatureScheme::kEd25519, nullptr, false, true);
    rep.Setup();
    setups.push_back(rep.setup_s);
    LoadWithSetups(rep, seed, &setups);
    CompareCounts(first, rep.DeterministicCounts(), &out);
    rep.Settle();
    rep.Check(&out);
    AddEndToEnd(rep, &out);
  }
  // Every timed repeat does the same work (the determinism gate checks
  // it), so this is the mean rate over all of their host time.
  out.Set("ops_per_s",
          Ratio(static_cast<double>(ops) * timed, load_host_s), "ops/s");
  out.Set("setup_s", Median(setups), "s");
  out.Set("peak_rss_mb", peak_rss, "MiB");
  out.Note(std::to_string(timed) + " timed repeats, 1 checked, and " +
           std::to_string(setups.size()) + " set-ups at seed " +
           std::to_string(seed) + "; deterministic counts compared");
  return out;
}

RunResult RunTraced(const SimWorkload& w, uint64_t seed,
                    const std::string& span_path,
                    const std::string& node_binary,
                    const std::string& work_dir) {
  RunResult out;
  SpanLog log;
  const double class_weight[4] = {
      w.config.mix.get_weight, w.config.mix.scan_weight,
      w.config.mix.grep_weight, w.config.mix.agg_weight};
  const double weight_sum = class_weight[0] + class_weight[1] +
                            class_weight[2] + class_weight[3];

  // Checked: keeps every accepted read for the check and the layer
  // replays; its host time, which includes copying them, is not used.
  LayerCounts la;
  Replayed rp;
  CheckTimings timings;
  Counts counts;
  double lag_p99 = 0, backlog_p99 = 0, detect_ms = 0, unproven = 0;
  uint64_t wrong = 0;
  {
    Repeat checked(w, seed, SignatureScheme::kEd25519, &log, false, true);
    if (!checked.Setup()) {
      out.Fail(w.name + ": clients never became ready");
      return out;
    }
    {
      ScopedSpan span(&log, "repeat.checked");
      checked.Load();
    }
    counts = checked.DeterministicCounts();
    checked.Settle();
    checked.Check(&out);
    rp = ReplayLayers(checked, &log, &out);
    la = ReadLayerCounts(checked);
    timings = checked.timings;
    lag_p99 = checked.auditor_lag.Quantile(0.99);
    backlog_p99 = checked.auditor_backlog.Quantile(0.99);
    detect_ms = std::max(0.0, checked.detect_ms);
    unproven = checked.unproven_at_window_end;
    wrong = checked.wrong_accepted;
    out.attempted = checked.reads_attempted + checked.writes_attempted;
    out.failed = out.attempted - checked.ops();
  }

  // A, B and C advance in lockstep, one simulated second each in turn, so
  // a change of host speed, which on a shared host lasts seconds to
  // minutes, slows all three alike:
  //   A: untraced and keeping no records, the reference host time;
  //   B: every Simulator::Step timed and recorded as a span;
  //   C: the same seed with null signatures, for the crypto ablation.
  Repeat a(w, seed, SignatureScheme::kEd25519, nullptr, false, false);
  Repeat b(w, seed, SignatureScheme::kEd25519, &log, true, false);
  Repeat cnull(w, seed, SignatureScheme::kNull, nullptr, false, false);
  Repeat* const lockstep[] = {&a, &b, &cnull};
  for (Repeat* r : lockstep) r->Setup();
  {
    ScopedSpan span(&log, "repeats.lockstep");
    for (Repeat* r : lockstep) r->BeginLoad();
    bool done[3] = {false, false, false};
    for (int left = 3; left > 0;) {
      for (int i = 0; i < 3; ++i) {
        if (!done[i] && !lockstep[i]->LoadChunk()) {
          done[i] = true;
          --left;
        }
      }
    }
  }
  CompareCounts(counts, a.DeterministicCounts(), &out);
  const double rate_a = Ratio(static_cast<double>(a.ops()), a.load_host_s);
  const double rate_b = Ratio(static_cast<double>(b.ops()), b.load_host_s);
  const LayerCounts lb = ReadLayerCounts(b);
  const Samples& step_us = b.step_us;

  // D: the loopback pass, the workload's catalogue and mix over sockets.
  LoopbackResult lo;
  {
    ScopedSpan span(&log, "loopback");
    LoopbackOptions lopt;
    lopt.seed = seed;
    lopt.n_items = w.config.corpus.n_items;
    lopt.mix = w.config.mix;
    lopt.ops = w.loopback_ops;
    lopt.node_binary = node_binary;
    lopt.work_dir = work_dir;
    lo = RunLoopback(lopt);
  }
  for (const std::string& p : lo.problems) out.Fail(p);
  out.attempted += lo.reads_attempted + lo.writes_attempted;
  out.failed += lo.reads_attempted - lo.reads_accepted +
                lo.writes_attempted - lo.writes_committed;

  const double ops = la.ops;
  out.Set("sim.events_per_op", Ratio(la.events, ops), "events/op");
  out.Set("sim.step_us_p50", step_us.Quantile(0.5), "us");
  out.Set("sim.step_us_p99", step_us.Quantile(0.99), "us");
  out.Set("net.msgs_per_op", Ratio(la.messages, ops), "msgs/op");
  out.Set("net.bytes_per_op", Ratio(la.bytes, ops), "B/op");
  out.Set("crypto.sign_us", rp.sign_us, "us");
  out.Set("crypto.verify_us", rp.verify_us, "us");
  out.Set("crypto.batch_verify_us_per_sig", rp.batch_verify_us_per_sig, "us");
  const double verifies = la.sig_misses + la.auditor_sig_misses;
  out.Set("crypto.verifies_per_op", Ratio(verifies, ops), "verifies/op");
  out.Set("crypto.sig_cache_hit_rate",
          Ratio(la.sig_hits, la.sig_hits + verifies), "ratio");
  out.Set("crypto.sha1_ns_per_byte", rp.sha1_ns_per_byte, "ns/B");
  out.Set("crypto.result_bytes_per_read", rp.result_bytes_per_read, "B");
  if (a.messages == cnull.messages) {
    out.Set("crypto.ablation_share",
            1.0 - Ratio(cnull.load_host_s, a.load_host_s), "ratio");
  } else {
    out.Note("crypto.ablation_share missing: null-crypto run sent " +
             std::to_string(cnull.messages) + " messages, Ed25519 run " +
             std::to_string(a.messages));
  }
  for (int k = 0; k < 4; ++k) {
    out.Set(std::string("store.exec_us_") + kClassNames[k],
            timings.exec_us[k].Quantile(0.5), "us");
  }
  out.Set("store.materialize_us", timings.materialize_us.Quantile(0.5), "us");
  out.Set("store.work_units_per_read",
          Ratio(la.slave_work_units, la.slave_reads_served), "units/read");
  out.Set("client.retries_per_read", Ratio(la.client_retries, la.reads),
          "ratio");
  out.Set("client.double_check_rate", Ratio(la.double_checks, la.reads),
          "ratio");
  out.Set("client.stale_reject_rate", Ratio(la.stale_rejects, la.reads),
          "ratio");
  out.Set("client.wrong_accepted", static_cast<double>(wrong), "count");
  out.Set("master.commit_sigs_per_write",
          Ratio(la.commit_sigs, la.writes_committed), "sigs/write");
  out.Set("master.writes_per_batch",
          la.batches > 0 ? la.writes_batched / la.batches : 1.0,
          "writes/batch");
  out.Set("auditor.reexec_per_pledge",
          Ratio(la.memo_misses, la.pledges_received), "ratio");
  out.Set("auditor.memo_hit_rate",
          Ratio(la.memo_hits, la.memo_hits + la.memo_misses), "ratio");
  out.Set("auditor.dedup_rate", Ratio(la.deduped, la.pledges_received),
          "ratio");
  out.Set("auditor.version_lag_p99", lag_p99, "versions");
  out.Set("auditor.backlog_p99", backlog_p99, "pledges");
  out.Set("auditor.unproven_frac", unproven, "ratio");
  out.Set("auditor.detect_ms", detect_ms, "ms");
  out.Set("shard.subreads_per_read", Ratio(la.requests, la.reads),
          "subreads/read");
  out.Set("shard.hot_share", la.hot_share, "ratio");
  out.Set("forkcheck.vvs_per_read",
          Ratio(la.vvs_attached, la.slave_reads_served), "vvs/read");
  const double lo_reads = static_cast<double>(lo.reads_attempted);
  out.Set("runtime.msgs_per_read",
          Ratio(static_cast<double>(lo.messages_sent), lo_reads), "msgs/read");
  out.Set("runtime.bytes_per_read",
          Ratio(static_cast<double>(lo.bytes_sent), lo_reads), "B/read");
  out.Set("runtime.reconnects", static_cast<double>(lo.reconnects), "count");
  out.Note("loopback: " + std::to_string(lo.reads_accepted) + "/" +
           std::to_string(lo.reads_attempted) + " reads accepted, " +
           std::to_string(lo.writes_committed) + "/" +
           std::to_string(lo.writes_attempted) + " writes committed");

  // Host time the replayed per-call costs explain, against the traced
  // Step time. Counts come from the traced repeat itself.
  double step_total_us = 0;
  for (double v : step_us.values()) step_total_us += v;
  const double signs = lb.slave_reads_served + lb.commit_sigs +
                       lb.keepalive_signs + lb.vvs_attached;
  const double sha1_bytes =
      rp.result_bytes_per_read *
      (lb.slave_reads_served + lb.reads + lb.memo_misses);
  double exec = 0;
  const double executions =
      lb.slave_reads_served + lb.memo_misses + lb.double_checks_served;
  for (int k = 0; k < 4; ++k) {
    exec += executions * class_weight[k] / weight_sum *
            timings.exec_us[k].Quantile(0.5);
  }
  const double materializations =
      std::max(0.0, lb.audit_work_items - lb.memo_misses);
  const double attributed =
      signs * rp.sign_us + lb.sig_misses * rp.verify_us +
      lb.auditor_sig_misses * rp.batch_verify_us_per_sig +
      sha1_bytes * rp.sha1_ns_per_byte / 1e3 + exec +
      materializations * timings.materialize_us.Quantile(0.5);
  out.Set("bench.unattributed_share", 1.0 - Ratio(attributed, step_total_us),
          "ratio");
  out.Set("bench.trace_overhead", 1.0 - Ratio(rate_b, rate_a), "ratio");

  if (!span_path.empty()) {
    if (log.WriteTo(span_path)) {
      out.Note("spans: " + std::to_string(log.size()) + " written to " +
               span_path);
    } else {
      out.Note("spans: could not write " + span_path);
    }
  }
  return out;
}

}  // namespace

bool MakeSimWorkload(const std::string& name, SimWorkload* out) {
  if (name == "point_reads") {
    *out = PointReads();
  } else if (name == "grep_audit") {
    *out = GrepAudit();
  } else if (name == "sharded_writes") {
    *out = ShardedWrites();
  } else {
    return false;
  }
  return true;
}

std::vector<size_t> FindWrongReads(const std::vector<const sdr::OpLog*>& logs,
                                   const std::vector<AcceptedRecord>& records,
                                   std::string* error, CheckTimings* timings,
                                   SpanLog* spans) {
  std::vector<size_t> wrong;
  sdr::QueryExecutor executor;
  // Records are visited grouped by (shard, version), so one materialized
  // store is alive at a time; results are memoized within a group, since
  // the expensive classes repeat their queries.
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::tie(records[a].shard, records[a].version) <
           std::tie(records[b].shard, records[b].version);
  });
  std::optional<DocumentStore> store;
  std::pair<uint32_t, uint64_t> group{UINT32_MAX, 0};
  std::map<std::string, QueryResult> results;
  for (size_t i : order) {
    const AcceptedRecord& rec = records[i];
    if (rec.shard >= logs.size()) {
      *error = "accepted read names an unknown shard";
      continue;
    }
    if (group != std::make_pair(rec.shard, rec.version)) {
      group = {rec.shard, rec.version};
      results.clear();
      store.reset();
      const sdr::OpLog& log = *logs[rec.shard];
      const int64_t a = spans ? spans->NowNs() : 0;
      const double h0 = HostNow();
      auto at = log.MaterializeAt(rec.version);
      if (timings) timings->materialize_us.Add((HostNow() - h0) * 1e6);
      if (spans) spans->Add("check.materialize", a, spans->NowNs());
      if (!at.ok()) {
        *error = "accepted read at version " + std::to_string(rec.version) +
                 " beyond the master's log";
        continue;
      }
      store = std::move(at).value();
    }
    if (!store) continue;
    const sdr::Bytes encoded = rec.query.Encode();
    std::string key(encoded.begin(), encoded.end());
    auto rit = results.find(key);
    if (rit == results.end()) {
      const int64_t a = spans ? spans->NowNs() : 0;
      const double h0 = HostNow();
      auto outcome = executor.Execute(*store, rec.query);
      if (timings) {
        timings->exec_us[ClassOf(rec.query.kind)].Add((HostNow() - h0) * 1e6);
      }
      if (spans) spans->Add("check.execute", a, spans->NowNs());
      if (!outcome.ok()) {
        *error = "accepted read's query does not execute";
        continue;
      }
      rit = results.emplace(std::move(key), std::move(outcome->result)).first;
    }
    if (!(rit->second == rec.result)) wrong.push_back(i);
  }
  return wrong;
}

RunResult RunSimWorkload(const SimWorkload& w, uint64_t seed, double seconds,
                         bool trace, const std::string& span_path,
                         const std::string& node_binary,
                         const std::string& work_dir) {
  return trace ? RunTraced(w, seed, span_path, node_binary, work_dir)
               : RunUntraced(w, seed, seconds);
}

bool CheckerRejectsTamperedRecord(std::string* detail) {
  SimWorkload w = PointReads();
  w.load_duration = 5 * kSecond;
  Repeat rep(w, 1, SignatureScheme::kEd25519, nullptr, false, true);
  if (!rep.Setup()) {
    *detail = "clients never became ready";
    return false;
  }
  rep.Load();
  rep.Settle();
  std::string error;
  std::vector<AcceptedRecord> records = rep.records;
  if (records.empty()) {
    *detail = "no accepted reads to tamper with";
    return false;
  }
  const std::vector<const sdr::OpLog*> logs = ShardLogs(rep.cluster());
  std::vector<size_t> wrong = FindWrongReads(logs, records, &error);
  if (!wrong.empty() || !error.empty()) {
    *detail = "untampered records did not check clean";
    return false;
  }
  const size_t victim = records.size() / 2;
  QueryResult& r = records[victim].result;
  if (r.type == QueryResult::Type::kRows) {
    r.rows.emplace_back("item/tampered", "x");
  } else {
    r.scalar += 1;
  }
  wrong = FindWrongReads(logs, records, &error);
  if (wrong != std::vector<size_t>{victim}) {
    *detail = "the tampered record was not the one reported";
    return false;
  }
  return true;
}

}  // namespace perfbench
