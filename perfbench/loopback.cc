#include "loopback.h"

#include <algorithm>
#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fcntl.h>
#include <functional>
#include <map>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "sim_workload.h"
#include "src/runtime/deployment.h"
#include "src/runtime/real_env.h"

extern char** environ;

namespace perfbench {
namespace {

using sdr::kMillisecond;
using sdr::kSecond;
using sdr::NodeId;

int64_t NowRealtimeUs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

// Binds an ephemeral loopback port, reads it back and releases it; the node
// process binds it again moments later.
uint16_t ProbeFreePort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    socklen_t len = sizeof addr;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  close(fd);
  return port;
}

// True once something accepts connections on the loopback port.
bool Listening(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const bool ok =
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  close(fd);
  return ok;
}

bool WriteFileString(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(data.data(), 1, data.size(), f);
  return std::fclose(f) == 0 && n == data.size();
}

// Starts `binary --config=<config> --out=<report> --trace=false` with its
// output in `log`; returns the pid, or -1.
pid_t Spawn(const std::string& binary, const std::string& config,
            const std::string& report, const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::string config_arg = "--config=" + config;
  std::string out_arg = "--out=" + report;
  std::string trace_arg = "--trace=false";
  char* argv[] = {const_cast<char*>(binary.c_str()), config_arg.data(),
                  out_arg.data(), trace_arg.data(), nullptr};
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

// SIGTERM, then up to five seconds for a clean exit, then SIGKILL; every
// child is reaped before this returns. False if any exited uncleanly.
bool StopAll(const std::vector<pid_t>& pids) {
  for (pid_t pid : pids) kill(pid, SIGTERM);
  bool clean = true;
  std::vector<bool> done(pids.size(), false);
  for (int waited_ms = 0; waited_ms < 5000; waited_ms += 20) {
    bool all = true;
    for (size_t i = 0; i < pids.size(); ++i) {
      if (done[i]) continue;
      int status = 0;
      if (waitpid(pids[i], &status, WNOHANG) == pids[i]) {
        done[i] = true;
        clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      } else {
        all = false;
      }
    }
    if (all) return clean;
    usleep(20000);
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    if (done[i]) continue;
    kill(pids[i], SIGKILL);
    waitpid(pids[i], nullptr, 0);
    clean = false;
  }
  return clean;
}

constexpr double kWriteFraction = 0.02;

struct Op {
  bool write = false;
  sdr::Query query;
  sdr::WriteBatch batch;
};

}  // namespace

LoopbackResult RunLoopback(const LoopbackOptions& o) {
  LoopbackResult out;
  // One master, one slave and an auditor, so the client dials four peers
  // (with the directory). The write path commits one write per
  // max_latency, a cap of 5 per second; keepalives come four times per
  // freshness window.
  sdr::DeploymentConfig dc;
  dc.seed = o.seed;
  dc.num_masters = 1;
  dc.num_auditors = 1;
  dc.slaves_per_master = 1;
  dc.num_clients = 1;
  dc.corpus.n_items = o.n_items;
  dc.params.max_latency = 200 * kMillisecond;
  dc.params.keepalive_period = 50 * kMillisecond;
  const sdr::DeploymentPlan plan = sdr::BuildDeployment(dc);
  const NodeId client_id = plan.client_ids[0];

  std::vector<Op> ops;
  {
    sdr::Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 0x10BAC);
    sdr::QueryMix mix = o.mix;
    mix.n_items = o.n_items;
    sdr::WriteGen gen;
    gen.n_items = o.n_items;
    for (int i = 0; i < o.ops; ++i) {
      Op op;
      op.write = rng.NextBool(kWriteFraction);
      if (op.write) {
        op.batch = gen.Generate(rng);
      } else {
        op.query = mix.Generate(rng);
      }
      ops.push_back(std::move(op));
    }
  }

  sdr::RealEnv::Options eo;
  eo.rng_seed = o.seed * 1000003 + client_id;
  eo.epoch_realtime_us = NowRealtimeUs();
  // Lets the node processes come up and dial each other first.
  eo.start_delay = 300 * kMillisecond;
  sdr::RealEnv env(eo);
  if (env.listen_port() == 0) {
    out.problems.push_back("loopback: the client cannot listen");
    return out;
  }

  std::vector<NodeId> servers = {plan.directory_id};
  for (NodeId id : plan.master_ids) servers.push_back(id);
  for (NodeId id : plan.auditor_ids) servers.push_back(id);
  for (NodeId id : plan.slave_ids) servers.push_back(id);
  std::map<NodeId, uint16_t> ports;
  ports[client_id] = env.listen_port();
  for (NodeId id : servers) ports[id] = ProbeFreePort();

  std::vector<pid_t> pids;
  for (NodeId id : servers) {
    sdr::NodeConfig nc;
    nc.node_id = id;
    nc.deployment = dc;
    nc.epoch_us = eo.epoch_realtime_us;
    nc.listen_port = ports[id];
    for (const auto& [peer, port] : ports) {
      if (peer != id) nc.peers.push_back({peer, "127.0.0.1", port});
    }
    const std::string base = o.work_dir + "/loopback-node" + std::to_string(id);
    if (ports[id] == 0 ||
        !WriteFileString(base + ".conf", sdr::FormatNodeConfig(nc))) {
      out.problems.push_back("loopback: cannot configure node " +
                             std::to_string(id));
      break;
    }
    const pid_t pid =
        Spawn(o.node_binary, base + ".conf", base + ".json", base + ".log");
    if (pid < 0) {
      out.problems.push_back("loopback: cannot start " + o.node_binary);
      break;
    }
    pids.push_back(pid);
  }
  // Every node listens before the client dials, so the reconnect count
  // holds only connections lost during the run.
  for (int waited_ms = 0; out.problems.empty(); waited_ms += 10) {
    bool all = true;
    for (NodeId id : servers) all = all && Listening(ports[id]);
    if (all) break;
    if (waited_ms >= 10000) {
      out.problems.push_back("loopback: node processes not listening");
    }
    usleep(10000);
  }
  if (!out.problems.empty()) {
    StopAll(pids);
    return out;
  }

  // Declared before the client, whose callbacks refer to them.
  std::vector<AcceptedRecord> records;
  std::vector<std::pair<uint64_t, sdr::WriteBatch>> committed;
  size_t next = 0, completed = 0;
  sdr::Client client(
      sdr::ClientOptionsFor(plan, 0, sdr::Client::LoadMode::kManual));
  client.on_accept = [&records, prev = std::move(client.on_accept)](
                         const sdr::Query& q, const sdr::Pledge& p,
                         const sdr::QueryResult& r) {
    records.push_back(AcceptedRecord{q, 0, p.token.content_version, p.slave, r});
    if (prev) prev(q, p, r);
  };
  env.Attach(&client, client_id);
  for (NodeId id : servers) env.AddPeer(id, "127.0.0.1", ports[id]);

  std::function<void()> issue = [&] {
    if (next >= ops.size()) return;
    Op& op = ops[next++];
    auto done = [&] {
      if (++completed == ops.size()) {
        env.RequestStop();
      } else {
        env.ScheduleAfter(0, [&] { issue(); });
      }
    };
    if (op.write) {
      ++out.writes_attempted;
      client.IssueWrite(op.batch, [&, done, batch = op.batch](
                                      bool ok, uint64_t version) {
        if (ok) {
          ++out.writes_committed;
          committed.emplace_back(version, batch);
        }
        done();
      });
    } else {
      ++out.reads_attempted;
      client.IssueRead(op.query, [&, done](bool ok, const sdr::QueryResult&) {
        if (ok) ++out.reads_accepted;
        done();
      });
    }
  };
  bool started = false;
  std::function<void()> poll = [&] {
    if (client.ready()) {
      started = true;
      // Operations in flight: 4, or fewer on a host with fewer cores.
      const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
      for (unsigned i = 0; i < std::min(4u, cores); ++i) issue();
    } else {
      env.ScheduleAfter(10 * kMillisecond, [&] { poll(); });
    }
  };
  env.ScheduleAfter(eo.start_delay + 10 * kMillisecond, [&] { poll(); });
  env.ScheduleAfter(60 * kSecond, [&] { env.RequestStop(); });
  env.Run();
  out.messages_sent = env.messages_sent();
  out.bytes_sent = env.bytes_sent();
  out.reconnects = env.reconnects();
  if (!StopAll(pids)) {
    out.problems.push_back("loopback: a node process did not exit cleanly");
  }
  if (!started) {
    out.problems.push_back("loopback: the client never became ready");
  } else if (completed < ops.size()) {
    out.problems.push_back("loopback: " +
                           std::to_string(ops.size() - completed) +
                           " operations unfinished after 60 s");
  }

  // The benchmark is the only writer, so its committed writes in version
  // order, over the base content, are the master's whole log.
  std::sort(committed.begin(), committed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sdr::OpLog log;
  log.SetBaseSnapshot(plan.base);
  for (auto& [version, batch] : committed) {
    if (version != log.head_version() + 1) {
      out.problems.push_back("loopback: committed versions are not 1, 2, ...");
      break;
    }
    log.Append(version, std::move(batch));
  }
  std::string error;
  const size_t wrong = FindWrongReads({&log}, records, &error).size();
  if (!error.empty()) out.problems.push_back("loopback: " + error);
  if (wrong > 0) {
    out.problems.push_back("loopback: " + std::to_string(wrong) +
                           " accepted reads differ from the replayed log");
  }
  return out;
}

}  // namespace perfbench
