#include "serve.h"

#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "inproc.h"
#include "oracle.h"
#include "query/pattern_parser.h"
#include "rng.h"
#include "server/client.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"

extern char** environ;

namespace perfbench {

namespace {

using rigpm::server::QueryClient;

// The benchmark's own view of the current edge set, for drawing write
// batches and rebuilding every generation without the program's help.
class EdgeSet {
 public:
  explicit EdgeSet(const std::vector<Edge>& edges) : edges_(edges) {
    for (size_t i = 0; i < edges_.size(); ++i) index_[Key(edges_[i])] = i;
  }
  bool Has(const Edge& e) const { return index_.count(Key(e)) > 0; }
  void Add(const Edge& e) {
    index_[Key(e)] = edges_.size();
    edges_.push_back(e);
  }
  void Remove(const Edge& e) {
    size_t i = index_.at(Key(e));
    index_[Key(edges_.back())] = i;
    edges_[i] = edges_.back();
    edges_.pop_back();
    index_.erase(Key(e));
  }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  static uint64_t Key(const Edge& e) {
    return uint64_t{e.first} << 32 | e.second;
  }
  std::vector<Edge> edges_;
  std::unordered_map<uint64_t, size_t> index_;
};

struct WriteOp {
  Edge edge;
  bool del = false;
};

// Deletes of distinct existing edges, then adds of distinct absent
// non-loop edges; applied to `current` as drawn.
std::vector<WriteOp> DrawBatch(Rng& rng, EdgeSet& current, uint32_t nodes,
                               uint32_t adds, uint32_t deletes) {
  std::vector<WriteOp> ops;
  for (uint32_t i = 0; i < deletes && !current.edges().empty(); ++i) {
    const std::vector<Edge>& e = current.edges();
    Edge victim = e[rng.Below(static_cast<uint32_t>(e.size()))];
    current.Remove(victim);
    ops.push_back({victim, true});
  }
  std::set<Edge> deleted;
  for (const WriteOp& op : ops) deleted.insert(op.edge);
  for (uint32_t i = 0; i < adds;) {
    Edge e(rng.Below(nodes), rng.Below(nodes));
    if (e.first == e.second || current.Has(e) || deleted.count(e)) continue;
    current.Add(e);
    ops.push_back({e, false});
    ++i;
  }
  return ops;
}

// rigpm_serve as a child process: started with posix_spawn, its output
// sent to a log file, always reaped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill(); }

  bool Start(const std::vector<std::string>& argv, const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    int rc = posix_spawn(&pid_, cargv[0], &actions, nullptr, cargv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }
  pid_t pid() const { return pid_; }
  bool Running() {
    if (pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }
  /// Waits up to `ms` for the process to exit; true once it has.
  bool Wait(int ms) {
    for (int i = 0; pid_ > 0 && i < ms; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
      }
      usleep(1000);
    }
    return pid_ <= 0;
  }
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    if (!Wait(5000)) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
};

struct Sample {
  uint32_t query = 0;
  uint32_t generation = 0;
  uint64_t count = 0;
  double rtt_ms = 0;
  int kind = 0;  // 0 = hit, 1 = miss (first request of its pair), 2 = joined
                 // a miss in flight
};

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

}  // namespace

bool RunServed(const Args& args, const ServeSpec& spec, const DataGraph& data,
               const std::vector<Pattern>& pool, Tracer* tracer,
               const ServeHooks& hooks, Result* result) {
  if (args.serve_binary.empty() || args.work_dir.empty()) {
    std::fprintf(stderr, "served runs need --serve-binary and --work-dir\n");
    return false;
  }
  mkdir(args.work_dir.c_str(), 0755);
  const std::string snap = args.work_dir + "/base.snap";
  const std::string delta = args.work_dir + "/base.delta";
  const std::string sock = args.work_dir + "/serve.sock";
  for (const std::string& f : {snap, delta, sock, snap + ".head"}) {
    unlink(f.c_str());
  }
  const uint32_t nodes = static_cast<uint32_t>(data.labels.size());
  auto span = [&](const char* name) {
    return tracer != nullptr ? tracer->Begin(name) : -1;
  };
  auto end = [&](int64_t id) {
    if (tracer != nullptr) tracer->End(id);
  };

  // ---- Set-up: the snapshot, then the daemon until it answers a ping.
  auto setup_start = Clock::now();
  std::string error;
  uint64_t checksum = 0;
  {
    std::unique_ptr<rigpm::Graph> graph;
    std::unique_ptr<rigpm::GmEngine> engine;
    if (hooks.build) {
      std::tie(graph, engine) = hooks.build(data);
    } else {
      graph = std::make_unique<rigpm::Graph>(BuildGraph(data));
      engine = std::make_unique<rigpm::GmEngine>(*graph);
    }
    int64_t s = span("storage.snapshot_save");
    bool saved = rigpm::SaveEngineSnapshot(*engine, snap, &error);
    end(s);
    if (!saved) {
      std::fprintf(stderr, "cannot save snapshot: %s\n", error.c_str());
      return false;
    }
  }
  auto info = rigpm::InspectSnapshot(snap, &error);
  if (!info.has_value()) {
    std::fprintf(stderr, "cannot inspect snapshot: %s\n", error.c_str());
    return false;
  }
  checksum = info->stored_checksum;
  rigpm::DeltaWriterOptions writer_opts;
  writer_opts.fsync_each_append = false;
  auto writer =
      rigpm::DeltaWriter::Open(delta, checksum, nodes, &error, writer_opts);
  if (writer == nullptr) {
    std::fprintf(stderr, "cannot open delta log: %s\n", error.c_str());
    return false;
  }
  Daemon daemon;
  int64_t start_span = span("server.start");
  if (!daemon.Start({args.serve_binary, "--snapshot", snap, "--delta", delta,
                     "--socket", sock},
                    args.work_dir + "/serve.log")) {
    std::fprintf(stderr, "cannot start %s\n", args.serve_binary.c_str());
    return false;
  }
  QueryClient control;
  for (int i = 0; i < 30000; ++i) {
    if (control.ConnectUnix(sock) && control.Ping()) break;
    control.Close();
    if (!daemon.Running()) break;
    usleep(1000);
  }
  end(start_span);
  if (!control.connected()) {
    std::fprintf(stderr, "daemon did not answer a ping (see %s/serve.log)\n",
                 args.work_dir.c_str());
    return false;
  }
  const double setup_s = MsBetween(setup_start, Clock::now()) / 1000.0;

  if (tracer != nullptr) {  // the load the daemon just did, timed here
    int64_t s = span("storage.snapshot_load");
    auto warm = rigpm::LoadEngineSnapshot(snap, {}, &error);
    end(s);
    if (!warm.has_value()) result->Fail("snapshot does not load: " + error);
  }

  const uint32_t clients =
      std::max(1u, std::min(spec.clients, std::thread::hardware_concurrency()));
  std::vector<QueryClient> conns(clients);
  for (QueryClient& c : conns) {
    if (!c.ConnectUnix(sock, &error)) {
      std::fprintf(stderr, "cannot connect: %s\n", error.c_str());
      return false;
    }
  }
  std::vector<rigpm::server::QueryRequest> requests(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    requests[i].patterns = {pool[i].Text()};
    requests[i].limit = spec.limit;
  }
  std::vector<double> zipf_cdf;
  double zipf_total = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    zipf_total += 1.0 / std::pow(r + 1.0, spec.zipf);
    zipf_cdf.push_back(zipf_total);
  }

  // ---- Timed phase: rounds of (request phase, write, refresh).
  Rng request_rng(StreamSeed(args.seed, 2));
  Rng write_rng(StreamSeed(args.seed, 3));
  EdgeSet current(data.edges);
  std::vector<std::vector<WriteOp>> batches;  // batch g makes generation g+1
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::string> transport_errors;
  std::mutex errors_mu;
  uint64_t refresh_failures = 0, misses_reported = 0, hits_reported = 0,
           waits_reported = 0, distinct_pairs = 0;
  uint64_t delta_ops = 0;
  const uint64_t delta_start_bytes = FileBytes(delta);
  auto read_cache_stats = [&]() {
    auto st = control.Stats(&error);
    if (!st.has_value()) {
      result->Fail("stats round trip failed: " + error);
      return;
    }
    misses_reported += st->cache_misses;
    hits_reported += st->cache_hits;
    waits_reported += st->cache_singleflight_waits;
  };

  uint32_t generation = 0;
  auto start = Clock::now();
  double elapsed_ms = 0;
  for (uint32_t round = 0;; ++round) {
    if (spec.max_rounds > 0 ? round >= spec.max_rounds
                            : elapsed_ms >= spec.seconds * 1000) {
      break;
    }
    std::vector<uint32_t> phase(spec.requests_per_phase);
    for (uint32_t& q : phase) {
      q = static_cast<uint32_t>(
          std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(),
                           request_rng.Unit() * zipf_total) -
          zipf_cdf.begin());
      q = std::min<uint32_t>(q, static_cast<uint32_t>(pool.size()) - 1);
    }
    std::vector<std::atomic<int>> state(pool.size());  // 0 new, 1 busy, 2 done
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = next.fetch_add(1); i < phase.size();
             i = next.fetch_add(1)) {
          const uint32_t q = phase[i];
          Sample s;
          s.query = q;
          s.generation = generation;
          int seen = state[q].load();
          if (seen == 2) {
            s.kind = 0;
          } else if (seen == 0 && state[q].compare_exchange_strong(seen, 1)) {
            s.kind = 1;
          } else {
            s.kind = 2;
          }
          std::string err;
          auto t0 = Clock::now();
          auto resp = conns[c].Query(requests[q], &err);
          s.rtt_ms = MsBetween(t0, Clock::now());
          if (s.kind == 1) state[q].store(2);
          if (!resp.has_value() ||
              resp->status != rigpm::server::StatusCode::kOk ||
              resp->results.size() != 1) {
            std::lock_guard<std::mutex> lock(errors_mu);
            transport_errors.push_back(
                pool[q].name + ": " +
                (resp.has_value() ? resp->error : "transport: " + err));
            continue;
          }
          s.count = resp->results[0].num_occurrences;
          per_client[c].push_back(s);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& st : state) distinct_pairs += st.load() == 2 ? 1 : 0;

    // The write barrier: every response above belongs to `generation`.
    std::vector<WriteOp> batch =
        DrawBatch(write_rng, current, nodes, spec.write_adds,
                  spec.write_deletes);
    std::vector<rigpm::DeltaOp> ops;
    for (const WriteOp& w : batch) {
      ops.push_back({w.edge.first, w.edge.second,
                     w.del ? rigpm::DeltaOpKind::kDelete
                           : rigpm::DeltaOpKind::kAdd});
    }
    int64_t a = span("storage.delta_append");
    bool appended = writer->AppendOps(ops, &error);
    end(a);
    if (!appended) {
      result->Fail("delta append failed: " + error);
      break;
    }
    delta_ops += ops.size();
    batches.push_back(std::move(batch));
    read_cache_stats();  // the cache is per generation: read it before
    int64_t r = span("server.refresh");
    auto refreshed = control.Refresh(&error);
    end(r);
    ++result->attempted;
    if (!refreshed.has_value() ||
        refreshed->status != rigpm::server::StatusCode::kOk ||
        refreshed->records_applied != 1) {
      ++refresh_failures;
      result->Fail("refresh failed: " +
                   (refreshed.has_value() ? refreshed->error : error));
      break;
    }
    ++generation;
    elapsed_ms = MsBetween(start, Clock::now());
  }
  read_cache_stats();  // the last generation has no write after it
  auto final_stats = control.Stats(&error);
  const double peak_rss = PeakRssMb(daemon.pid());
  if (!control.Shutdown(&error)) result->Fail("shutdown failed: " + error);
  for (QueryClient& c : conns) c.Close();
  control.Close();
  if (!daemon.Wait(10000)) {
    result->Fail("daemon did not exit after shutdown");
    daemon.Kill();
  }

  std::vector<Sample> samples;
  for (auto& v : per_client) samples.insert(samples.end(), v.begin(), v.end());
  result->attempted += samples.size() + transport_errors.size();
  result->failed += transport_errors.size() + refresh_failures;
  for (const std::string& e : transport_errors) {
    result->Fail("round trip failed: " + e);
  }
  if (misses_reported != distinct_pairs) {
    result->Fail("daemon counted " + std::to_string(misses_reported) +
                 " cache misses, the generator sent " +
                 std::to_string(distinct_pairs) +
                 " distinct (query, generation) pairs");
  }

  // ---- Checks: every served count against the oracle on its generation,
  // each generation rebuilt from the generated edges plus our own ops.
  std::vector<DataGraph> gens;
  {
    EdgeSet replay(data.edges);
    gens.push_back(data);
    for (const auto& batch : batches) {
      for (const WriteOp& w : batch) {
        if (w.del) {
          replay.Remove(w.edge);
        } else {
          replay.Add(w.edge);
        }
      }
      gens.push_back({data.num_labels, data.labels, replay.edges()});
    }
  }
  // Pairs served, each with the counts the daemon returned.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint64_t>> served;
  for (const Sample& s : samples) {
    served[{s.generation, s.query}].push_back(s.count);
  }
  std::vector<std::vector<std::string>> failures(gens.size());
  std::vector<double> oracle_ms(gens.size(), 0);
  std::vector<size_t> oracle_counted(gens.size(), 0);
  std::atomic<size_t> next_gen{0};
  std::vector<std::thread> checkers;
  const uint32_t workers =
      std::max(1u, std::min<uint32_t>(std::thread::hardware_concurrency(), 4));
  for (uint32_t w = 0; w < workers; ++w) {
    checkers.emplace_back([&] {
      for (size_t g = next_gen.fetch_add(1); g < gens.size();
           g = next_gen.fetch_add(1)) {
        Oracle oracle(gens[g]);
        auto it = served.lower_bound({static_cast<uint32_t>(g), 0});
        for (; it != served.end() && it->first.first == g; ++it) {
          const Pattern& p = pool[it->first.second];
          auto t0 = Clock::now();
          uint64_t expected = oracle.Count(p, spec.limit);
          oracle_ms[g] += MsBetween(t0, Clock::now());
          ++oracle_counted[g];
          for (uint64_t got : it->second) {
            if (got != expected) {
              failures[g].push_back(p.name + " on generation " +
                                    std::to_string(g) + ": served " +
                                    std::to_string(got) + ", oracle " +
                                    std::to_string(expected));
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  double oracle_total_ms = 0;
  size_t oracle_total_counted = 0;
  for (size_t g = 0; g < gens.size(); ++g) {
    for (const std::string& f : failures[g]) result->Fail(f);
    oracle_total_ms += oracle_ms[g];
    oracle_total_counted += oracle_counted[g];
  }

  std::fprintf(stderr,
               "served: %zu requests over %u generation(s) in %.1f s, %llu "
               "distinct pairs, %llu hits, %llu joined a miss in flight\n",
               samples.size(), generation, elapsed_ms / 1000,
               static_cast<unsigned long long>(distinct_pairs),
               static_cast<unsigned long long>(hits_reported),
               static_cast<unsigned long long>(waits_reported));

  std::vector<double> rtt;
  for (const Sample& s : samples) rtt.push_back(s.rtt_ms);
  if (tracer == nullptr) {
    result->Add("setup_s", setup_s, "s");
    result->Add("queries_per_s", samples.size() / (elapsed_ms / 1000), "1/s");
    result->Add("latency_p50_ms", Median(rtt), "ms");
    result->Add("latency_tail_ms", Percentile(rtt, spec.tail_percentile),
                "ms");
    result->Add("peak_rss_mb", peak_rss, "MB");
    return true;
  }

  // ---- Traced run: per-layer figures. A miss's server overhead is its
  // round trip minus an in-process Evaluate of the same query on the same
  // generation (an engine the benchmark builds from its own edge list).
  std::map<std::pair<uint32_t, uint32_t>, double> miss_rtt;
  std::vector<double> hit_rtt, miss_rtts;
  for (const Sample& s : samples) {
    if (s.kind == 0) hit_rtt.push_back(s.rtt_ms);
    if (s.kind == 1) {
      miss_rtt[{s.generation, s.query}] = s.rtt_ms;
      miss_rtts.push_back(s.rtt_ms);
    }
  }
  std::vector<rigpm::PatternQuery> parsed;
  for (const Pattern& p : pool) {
    parsed.push_back(rigpm::ParsePattern(p.Text()).value_or(
        rigpm::PatternQuery()));
  }
  std::vector<double> overhead;
  const rigpm::GmOptions opts = ServingOptions(spec.limit);
  uint64_t qid = 0;
  // The first two generations: enough misses for a median, and the
  // layer chain's re-run of each stays within the run's time.
  for (uint32_t g = 0; g < std::min<size_t>(gens.size(), 2); ++g) {
    auto it = miss_rtt.lower_bound({g, 0});
    if (it == miss_rtt.end() || it->first.first != g) continue;
    rigpm::Graph graph = BuildGraph(gens[g]);
    rigpm::GmEngine engine(graph);
    rigpm::EvalContext ctx = engine.MakeContext();
    for (; it != miss_rtt.end() && it->first.first == g; ++it) {
      const rigpm::PatternQuery& q = parsed[it->first.second];
      auto t0 = Clock::now();
      uint64_t n = engine.Evaluate(ctx, q, opts).num_occurrences;
      overhead.push_back(it->second - MsBetween(t0, Clock::now()));
      if (hooks.chain && hooks.chain(engine, q, ++qid) != n) {
        result->Fail(pool[it->first.second].name +
                     ": layer chain count differs from Evaluate");
      }
    }
  }
  const uint64_t lookups = hits_reported + misses_reported + waits_reported;
  result->Add("storage.snapshot_save_ms",
              tracer->TotalMs("storage.snapshot_save"), "ms");
  result->Add("storage.snapshot_load_ms",
              tracer->TotalMs("storage.snapshot_load"), "ms");
  result->Add("storage.snapshot_bytes", static_cast<double>(FileBytes(snap)),
              "bytes");
  result->Add("server.start_ms", tracer->TotalMs("server.start"), "ms");
  if (spec.report_oracle_ms) {
    result->Add("oracle.count_ms",
                oracle_total_counted > 0
                    ? oracle_total_ms / oracle_total_counted
                    : 0,
                "ms");
  }
  result->Add("server.hit_rtt_p50_ms", Median(hit_rtt), "ms");
  result->Add("server.miss_rtt_p50_ms", Median(miss_rtts), "ms");
  result->Add("server.miss_overhead_ms", Median(overhead), "ms");
  result->Add("server.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits_reported) / lookups : 0,
              "ratio");
  result->Add("server.frames_per_flush",
              final_stats.has_value() && final_stats->flushes > 0
                  ? static_cast<double>(final_stats->frames_flushed) /
                        final_stats->flushes
                  : 0,
              "ratio");
  result->Add("server.refresh_ms", Median(tracer->Durations("server.refresh")),
              "ms");
  result->Add("storage.delta_append_ms",
              Median(tracer->Durations("storage.delta_append")), "ms");
  result->Add("storage.delta_bytes_per_op",
              delta_ops > 0 ? static_cast<double>(FileBytes(delta) -
                                                  delta_start_bytes) /
                                  delta_ops
                            : 0,
              "bytes");
  return true;
}

bool RunServeMixed(const Args& args, const WorkloadConfig& config,
                   Tracer* tracer, const ServeHooks& hooks, Result* result) {
  DataGraph data = GeneratePowerLawGraph(config.graph, args.seed);
  std::vector<Pattern> pool = ServePool(config.pool_size, data.num_labels);
  ServeSpec spec;
  spec.clients = config.clients;
  spec.zipf = config.zipf;
  spec.requests_per_phase = config.requests_per_phase;
  spec.write_adds = config.write_adds;
  spec.write_deletes = config.write_deletes;
  spec.limit = config.limit;
  spec.tail_percentile = config.tail_percentile;
  spec.seconds = args.seconds;
  return RunServed(args, spec, data, pool, tracer, hooks, result);
}

}  // namespace perfbench
