// The dwrs benchmark: three workloads driven through the library's public
// API, every output checked, end-to-end metrics (--trace 0) or the
// per-layer ledger (--trace 1) printed as the last line of stdout.
//
//   dwrs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --state-dir <dir> [--ingest-rate <items/s>]
//
// A run repeats whole rounds until --seconds have passed. Each round
// generates a fresh stream from (seed, round), builds a fresh stack
// (set-up), ingests the stream, checks every output, and reads the final
// sample through the query plane. Figures are medians over rounds of
// per-round figures (read percentiles included). --ingest-rate replaces
// the workload's feeder rate (0 = closed loop); the README uses it to
// measure the rate the live_query stack sustains. See README.md for the
// workloads, the ledger and the reference figures.

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/sampler.h"
#include "core/sharded_sampler.h"
#include "durability/durable_shard.h"
#include "engine/sharded_engine.h"
#include "estimators/swor_estimators.h"
#include "faults/harness.h"
#include "query/capture.h"
#include "query/live.h"
#include "query/query_service.h"
#include "sim/sharded_runtime.h"
#include "stream.h"
#include "traced.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dwrs::KeyedItem;

constexpr int kSampleSize = 32;
// Items per site per span push: one engine ingestion batch (the library
// default batch_size), so each Push hands off whole batches.
constexpr size_t kFeedChunk = 512;
// The rates below and live_query's ingest rate are explained, with what
// each rests on, under "Rates and their basis" in README.md.
// At-rest reads after each round: open loop, one every kRestSpacingNs.
constexpr int kRestQueries = 4096;
constexpr int64_t kRestSpacingNs = 10'000;
// Live reads: open loop at kLiveQueryRate; the reader sleeps until
// kReaderSpinNs before each due time and spins the rest.
constexpr double kLiveQueryRate = 20000.0;
constexpr int64_t kReaderSpinNs = 30'000;
// Every sixteenth read is an estimator read; the rest are cached sample
// reads.
constexpr int kEstimatorEvery = 16;
// Prefix of the first round's stream logged through the fault and
// durability rungs on the workloads whose own stack has no WAL.
constexpr uint64_t kLadderPrefix = 20'000;
constexpr int kMinRounds = 3;

struct Spec {
  const char* name;
  int sites;
  int shards;          // engine shards
  uint64_t items;      // per round
  double ingest_rate;  // open-loop items/s; 0 = closed loop
  bool live;           // live queries during ingestion
  uint64_t sim_items;  // items of the simulator reference rung
};

const Spec kSpecs[] = {
    {"zipf_ingest", 8, 1, 4'000'000, 0.0, false, 4'000'000},
    {"many_sites", 4096, 1, 4'000'000, 0.0, false, 50'000},
    // Ingest at a fifth of the 9.5M-9.9M items/s this stack sustains
    // closed loop.
    {"live_query", 8, 2, 2'000'000, 2'000'000.0, true, 2'000'000},
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string state_dir;
  double ingest_rate = -1.0;  // overrides the workload's when >= 0
};

dwrs::WsworConfig ProtocolConfig(int sites, uint64_t seed) {
  return dwrs::WsworConfig{
      .num_sites = sites, .sample_size = kSampleSize, .seed = seed};
}

// --- query log --------------------------------------------------------

// Counts over a run's reads.
struct QueryCounts {
  uint64_t issued = 0;
  uint64_t incomplete_or_stale = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t copies_avoided = 0;

  void Add(const QueryCounts& o) {
    issued += o.issued;
    incomplete_or_stale += o.incomplete_or_stale;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    copies_avoided += o.copies_avoided;
  }
};

// One round's reads. The sample vectors are made resident for `reads`
// entries up front, so the round's stack memory (peak_rss_mb) is
// measured without them.
struct QueryLog {
  explicit QueryLog(size_t reads) {
    for (std::vector<double>* v : {&latency_ns, &service_ns, &late_ns}) {
      v->resize(reads);
      v->clear();
    }
  }

  std::vector<double> latency_ns;  // on-time completion - due time
  std::vector<double> service_ns;  // completion - call
  std::vector<double> late_ns;     // call - due time (reader lateness)
  QueryCounts counts;
};

double EstimateTotal(const dwrs::query::QueryResult& r) {
  std::vector<KeyedItem> top = r.merged.TopEntries();
  dwrs::ThresholdedSample ts;
  if (top.size() < r.merged.target_size) {
    ts.top = std::move(top);
  } else {
    ts = dwrs::MakeThresholdedSample(std::move(top));
  }
  return dwrs::EstimateTotalWeight(ts);
}

bool SameEntries(const std::vector<KeyedItem>& a,
                 const std::vector<KeyedItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item.id != b[i].item.id ||
        std::memcmp(&a[i].item.weight, &b[i].item.weight, sizeof(double)) !=
            0 ||
        std::memcmp(&a[i].key, &b[i].key, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// One reader's open-loop schedule over a QueryService. Reads i with
// i % kEstimatorEvery == kEstimatorEvery - 1 are estimator reads (the
// Horvitz-Thompson total over the merged sample); the rest are cached
// sample reads (QueryShared). With `merging_estimator` the estimator
// reads call Query(), which always merges; without it they read through
// QueryShared too, and merge only when the cache misses. Along the
// reader's one sequence of reads every shard's publish_seq and
// state_version must never decrease; `expected`, when set, is the one
// answer every read must return (the stack is quiescent).
class Reader {
 public:
  Reader(const dwrs::query::QueryService& service, bool merging_estimator,
         const std::vector<KeyedItem>* expected, QueryLog log)
      : service_(service),
        merging_estimator_(merging_estimator),
        expected_(expected),
        log_(std::move(log)),
        last_seq_(static_cast<size_t>(service.num_shards()), 0),
        last_version_(static_cast<size_t>(service.num_shards()), 0) {}

  void Issue(int64_t due_ns, uint64_t index) {
    const bool estimator = index % kEstimatorEvery == kEstimatorEvery - 1;
    const int64_t t0 = NowNs();
    bool ok = true;
    if (estimator && merging_estimator_) {
      const dwrs::query::QueryResult r = service_.Query();
      const double estimate = EstimateTotal(r);
      Record(due_ns, t0, NowNs());
      ok = Validate(r) && std::isfinite(estimate) && estimate >= 0.0;
    } else {
      const std::shared_ptr<const dwrs::query::QueryResult> r =
          service_.QueryShared();
      const double estimate = estimator ? EstimateTotal(*r) : 0.0;
      Record(due_ns, t0, NowNs());
      ok = Validate(*r) && std::isfinite(estimate) && estimate >= 0.0;
    }
    checks_.Expect(ok, "query stamps monotone and answer exact");
  }

  // Folds the service's cache counters into the log; call once, after
  // the last Issue.
  void Finish() {
    const dwrs::query::QueryServiceStats s = service_.stats();
    log_.counts.cache_hits += s.cache_hits;
    log_.counts.cache_misses += s.cache_misses;
    log_.counts.copies_avoided += s.snapshot_copies_avoided;
  }

  QueryLog& log() { return log_; }
  const Checker& checks() const { return checks_; }

 private:
  // A read's latency runs from its due time to the time it would have
  // completed had the reader issued every read on time: each read starts
  // at its due time or when the previous read would have completed,
  // whichever is later, and takes its measured service time. A read
  // stuck behind a slow earlier read is charged the wait; the reader's
  // own lateness (its thread woken or scheduled late) is not, and is
  // reported apart.
  void Record(int64_t due_ns, int64_t t0, int64_t t1) {
    const int64_t start = std::max(due_ns, ideal_end_ns_);
    ideal_end_ns_ = start + (t1 - t0);
    ++log_.counts.issued;
    log_.latency_ns.push_back(static_cast<double>(ideal_end_ns_ - due_ns));
    log_.service_ns.push_back(static_cast<double>(t1 - t0));
    log_.late_ns.push_back(
        static_cast<double>(std::max<int64_t>(0, t0 - due_ns)));
  }

  bool Validate(const dwrs::query::QueryResult& r) {
    if (!r.complete || r.any_stale) ++log_.counts.incomplete_or_stale;
    bool ok = r.shards.size() == last_seq_.size();
    for (size_t j = 0; ok && j < r.shards.size(); ++j) {
      ok = r.shards[j].publish_seq >= last_seq_[j] &&
           r.shards[j].state_version >= last_version_[j];
      last_seq_[j] = r.shards[j].publish_seq;
      last_version_[j] = r.shards[j].state_version;
    }
    if (expected_ != nullptr) {
      ok = ok && SameEntries(r.merged.TopEntries(), *expected_);
    }
    return ok;
  }

  const dwrs::query::QueryService& service_;
  const bool merging_estimator_;
  const std::vector<KeyedItem>* expected_;
  QueryLog log_;
  std::vector<uint64_t> last_seq_;      // per shard
  std::vector<uint64_t> last_version_;  // per shard
  int64_t ideal_end_ns_ = 0;
  Checker checks_;
};

// Publishes `snaps` (one per shard) into fresh publishers and reads the
// quiescent answer kRestQueries times, open loop, into `log`.
QueryLog AtRestQueries(std::vector<dwrs::query::ShardSnapshot> snaps,
                       const std::vector<KeyedItem>& expected, QueryLog log,
                       Checker& checks, SpanTotals& publish) {
  dwrs::query::LiveShardPublishers publishers(static_cast<int>(snaps.size()));
  for (size_t j = 0; j < snaps.size(); ++j) {
    const int64_t t0 = NowNs();
    publishers.shard(static_cast<int>(j)).Publish(std::move(snaps[j]));
    publish.ns += NowNs() - t0;
    ++publish.calls;
  }
  dwrs::query::QueryService service(publishers.views());
  Reader reader(service, /*merging_estimator=*/true, &expected,
                std::move(log));
  const int64_t start = NowNs() + kRestSpacingNs;
  for (int i = 0; i < kRestQueries; ++i) {
    const int64_t due = start + i * kRestSpacingNs;
    WaitUntil(due, kRestSpacingNs);
    reader.Issue(due, static_cast<uint64_t>(i));
  }
  reader.Finish();
  checks.Expect(reader.checks().failed() == 0,
                "at-rest queries return the final sample");
  return std::move(reader.log());
}

// --- per-round records ------------------------------------------------

struct LadderRung {
  uint64_t items = 0;
  int64_t ns = 0;
};

// One pass of the same stream through the lower rungs: bare simulator,
// fault harness, durable harness.
struct Ladder {
  LadderRung sim, faulty, durable;
  uint64_t sim_messages = 0;
  uint64_t delivered = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t commits = 0;
  uint64_t checkpoints = 0;
};

// This process's resident set (VmRSS) and its high-water mark (VmHWM)
// in MB, from /proc/self/status; 0 where a field is missing.
struct Rss {
  double now_mb = 0.0;
  double peak_mb = 0.0;
};

Rss ReadRss() {
  Rss out;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    double* field = line.rfind("VmRSS:", 0) == 0   ? &out.now_mb
                    : line.rfind("VmHWM:", 0) == 0 ? &out.peak_mb
                                                   : nullptr;
    if (field != nullptr) {
      *field = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return out;
}

struct Round {
  bool traced = false;
  uint64_t items = 0;
  double setup_s = 0.0;
  double generate_ns = 0.0;
  int64_t wall_ns = 0;  // ingest: first push to quiescence
  uint64_t messages = 0;
  uint64_t up_messages = 0;
  uint64_t down_messages = 0;
  int threads = 1;  // threads of the ingest stack
  // Resident set with the stream generated, just before the stack is
  // built, and the process's high-water mark then and after the drain.
  Rss before_stack;
  double peak_after_mb = 0.0;
  // Engine layers (traced rounds).
  int64_t push_ns = 0;
  int64_t drain_ns = 0;
  SpanTotals site, send, coord, fanout, publish;
  uint64_t keys_decided = 0, skips = 0, scheduled = 0, steals = 0, parks = 0;
  uint64_t ingest_stalls = 0, upstream_stalls = 0;
  double coord_busy_share = 0.0;
  // This round's reads (percentiles in ns).
  double query_p50 = 0.0, query_p99 = 0.0;
  double service_p50 = 0.0, service_p99 = 0.0, late_p99 = 0.0;

  // Reorders the log's samples.
  void SetQueryStats(QueryLog& log) {
    query_p50 = Quantile(log.latency_ns, 0.50);
    query_p99 = Quantile(log.latency_ns, 0.99);
    service_p50 = Quantile(log.service_ns, 0.50);
    service_p99 = Quantile(log.service_ns, 0.99);
    late_p99 = Quantile(log.late_ns, 0.99);
  }
};

void AddSpan(SpanTotals& into, const SpanTotals& t) {
  into.ns += t.ns;
  into.calls += t.calls;
  into.units += t.units;
}

// --- lower rungs --------------------------------------------------------

void FeedChunked(const Stream& stream, uint64_t limit,
                 const std::function<void(int, const dwrs::Item*, size_t)>& push) {
  size_t longest = 0;
  for (const auto& v : stream.per_site) longest = std::max(longest, v.size());
  uint64_t fed = 0;
  for (size_t off = 0; off < longest && fed < limit; off += kFeedChunk) {
    for (int site = 0; site < stream.num_sites && fed < limit; ++site) {
      const auto& v = stream.per_site[static_cast<size_t>(site)];
      if (off >= v.size()) continue;
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(std::min(kFeedChunk, v.size() - off), limit - fed));
      push(site, v.data() + off, n);
      fed += n;
    }
  }
}

// Bare protocol on the step-synchronous simulator: the single-threaded
// baseline. Feeds the stream's arrival order when it has one, else the
// engine feeder's chunk order, for at most `limit` items.
struct SimRun {
  LadderRung rung;
  uint64_t messages = 0;
};

SimRun RunSimRung(const Stream& stream, uint64_t limit, uint64_t seed,
                  Checker& checks) {
  dwrs::sim::ShardedRuntime runtime(stream.num_sites, 1);
  const dwrs::ShardedWsworEndpoints endpoints = dwrs::AttachShardedWswor(
      ProtocolConfig(stream.num_sites, seed), runtime);
  SimRun out;
  const int64_t t0 = NowNs();
  if (!stream.order.empty()) {
    for (uint64_t i = 0; i < stream.order.size() && i < limit; ++i) {
      runtime.Deliver(stream.order[i]);
    }
  } else {
    FeedChunked(stream, limit, [&](int site, const dwrs::Item* items, size_t n) {
      for (size_t i = 0; i < n; ++i) runtime.Deliver({site, items[i]});
    });
  }
  runtime.Flush();
  out.rung.ns = NowNs() - t0;
  out.rung.items = std::min(limit, stream.size);
  out.messages = runtime.AggregateStats().total_messages();
  if (out.rung.items == stream.size) {
    CheckSample(checks, "simulator rung", runtime.MergedSample().TopEntries(),
                stream, kSampleSize);
  }
  return out;
}

// The durable harness (zero-fault schedule, library-default
// DurabilityOptions, simulator backend) on a stream with arrival order,
// with its checks.
struct DurableRun {
  LadderRung rung;
  dwrs::faults::RunReport report;
  dwrs::durability::WalStats wal;
};

DurableRun RunDurable(const Stream& stream, uint64_t seed,
                      const std::string& dir, Checker& checks) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const dwrs::WsworConfig config = ProtocolConfig(stream.num_sites, seed);
  dwrs::durability::DurabilityOptions options;
  options.dir = dir;
  DurableRun out;
  dwrs::durability::ProbeState probe;
  {
    dwrs::durability::DurableWswor durable(
        config, dwrs::faults::FaultConfig{}, dwrs::faults::Backend::kSim,
        options);
    const dwrs::Workload workload = stream.AsWorkload();
    const int64_t t0 = NowNs();
    durable.Run(workload);
    out.rung.ns = NowNs() - t0;
    out.rung.items = stream.size;
    out.report = durable.report();
    out.wal = durable.wal_stats();
    probe = durable.Probe();
    checks.Expect(out.report.clean, "durable run report clean");
    checks.Expect(out.report.recovery_consistent,
                  "durable run recovery consistent");
    CheckSample(checks, "durable stack", durable.coordinator().Sample(),
                stream, kSampleSize);
  }
  {
    dwrs::durability::DurableWswor reopened(
        config, dwrs::faults::FaultConfig{}, dwrs::faults::Backend::kSim,
        options);
    checks.Expect(reopened.Probe() == probe,
                  "re-opened durable directory recovers the final state");
  }
  fs::remove_all(dir);
  return out;
}

LadderRung RunFaulty(const Stream& stream, uint64_t seed, Checker& checks,
                     uint64_t* delivered) {
  dwrs::faults::FaultyWswor run(ProtocolConfig(stream.num_sites, seed),
                                dwrs::faults::FaultConfig{},
                                dwrs::faults::Backend::kSim);
  const dwrs::Workload workload = stream.AsWorkload();
  const int64_t t0 = NowNs();
  run.Run(workload);
  LadderRung out{stream.size, NowNs() - t0};
  const dwrs::faults::RunReport report = run.report();
  *delivered = report.delivered;
  checks.Expect(report.clean, "fault harness report clean");
  CheckSample(checks, "fault harness", run.coordinator().Sample(), stream,
              kSampleSize);
  return out;
}

Ladder RunLadder(const Stream& stream, uint64_t seed, const std::string& dir,
                 Checker& checks) {
  Ladder out;
  const SimRun sim = RunSimRung(stream, stream.size, seed, checks);
  out.sim = sim.rung;
  out.sim_messages = sim.messages;
  out.faulty = RunFaulty(stream, seed, checks, &out.delivered);
  const DurableRun d = RunDurable(stream, seed, dir, checks);
  out.durable = d.rung;
  out.wal_bytes = d.wal.bytes_committed;
  out.wal_records = d.report.wal_records_logged;
  out.commits = d.wal.commits;
  out.checkpoints = d.report.checkpoints_written;
  return out;
}

// --- the engine stack -------------------------------------------------

// A ShardedEngine (S = 1 is a single engine::Engine behind the shard
// router) with the paper protocol attached through AttachShardedWswor,
// optionally live-query publishing. Traced stacks time every layer call
// and publish through a timed hook built from query/capture.h and
// SnapshotPublisher; untraced live stacks use EnableWsworLiveQueries.
class EngineStack {
 public:
  EngineStack(const Spec& spec, uint64_t seed, bool traced)
      : eng_(std::make_unique<dwrs::engine::ShardedEngine>(
            dwrs::engine::ShardedEngineConfig{.num_sites = spec.sites,
                                              .num_shards = spec.shards,
                                              .shard = {}})),
        backend_(*eng_, traced),
        endpoints_(dwrs::AttachShardedWswor(ProtocolConfig(spec.sites, seed),
                                            backend_)),
        publish_(static_cast<size_t>(spec.shards)) {
    if (spec.live) {
      if (traced) {
        InstallTimedHooks();
      } else {
        publishers_ = dwrs::query::EnableWsworLiveQueries(*eng_, endpoints_);
      }
      service_ =
          std::make_unique<dwrs::query::QueryService>(publishers_->views());
    }
    eng_->Flush();  // starts the worker and coordinator threads
  }
  ~EngineStack() { eng_->Shutdown(); }
  EngineStack(const EngineStack&) = delete;
  EngineStack& operator=(const EngineStack&) = delete;

  dwrs::engine::ShardedEngine& eng() { return *eng_; }
  const TracedBackend& backend() const {
    return backend_;
  }
  const dwrs::query::QueryService* service() const { return service_.get(); }
  SpanTotals PublishTotals() const {
    SpanTotals out;
    for (const SpanTotals& t : publish_) AddSpan(out, t);
    return out;
  }
  int64_t PublishNs(int shard) const {
    return publish_[static_cast<size_t>(shard)].ns;
  }
  // Every shard coordinator's state as the live hook would publish it.
  std::vector<dwrs::query::ShardSnapshot> CaptureAll() const {
    std::vector<dwrs::query::ShardSnapshot> out;
    for (int j = 0; j < eng_->num_shards(); ++j) {
      dwrs::query::ShardSnapshot snap = dwrs::query::CaptureSnapshot(
          *endpoints_.coordinators[static_cast<size_t>(j)]);
      snap.steps = eng_->shard_engine(j).step();
      snap.messages = eng_->shard_engine(j).stats().MessageSnapshot();
      out.push_back(std::move(snap));
    }
    return out;
  }
  int threads() const {
    int t = 1 + eng_->num_shards();  // feeder + coordinators
    for (int j = 0; j < eng_->num_shards(); ++j) {
      t += eng_->shard_engine(j).num_workers();
    }
    return t;
  }

 private:
  void InstallTimedHooks() {
    publishers_ =
        std::make_unique<dwrs::query::LiveShardPublishers>(eng_->num_shards());
    for (int j = 0; j < eng_->num_shards(); ++j) {
      const dwrs::WsworCoordinator* coordinator =
          endpoints_.coordinators[static_cast<size_t>(j)].get();
      dwrs::engine::Engine* shard = &eng_->shard_engine(j);
      dwrs::query::SnapshotPublisher* publisher = &publishers_->shard(j);
      SpanTotals* totals = &publish_[static_cast<size_t>(j)];
      auto publish = [coordinator, shard, publisher, totals] {
        const int64_t t0 = NowNs();
        dwrs::query::ShardSnapshot snap =
            dwrs::query::CaptureSnapshot(*coordinator);
        snap.steps = shard->step();
        snap.messages = shard->stats().MessageSnapshot();
        publisher->Publish(std::move(snap));
        shard->stats_mutable().snapshot_publishes.fetch_add(
            1, std::memory_order_relaxed);
        totals->ns += NowNs() - t0;
        ++totals->calls;
      };
      eng_->SetShardSnapshotHook(j, publish);
      publish();  // initial state, before the coordinator thread starts
    }
  }

  std::unique_ptr<dwrs::engine::ShardedEngine> eng_;
  TracedBackend backend_;
  dwrs::ShardedWsworEndpoints endpoints_;
  std::vector<SpanTotals> publish_;
  std::unique_ptr<dwrs::query::LiveShardPublishers> publishers_;
  std::unique_ptr<dwrs::query::QueryService> service_;
};

// Gives the live reader a CPU of its own: the calling thread's CPU set
// minus its last CPU goes to the stack (the engine's threads inherit the
// set of the thread that creates them), and PinReader() moves the reader
// onto that last CPU. A reader sharing CPUs with a saturated stack
// measures the OS scheduler's time slice rather than the query path.
// Inactive with fewer than three CPUs. Restores the set on destruction.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0 ||
        CPU_COUNT(&all_) < 3) {
      return;
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        reader_cpu_ = cpu;
        break;
      }
    }
    cpu_set_t stack = all_;
    CPU_CLR(reader_cpu_, &stack);
    active_ = sched_setaffinity(0, sizeof(stack), &stack) == 0;
  }
  ~CpuSplit() {
    if (active_) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  // Call on the reader thread.
  void PinReader() const {
    if (!active_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(reader_cpu_, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  int reader_cpu_ = -1;
  bool active_ = false;
};

// Open-loop feeder: every tick pushes what is due at `rate` items/s,
// each site's share in proportion to its sub-stream, catching up after
// a late wake-up.
void FeedOpenLoop(dwrs::engine::ShardedEngine& eng, const Stream& stream,
                  double rate, int64_t start_ns, bool traced,
                  int64_t& push_ns) {
  constexpr int64_t kTickNs = 250'000;
  std::vector<size_t> cursor(static_cast<size_t>(stream.num_sites), 0);
  for (int64_t tick = 1;; ++tick) {
    const int64_t due = start_ns + tick * kTickNs;
    const int64_t now = NowNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const double elapsed_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
    const double share =
        std::min(1.0, elapsed_s * rate / static_cast<double>(stream.size));
    bool done = true;
    for (int site = 0; site < stream.num_sites; ++site) {
      const auto& v = stream.per_site[static_cast<size_t>(site)];
      size_t& c = cursor[static_cast<size_t>(site)];
      const size_t target = share >= 1.0
                                ? v.size()
                                : static_cast<size_t>(share * static_cast<double>(v.size()));
      if (target > c) {
        const int64_t a = traced ? NowNs() : 0;
        eng.Push(site, v.data() + c, target - c);
        if (traced) push_ns += NowNs() - a;
        c = target;
      }
      if (c < v.size()) done = false;
    }
    if (done) return;
  }
}

// Reads one round makes: live ones over the round's ingest time (with a
// margin for the drain), or the at-rest ones.
size_t RoundReads(const Spec& spec) {
  if (!spec.live) return kRestQueries;
  const double ingest_s = spec.ingest_rate > 0.0
                              ? static_cast<double>(spec.items) / spec.ingest_rate
                              : 1.0;
  return static_cast<size_t>(1.25 * ingest_s * kLiveQueryRate) + 1024;
}

Round RunEngineRound(const Spec& spec, uint64_t seed, bool traced,
                     Checker& checks, QueryCounts& queries,
                     SpanTotals& rest_publish) {
  Round r;
  r.traced = traced;
  r.items = spec.items;
  QueryLog log(RoundReads(spec));
  const int64_t g0 = NowNs();
  const Stream stream = GenerateStream(spec.sites, spec.items, seed,
                                       WeightLaw::kZipf, /*keep_order=*/false);
  const int64_t g1 = NowNs();
  std::optional<CpuSplit> cpus;
  if (spec.live) cpus.emplace();
  r.before_stack = ReadRss();
  EngineStack stack(spec, MixSeed(seed, 1), traced);
  const int64_t g2 = NowNs();
  r.generate_ns = static_cast<double>(g1 - g0);
  r.setup_s = static_cast<double>(g2 - g0) * 1e-9;
  r.threads = stack.threads();
  dwrs::engine::ShardedEngine& eng = stack.eng();

  std::atomic<bool> stop{false};
  std::unique_ptr<Reader> reader;
  std::thread reader_thread;
  const int64_t t0 = NowNs();
  if (spec.live) {
    // Live estimator reads go through the cache too: a cached read made
    // just after a Query() can return the state one publish older (see
    // the README's live_query checks), which fails the monotonicity
    // check on some runs and not on others.
    reader = std::make_unique<Reader>(*stack.service(),
                                      /*merging_estimator=*/false, nullptr,
                                      std::move(log));
    reader_thread = std::thread([&stop, &reader, &cpus, t0] {
      cpus->PinReader();
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      const int64_t period = static_cast<int64_t>(1e9 / kLiveQueryRate);
      for (uint64_t i = 0;; ++i) {
        const int64_t due = t0 + static_cast<int64_t>(i + 1) * period;
        WaitUntil(due, kReaderSpinNs);
        if (stop.load(std::memory_order_acquire)) break;
        reader->Issue(due, i);
      }
    });
  }
  int64_t push_ns = 0;
  if (spec.ingest_rate > 0.0) {
    FeedOpenLoop(eng, stream, spec.ingest_rate, t0, traced, push_ns);
  } else {
    FeedChunked(stream, stream.size, [&](int site, const dwrs::Item* items, size_t n) {
      if (traced) {
        const int64_t a = NowNs();
        eng.Push(site, items, n);
        push_ns += NowNs() - a;
      } else {
        eng.Push(site, items, n);
      }
    });
  }
  const int64_t t1 = NowNs();
  eng.Flush();
  const int64_t t2 = NowNs();
  if (spec.live) {
    stop.store(true, std::memory_order_release);
    reader_thread.join();
  }
  r.peak_after_mb = ReadRss().peak_mb;
  if (spec.live) {
    reader->Finish();
    r.SetQueryStats(reader->log());
    queries.Add(reader->log().counts);
    checks.Expect(reader->checks().failed() == 0,
                  "live reads: stamps never decrease along the reader's reads");
  }
  r.wall_ns = t2 - t0;
  r.push_ns = push_ns;
  r.drain_ns = t2 - t1;

  const dwrs::sim::MessageStats msgs = eng.AggregateMessageSnapshot();
  r.messages = msgs.total_messages();
  r.up_messages = msgs.site_to_coord;
  r.down_messages = msgs.coord_to_site;
  uint64_t ingested = 0;
  for (int j = 0; j < eng.num_shards(); ++j) {
    const dwrs::engine::EngineStats& s = eng.shard_engine(j).stats();
    ingested += s.items_ingested.load();
    r.keys_decided += s.keys_decided.load();
    r.skips += s.skips_taken.load();
    r.scheduled += s.sites_scheduled.load();
    r.steals += s.steals.load();
    r.parks += s.worker_parks.load();
    r.ingest_stalls += s.ingest_stalls.load();
    r.upstream_stalls += s.upstream_stalls.load();
  }
  checks.Expect(ingested == stream.size, "engine ingested every item fed");
  if (traced) {
    const auto& b = stack.backend();
    r.site = b.SiteTotals();
    r.send = b.UpSendTotals();
    r.coord = b.CoordinatorTotals();
    r.fanout = b.DownSendTotals();
    r.publish = stack.PublishTotals();
    for (int j = 0; j < eng.num_shards(); ++j) {
      r.coord_busy_share = std::max(
          r.coord_busy_share,
          static_cast<double>(b.CoordinatorNs(j) + stack.PublishNs(j)) /
              static_cast<double>(r.wall_ns));
    }
  }

  const std::vector<KeyedItem> sample = eng.MergedSample().TopEntries();
  CheckSample(checks, spec.name, sample, stream, kSampleSize);
  if (spec.live) {
    const dwrs::query::QueryResult final_read = stack.service()->Query();
    checks.Expect(final_read.complete && !final_read.any_stale,
                  "final live read complete and fresh");
    checks.Expect(SameEntries(final_read.merged.TopEntries(), sample),
                  "final live read equals the root merge of the shards");
  } else {
    const int64_t c0 = NowNs();
    std::vector<dwrs::query::ShardSnapshot> snaps = stack.CaptureAll();
    rest_publish.ns += NowNs() - c0;
    QueryLog rest = AtRestQueries(std::move(snaps), sample,
                                        std::move(log), checks, rest_publish);
    r.SetQueryStats(rest);
    queries.Add(rest.counts);
  }
  return r;
}

// --- aggregation ------------------------------------------------------

struct EngineAgg {
  uint64_t rounds = 0, items = 0, up = 0, down = 0;
  uint64_t keys = 0, skips = 0, scheduled = 0, steals = 0, parks = 0;
  double wall_thread_ns = 0.0;
  int64_t push_ns = 0;
  SpanTotals site, send, coord, fanout, publish;
  std::vector<double> drain_ms, ingest_stalls, upstream_stalls, busy_share;

  void Add(const Round& r) {
    ++rounds;
    items += r.items;
    up += r.up_messages;
    down += r.down_messages;
    keys += r.keys_decided;
    skips += r.skips;
    scheduled += r.scheduled;
    steals += r.steals;
    parks += r.parks;
    wall_thread_ns += static_cast<double>(r.wall_ns) * r.threads;
    push_ns += r.push_ns;
    AddSpan(site, r.site);
    AddSpan(send, r.send);
    AddSpan(coord, r.coord);
    AddSpan(fanout, r.fanout);
    AddSpan(publish, r.publish);
    drain_ms.push_back(static_cast<double>(r.drain_ns) * 1e-6);
    ingest_stalls.push_back(static_cast<double>(r.ingest_stalls));
    upstream_stalls.push_back(static_cast<double>(r.upstream_stalls));
    busy_share.push_back(r.coord_busy_share);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Median over rounds of a per-round figure. Read percentiles are taken
// per round first: a stall of the machine (a descheduled vCPU) makes
// every read due during it late, so pooled over a run the tail would
// count how many such stalls the run happened to meet.
double MedianOver(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.*field);
  return Median(v);
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    json_.Raw(name, Json().Num("value", value).Str("unit", unit).Dump());
  }
  const Json& json() const { return json_; }

 private:
  Json json_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int end = cpu;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (end > cpu) {
      out += '-';
      out += std::to_string(end);
    }
    cpu = end;
  }
  return out;
}

std::string Compiler() {
#if defined(__clang__)
  std::string out = "clang ";
#else
  std::string out = "gcc ";
#endif
  out += __VERSION__;
  return out;
}

Json MachineStamp() {
  return Json()
      .Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("cpu_model", CpuModel())
      .Str("compiler", Compiler())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cpu_affinity", AffinityList());
}

int RunWorkload(const Spec& spec, const Options& opt) {
  const std::string dir = opt.state_dir + "/" + spec.name + "-" +
                          std::to_string(static_cast<long>(getpid()));
  Checker checks;
  SelfTestChecks(checks);

  std::vector<Round> rounds;
  QueryCounts queries;
  SpanTotals rest_publish;
  uint64_t items_fed = 0;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(opt.seconds) * 1'000'000'000;
  for (uint64_t round = 0;; ++round) {
    if (round >= kMinRounds && NowNs() - start >= budget) break;
    // Traced runs alternate untraced and traced rounds, which gives the
    // tracing overhead from one run.
    const bool traced = opt.trace && round % 2 == 1;
    const uint64_t seed = MixSeed(opt.seed, round);
    rounds.push_back(RunEngineRound(spec, seed, traced, checks, queries,
                                    rest_publish));
    const Round& r = rounds.back();
    items_fed += r.items;
    std::fprintf(stderr,
                 "round %llu%s: setup %.4f s, %.5g items/s, %.5g messages/item, "
                 "reads p50 %.4g us p99 %.4g us\n",
                 static_cast<unsigned long long>(round),
                 r.traced ? " (traced)" : "", r.setup_s,
                 static_cast<double>(r.items) * 1e9 /
                     static_cast<double>(r.wall_ns),
                 static_cast<double>(r.messages) / static_cast<double>(r.items),
                 r.query_p50 * 1e-3, r.query_p99 * 1e-3);
  }

  // Fault and durability rungs on a prefix of the first round's stream:
  // gives wal_bytes_per_item for a stack without a WAL, and the session
  // and durability layers' per-item cost on this stream.
  const Stream prefix =
      GenerateStream(spec.sites, kLadderPrefix, MixSeed(opt.seed, 0),
                     WeightLaw::kZipf, /*keep_order=*/true);
  const Ladder ladder = RunLadder(prefix, MixSeed(MixSeed(opt.seed, 0), 1),
                                  dir + "/ladder", checks);
  items_fed += 3 * prefix.size;
  SimRun sim;
  if (opt.trace) {
    const Stream first = GenerateStream(spec.sites, spec.items,
                                        MixSeed(opt.seed, 0),
                                        WeightLaw::kZipf, false);
    sim = RunSimRung(first, spec.sim_items, MixSeed(MixSeed(opt.seed, 0), 1),
                     checks);
    items_fed += sim.rung.items;
  }
  fs::remove_all(dir);

  const uint64_t queries_bad = queries.incomplete_or_stale;
  checks.Expect(queries_bad == 0, "every query served complete and fresh");

  Metrics m;
  Json ledger;
  if (!opt.trace) {
    std::vector<double> setup, rate, mpi;
    for (const Round& r : rounds) {
      setup.push_back(r.setup_s);
      rate.push_back(static_cast<double>(r.items) * 1e9 /
                     static_cast<double>(r.wall_ns));
      mpi.push_back(static_cast<double>(r.messages) /
                    static_cast<double>(r.items));
    }
    m.Add("setup_s", Median(setup), "s");
    m.Add("ingest_items_per_s", Median(rate), "items/s");
    m.Add("messages_per_item", Median(mpi), "messages/item");
    m.Add("query_p50_us", MedianOver(rounds, &Round::query_p50) * 1e-3, "us");
    m.Add("query_p99_us", MedianOver(rounds, &Round::query_p99) * 1e-3, "us");
    m.Add("wal_bytes_per_item",
          Ratio(static_cast<double>(ladder.wal_bytes),
                static_cast<double>(ladder.durable.items)),
          "bytes/item");
    // The stack's own peak over the run: the high-water mark after the
    // last round's drain less the resident set just before the first
    // stack was built, so the generated stream (the load, not the
    // program) is not counted. Every round's stream has the same size
    // and its read log is resident before the stack is built, so the
    // mark rises above that baseline only for stack memory: the highest
    // of the rounds' stacks, which on the open-loop workload depends on
    // how far the coordinators fell behind in a round.
    m.Add("peak_rss_mb",
          rounds.back().peak_after_mb - rounds.front().before_stack.now_mb,
          "MB");
  } else {
    EngineAgg e;
    std::vector<double> traced_ns, plain_ns, gen;
    for (const Round& r : rounds) {
      const double per_item =
          static_cast<double>(r.wall_ns) / static_cast<double>(r.items);
      (r.traced ? traced_ns : plain_ns).push_back(per_item);
      gen.push_back(r.generate_ns / static_cast<double>(r.items));
      if (r.traced) e.Add(r);
    }
    const double n = static_cast<double>(e.items);
    const double site_self = Ratio(static_cast<double>(e.site.ns - e.send.ns), n);
    const double send = Ratio(static_cast<double>(e.send.ns), n);
    const double coord_self =
        Ratio(static_cast<double>(e.coord.ns - e.fanout.ns), n);
    const double fanout = Ratio(static_cast<double>(e.fanout.ns), n);
    const double push = Ratio(static_cast<double>(e.push_ns), n);
    double drain_total = 0.0;
    for (double d : e.drain_ms) drain_total += d * 1e6;
    const double drain = Ratio(drain_total, n);
    const double publish = Ratio(static_cast<double>(e.publish.ns), n);

    const double ln = static_cast<double>(ladder.faulty.items);
    const double session_ns =
        Ratio(static_cast<double>(ladder.faulty.ns - ladder.sim.ns), ln);
    const double durability_ns =
        Ratio(static_cast<double>(ladder.durable.ns - ladder.faulty.ns), ln);

    const double stack_ns = Ratio(e.wall_thread_ns, n);
    const double layers =
        push + drain + site_self + send + coord_self + fanout + publish;
    ledger.Num("engine.push_ns_per_item", push)
        .Num("engine.drain_ns_per_item", drain)
        .Num("core.site.ns_per_item", site_self)
        .Num("engine.send_ns_per_item", send)
        .Num("core.coord.ns_per_item", coord_self)
        .Num("engine.fanout_ns_per_item", fanout)
        .Num("query.publish_ns_per_item", publish);
    ledger.Num("unattributed_ns_per_item", stack_ns - layers)
        .Num("trace.stack_ns_per_item", stack_ns);

    const double sim_items = static_cast<double>(sim.rung.items);
    const bool live = spec.live;
    const SpanTotals& pub = live ? e.publish : rest_publish;
    // Messages the coordinators processed over every round, which is
    // what the at-rest publishes are counted against.
    uint64_t all_msgs = 0;
    for (const Round& r : rounds) all_msgs += r.up_messages;

    m.Add("stream.generate_ns_per_item", Median(gen), "ns/item");
    m.Add("core.site.ns_per_item", site_self, "ns/item");
    m.Add("core.site.keys_decided_per_item",
          Ratio(static_cast<double>(e.keys), n), "keys/item");
    m.Add("core.site.skips_per_item", Ratio(static_cast<double>(e.skips), n),
          "skips/item");
    m.Add("core.site.sends_per_item", Ratio(static_cast<double>(e.up), n),
          "messages/item");
    m.Add("engine.push_ns_per_item", push, "ns/item");
    m.Add("engine.drain_ms", Median(e.drain_ms), "ms");
    m.Add("engine.ingest_stalls", Median(e.ingest_stalls), "count/round");
    m.Add("engine.sites_scheduled_per_kitem",
          Ratio(static_cast<double>(e.scheduled) * 1e3, n), "count/kitem");
    m.Add("engine.steals_per_kitem",
          Ratio(static_cast<double>(e.steals) * 1e3, n), "count/kitem");
    m.Add("engine.worker_parks_per_kitem",
          Ratio(static_cast<double>(e.parks) * 1e3, n), "count/kitem");
    m.Add("engine.send_ns_per_msg",
          Ratio(static_cast<double>(e.send.ns), static_cast<double>(e.send.units)),
          "ns/message");
    m.Add("engine.fanout_ns_per_msg",
          Ratio(static_cast<double>(e.fanout.ns),
                static_cast<double>(e.fanout.units)),
          "ns/message");
    m.Add("engine.upstream_stalls", Median(e.upstream_stalls), "count/round");
    m.Add("core.coord.ns_per_msg",
          Ratio(static_cast<double>(e.coord.ns - e.fanout.ns),
                static_cast<double>(e.coord.units)),
          "ns/message");
    m.Add("core.coord.busy_share", Median(e.busy_share), "share");
    m.Add("core.coord.down_msgs_per_kitem",
          Ratio(static_cast<double>(e.down) * 1e3, n), "messages/kitem");
    m.Add("query.publish_ns",
          Ratio(static_cast<double>(pub.ns), static_cast<double>(pub.calls)),
          "ns");
    m.Add("query.publishes_per_msg",
          live ? Ratio(static_cast<double>(pub.calls),
                       static_cast<double>(e.coord.units))
               : Ratio(static_cast<double>(pub.calls),
                       static_cast<double>(all_msgs)),
          "publishes/msg");
    m.Add("query.service_ns_p50", MedianOver(rounds, &Round::service_p50),
          "ns");
    m.Add("query.service_ns_p99", MedianOver(rounds, &Round::service_p99),
          "ns");
    m.Add("query.cache_hit_ratio",
          Ratio(static_cast<double>(queries.cache_hits),
                static_cast<double>(queries.cache_hits + queries.cache_misses)),
          "share");
    m.Add("query.copies_avoided_per_query",
          Ratio(static_cast<double>(queries.copies_avoided),
                static_cast<double>(queries.issued)),
          "copies/query");
    m.Add("query.generator_late_us_p99",
          MedianOver(rounds, &Round::late_p99) * 1e-3, "us");
    m.Add("faults.session_ns_per_item", session_ns, "ns/item");
    m.Add("faults.delivered_per_item",
          Ratio(static_cast<double>(ladder.delivered), ln), "messages/item");
    m.Add("durability.ns_per_item", durability_ns, "ns/item");
    m.Add("durability.checkpoints_per_kitem",
          Ratio(static_cast<double>(ladder.checkpoints) * 1e3, ln),
          "count/kitem");
    m.Add("durability.wal_records_per_item",
          Ratio(static_cast<double>(ladder.wal_records), ln), "records/item");
    m.Add("durability.commits_per_kitem",
          Ratio(static_cast<double>(ladder.commits) * 1e3, ln), "count/kitem");
    m.Add("sim.items_per_s",
          Ratio(sim_items * 1e9, static_cast<double>(sim.rung.ns)), "items/s");
    m.Add("sim.messages_per_item",
          Ratio(static_cast<double>(sim.messages), sim_items), "messages/item");
    m.Add("unattributed_ns_per_item", stack_ns - layers, "ns/item");
    m.Add("trace.stack_ns_per_item", stack_ns, "ns/item");
    m.Add("trace.overhead_ratio", Ratio(Median(traced_ns), Median(plain_ns)),
          "ratio");
  }

  const bool correct = checks.failed() == 0;
  Json counts;
  counts.Int("items_fed", items_fed)
      .Int("queries_issued", queries.issued)
      .Int("queries_incomplete_or_stale", queries_bad)
      .Int("checks_made", checks.made())
      .Int("checks_failed", checks.failed());
  std::string failures = "[";
  for (size_t i = 0; i < checks.failures().size(); ++i) {
    if (i != 0) failures += ", ";
    failures += Json::Quote(checks.failures()[i]);
  }
  failures += "]";
  Json report;
  report.Str("workload", spec.name)
      .Int("seed", opt.seed)
      .Int("seconds", static_cast<uint64_t>(opt.seconds))
      .Bool("trace", opt.trace)
      .Int("rounds", rounds.size())
      .Int("items_per_round", spec.items)
      .Obj("machine", MachineStamp())
      .Obj("counts", counts)
      .Raw("failures", failures);
  if (opt.trace) report.Obj("ledger", ledger);
  const Round& first = rounds.front();
  report.Obj("rss_mb", Json()
                           .Num("before_first_stack", first.before_stack.now_mb)
                           .Num("peak_before_first_stack",
                                first.before_stack.peak_mb)
                           .Num("peak_after_first_drain", first.peak_after_mb)
                           .Num("peak_after_last_drain",
                                rounds.back().peak_after_mb));
  std::cout << report.Dump() << "\n";

  Json result;
  result.Bool("correct", correct)
      .Int("attempted", items_fed + queries.issued + checks.made())
      .Int("failed", queries_bad + checks.failed())
      .Obj("metrics", m.json());
  std::cout << result.Dump() << std::endl;
  return correct ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dwrs_perfbench: %s\nusage: dwrs_perfbench --workload "
               "<zipf_ingest|many_sites|live_query> --seed <n> "
               "--seconds <s> --trace <0|1> --state-dir <dir> "
               "[--ingest-rate <items/s, 0 = closed loop>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || opt.seconds < 1 || opt.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--state-dir") {
      opt.state_dir = value;
    } else if (flag == "--ingest-rate") {
      opt.ingest_rate = std::strtod(value.c_str(), &end);
      if (*end != '\0' || value.empty() || !(opt.ingest_rate >= 0.0)) {
        return Usage("bad --ingest-rate");
      }
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_seed || opt.seconds == 0 || opt.state_dir.empty()) {
    return Usage("missing --seed, --seconds or --state-dir");
  }
  for (perfbench::Spec spec : perfbench::kSpecs) {
    if (opt.workload != spec.name) continue;
    if (opt.ingest_rate >= 0.0) spec.ingest_rate = opt.ingest_rate;
    return perfbench::RunWorkload(spec, opt);
  }
  return Usage("unknown workload");
}
