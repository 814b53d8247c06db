// Per-layer timing from outside the program: decorators around the
// endpoint and transport interfaces (sim/node.h) that time each call
// into the layer below them, and a backend adapter through which the
// library's own construction contract (AttachShardedWswor) builds the
// endpoints against the timed transports.
//
// Threading: a site's callbacks never run concurrently (the endpoint
// contract), so each TimedSite and each per-site slot of a
// TimedTransport is written by one thread at a time; coordinator-side
// counters are written only by that shard's coordinator thread. All are
// read after Flush(), whose quiesce handshake orders the writes before
// the read. Slots are padded to a cache line so sites on different
// workers do not share one.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "engine/sharded_engine.h"
#include "sim/node.h"

namespace perfbench {

struct alignas(64) SpanTotals {
  int64_t ns = 0;
  uint64_t calls = 0;
  uint64_t units = 0;  // items for ingestion spans, messages otherwise
};

// Times SendToCoordinator per sending site and the coordinator's
// down-sends (SendToSite, Broadcast) of one shard.
class TimedTransport : public dwrs::sim::Transport {
 public:
  TimedTransport(dwrs::sim::Transport* inner, int num_sites)
      : inner_(inner), up_(static_cast<size_t>(num_sites)) {}

  void SendToCoordinator(int site, const dwrs::sim::Payload& msg) override {
    const int64_t t0 = NowNs();
    inner_->SendToCoordinator(site, msg);
    SpanTotals& t = up_[static_cast<size_t>(site)];
    t.ns += NowNs() - t0;
    ++t.calls;
    ++t.units;
  }
  void SendToSite(int site, const dwrs::sim::Payload& msg) override {
    const int64_t t0 = NowNs();
    inner_->SendToSite(site, msg);
    down_.ns += NowNs() - t0;
    ++down_.calls;
    ++down_.units;
  }
  void Broadcast(const dwrs::sim::Payload& msg) override {
    const int64_t t0 = NowNs();
    inner_->Broadcast(msg);
    down_.ns += NowNs() - t0;
    ++down_.calls;
    down_.units += up_.size();
  }
  uint64_t step() const override { return inner_->step(); }

  SpanTotals UpTotals() const {
    SpanTotals out;
    for (const SpanTotals& t : up_) {
      out.ns += t.ns;
      out.calls += t.calls;
      out.units += t.units;
    }
    return out;
  }
  const SpanTotals& DownTotals() const { return down_; }

 private:
  dwrs::sim::Transport* const inner_;
  std::vector<SpanTotals> up_;
  SpanTotals down_;
};

// Times a site endpoint's ingestion (OnItems / OnItem).
class TimedSite : public dwrs::sim::SiteNode {
 public:
  explicit TimedSite(dwrs::sim::SiteNode* inner) : inner_(inner) {}

  void OnItem(const dwrs::Item& item) override {
    const int64_t t0 = NowNs();
    inner_->OnItem(item);
    totals_.ns += NowNs() - t0;
    ++totals_.calls;
    ++totals_.units;
  }
  void OnItems(const dwrs::Item* items, size_t n) override {
    const int64_t t0 = NowNs();
    inner_->OnItems(items, n);
    totals_.ns += NowNs() - t0;
    ++totals_.calls;
    totals_.units += n;
  }
  void OnMessage(const dwrs::sim::Payload& msg) override {
    inner_->OnMessage(msg);
  }
  dwrs::sim::SiteHotPathCounters HotPathCounters() const override {
    return inner_->HotPathCounters();
  }
  const SpanTotals& totals() const { return totals_; }

 private:
  dwrs::sim::SiteNode* const inner_;
  SpanTotals totals_;
};

// Times a coordinator endpoint's message handling (OnMessage).
class TimedCoordinator : public dwrs::sim::CoordinatorNode {
 public:
  explicit TimedCoordinator(dwrs::sim::CoordinatorNode* inner)
      : inner_(inner) {}

  void OnMessage(int site, const dwrs::sim::Payload& msg) override {
    const int64_t t0 = NowNs();
    inner_->OnMessage(site, msg);
    totals_.ns += NowNs() - t0;
    ++totals_.calls;
    ++totals_.units;
  }
  dwrs::MergeableSample ShardSample() const override {
    return inner_->ShardSample();
  }
  uint64_t StateVersion() const override { return inner_->StateVersion(); }
  const SpanTotals& totals() const { return totals_; }

 private:
  dwrs::sim::CoordinatorNode* const inner_;
  SpanTotals totals_;
};

// The backend shape AttachShardedWswor builds against, over a
// ShardedEngine. Untraced, it hands out the engine's own transports and
// attaches the endpoints as they are; traced, endpoints send through
// TimedTransports and are attached behind TimedSite / TimedCoordinator
// decorators.
class TracedBackend {
 public:
  TracedBackend(dwrs::engine::ShardedEngine& backend, bool traced)
      : backend_(backend), traced_(traced) {
    if (!traced_) return;
    for (int j = 0; j < backend_.num_shards(); ++j) {
      transports_.push_back(std::make_unique<TimedTransport>(
          &backend_.shard_transport(j), backend_.topology().SiteCount(j)));
    }
  }

  const dwrs::ShardTopology& topology() const { return backend_.topology(); }
  dwrs::sim::Transport& shard_transport(int shard) {
    if (!traced_) return backend_.shard_transport(shard);
    return *transports_[static_cast<size_t>(shard)];
  }
  void AttachSite(int site, dwrs::sim::SiteNode* node) {
    if (traced_) {
      sites_.push_back(std::make_unique<TimedSite>(node));
      node = sites_.back().get();
    }
    backend_.AttachSite(site, node);
  }
  void AttachShardCoordinator(int shard, dwrs::sim::CoordinatorNode* node) {
    if (traced_) {
      coordinators_.push_back(std::make_unique<TimedCoordinator>(node));
      node = coordinators_.back().get();
    }
    backend_.AttachShardCoordinator(shard, node);
  }

  bool traced() const { return traced_; }
  // Totals over every shard's decorators (zero when untraced).
  SpanTotals SiteTotals() const { return Sum(sites_); }
  SpanTotals CoordinatorTotals() const { return Sum(coordinators_); }
  SpanTotals UpSendTotals() const {
    SpanTotals out;
    for (const auto& t : transports_) Add(out, t->UpTotals());
    return out;
  }
  SpanTotals DownSendTotals() const {
    SpanTotals out;
    for (const auto& t : transports_) Add(out, t->DownTotals());
    return out;
  }
  // Busy time of shard j's coordinator callbacks, for the busy share.
  int64_t CoordinatorNs(int shard) const {
    return traced_ ? coordinators_[static_cast<size_t>(shard)]->totals().ns
                   : 0;
  }

 private:
  static void Add(SpanTotals& into, const SpanTotals& t) {
    into.ns += t.ns;
    into.calls += t.calls;
    into.units += t.units;
  }
  template <typename T>
  static SpanTotals Sum(const std::vector<std::unique_ptr<T>>& v) {
    SpanTotals out;
    for (const auto& e : v) Add(out, e->totals());
    return out;
  }

  dwrs::engine::ShardedEngine& backend_;
  const bool traced_;
  std::vector<std::unique_ptr<TimedTransport>> transports_;
  std::vector<std::unique_ptr<TimedSite>> sites_;
  std::vector<std::unique_ptr<TimedCoordinator>> coordinators_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
