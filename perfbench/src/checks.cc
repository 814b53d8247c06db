#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <unordered_set>

#include "core/sampler.h"

namespace perfbench {

namespace {

// Two-sided false-alarm probability of the pivot check.
constexpr double kPivotTail = 1e-9;

// Sum of Poisson(x) probabilities over [from, to), in log space so large
// shapes neither overflow nor underflow.
double PoissonMass(int from, int to, double x) {
  double sum = 0.0;
  for (int k = from; k < to; ++k) {
    const double log_term = -x + k * std::log(x) - std::lgamma(k + 1.0);
    const double term = std::exp(log_term);
    sum += term;
    if (k > x && term < sum * 1e-18) break;
  }
  return sum;
}

}  // namespace

bool Checker::Expect(bool ok, const std::string& what) {
  ++made_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }
  return ok;
}

double GammaCdf(int shape, double x) {
  if (x <= 0.0) return 0.0;
  // P(Gamma(shape) <= x) = P(Poisson(x) >= shape). Sum whichever tail is
  // the small one, so tiny probabilities keep their precision.
  if (x < shape) return PoissonMass(shape, shape + 100000, x);
  return 1.0 - PoissonMass(0, shape, x);
}

double GammaQuantile(int shape, double p) {
  double lo = 0.0;
  double hi = shape + 60.0 * std::sqrt(static_cast<double>(shape)) + 100.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (GammaCdf(shape, mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

SampleVerdict JudgeSample(const std::vector<dwrs::KeyedItem>& sample,
                          const Stream& stream, size_t s) {
  SampleVerdict v;
  char buf[256];
  std::unordered_set<uint64_t> seen;
  for (const dwrs::KeyedItem& e : sample) {
    const dwrs::Item* gen = stream.Find(e.item.id);
    if (gen == nullptr || gen->weight != e.item.weight) {
      if (v.members) {
        std::snprintf(buf, sizeof(buf), "id %llu weight %.17g not generated; ",
                      static_cast<unsigned long long>(e.item.id),
                      e.item.weight);
        v.detail += buf;
      }
      v.members = false;
    }
    if (!seen.insert(e.item.id).second) v.distinct = false;
  }
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(static_cast<uint64_t>(s), stream.size));
  if (sample.size() != want) {
    v.size = false;
    std::snprintf(buf, sizeof(buf), "size %zu, want %zu; ", sample.size(),
                  want);
    v.detail += buf;
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    const double key = sample[i].key;
    if (!(key > 0.0) || !std::isfinite(key)) v.keys = false;
    if (i > 0 && key > sample[i - 1].key) v.keys = false;
  }
  if (!v.keys) v.detail += "keys not positive and descending; ";
  if (sample.empty() || !v.keys) {
    v.pivot = sample.empty() && stream.size == 0;
    return v;
  }
  double pivot = 0.0;
  double prev_inv = 0.0;
  double remaining = stream.total_weight;
  for (const dwrs::KeyedItem& e : sample) {
    const double inv = 1.0 / e.key;
    pivot += (inv - prev_inv) * remaining;
    prev_inv = inv;
    remaining -= e.item.weight;
  }
  const int shape = static_cast<int>(sample.size());
  v.pivot_value = pivot;
  v.pivot_lo = GammaQuantile(shape, kPivotTail / 2);
  v.pivot_hi = GammaQuantile(shape, 1.0 - kPivotTail / 2);
  v.pivot = pivot >= v.pivot_lo && pivot <= v.pivot_hi;
  if (!v.pivot) {
    std::snprintf(buf, sizeof(buf),
                  "pivot %.6g outside Gamma(%d,1) interval [%.6g, %.6g]; ",
                  pivot, shape, v.pivot_lo, v.pivot_hi);
    v.detail += buf;
  }
  return v;
}

void CheckSample(Checker& checker, const std::string& where,
                 const std::vector<dwrs::KeyedItem>& sample,
                 const Stream& stream, size_t s) {
  const SampleVerdict v = JudgeSample(sample, stream, s);
  checker.Expect(v.members, where + ": sampled ids and weights generated " +
                                v.detail);
  checker.Expect(v.distinct, where + ": sampled ids distinct");
  checker.Expect(v.size, where + ": sample size min(s, n) " + v.detail);
  checker.Expect(v.keys, where + ": keys positive and descending");
  checker.Expect(v.pivot, where + ": exponential-race pivot " + v.detail);
}

void SelfTestChecks(Checker& checker) {
  // Two sites with uniform weights give each site about half of W, and
  // s = 256 narrows the Gamma interval enough that leaving one site out
  // (the pivot roughly doubles) is rejected with certainty.
  constexpr int kSites = 2;
  constexpr size_t kSample = 256;
  const Stream stream =
      GenerateStream(kSites, 20000, 0x5e1f7e57, WeightLaw::kUniform,
                     /*keep_order=*/true);
  auto run_protocol = [&](bool skip_site_one) {
    dwrs::DistributedWswor sampler(dwrs::WsworConfig{
        .num_sites = kSites, .sample_size = static_cast<int>(kSample),
        .seed = 0x5e1f7e58});
    for (const dwrs::WorkloadEvent& e : stream.order) {
      if (skip_site_one && e.site == 1) continue;
      sampler.Observe(e.site, e.item);
    }
    return sampler.Sample();
  };

  const std::vector<dwrs::KeyedItem> clean = run_protocol(false);
  const SampleVerdict ok = JudgeSample(clean, stream, kSample);
  checker.Expect(ok.members && ok.distinct && ok.size && ok.keys && ok.pivot,
                 "self-test: clean sample passes every check " + ok.detail);

  std::vector<dwrs::KeyedItem> altered = clean;
  altered[kSample / 2].item.weight *= 1.5;
  checker.Expect(!JudgeSample(altered, stream, kSample).members,
                 "self-test: altered weight rejected");

  std::vector<dwrs::KeyedItem> duplicated = clean;
  duplicated.back().item = duplicated.front().item;
  checker.Expect(!JudgeSample(duplicated, stream, kSample).distinct,
                 "self-test: duplicated id rejected");

  // Keys 1/t with t ~ Exp(1): weight ignored, top-s taken exactly.
  std::mt19937_64 gen(0x5e1f7e59);
  std::exponential_distribution<double> exp1(1.0);
  std::vector<dwrs::KeyedItem> unweighted;
  for (const dwrs::WorkloadEvent& e : stream.order) {
    unweighted.push_back({e.item, 1.0 / exp1(gen)});
  }
  std::partial_sort(unweighted.begin(), unweighted.begin() + kSample,
                    unweighted.end(),
                    [](const dwrs::KeyedItem& a, const dwrs::KeyedItem& b) {
                      return a.key > b.key;
                    });
  unweighted.resize(kSample);
  const SampleVerdict uw = JudgeSample(unweighted, stream, kSample);
  checker.Expect(uw.members && !uw.pivot,
                 "self-test: keys drawn ignoring weight rejected");

  const SampleVerdict missing =
      JudgeSample(run_protocol(true), stream, kSample);
  checker.Expect(missing.members && !missing.pivot,
                 "self-test: a site never fed rejected");
}

}  // namespace perfbench
