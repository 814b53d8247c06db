#include "stream.h"

#include <memory>

#include "random/rng.h"
#include "stream/generators.h"
#include "stream/partitioners.h"

namespace perfbench {

const dwrs::Item* Stream::Find(uint64_t id) const {
  const uint64_t site = id >> kSiteShift;
  const uint64_t pos = id & ((uint64_t{1} << kSiteShift) - 1);
  if (site >= per_site.size() || pos >= per_site[site].size()) return nullptr;
  const dwrs::Item& item = per_site[site][pos];
  return item.id == id ? &item : nullptr;
}

dwrs::Workload Stream::AsWorkload() const {
  return dwrs::Workload(num_sites, order);
}

Stream GenerateStream(int num_sites, uint64_t size, uint64_t seed,
                      WeightLaw law, bool keep_order) {
  std::unique_ptr<dwrs::WeightGenerator> weights;
  if (law == WeightLaw::kZipf) {
    weights = std::make_unique<dwrs::ZipfWeights>(uint64_t{1} << 20, 1.1);
  } else {
    weights = std::make_unique<dwrs::UniformWeights>(1.0, 100.0);
  }
  dwrs::RandomPartitioner partitioner;
  dwrs::Rng rng(seed);

  Stream out;
  out.num_sites = num_sites;
  out.size = size;
  out.per_site.resize(static_cast<size_t>(num_sites));
  const size_t expect = size / static_cast<uint64_t>(num_sites);
  for (auto& v : out.per_site) v.reserve(expect + expect / 8 + 16);
  if (keep_order) out.order.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    const int site = partitioner.SiteFor(i, num_sites, rng);
    const double w = weights->WeightAt(i, rng);
    auto& sub = out.per_site[static_cast<size_t>(site)];
    const dwrs::Item item{
        (static_cast<uint64_t>(site) << kSiteShift) | sub.size(), w};
    sub.push_back(item);
    out.total_weight += w;
    if (keep_order) out.order.push_back({site, item});
  }
  return out;
}

}  // namespace perfbench
