// Input generation. The benchmark makes every stream from its seed with
// the library's stream layer (weight generators and partitioner) and
// hands the program only the generated items.
//
// Item ids encode where the item was generated: (site << 40) | position
// in that site's sub-stream. The output checks resolve a sampled id back
// to the generated item through that encoding, without trusting anything
// the program reports about it.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>
#include <vector>

#include "stream/item.h"
#include "stream/workload.h"

namespace perfbench {

enum class WeightLaw {
  kZipf,     // Zipf(alpha = 1.1) over 2^20 ranks, minimum weight 1
  kUniform,  // uniform in [1, 100]
};

struct Stream {
  int num_sites = 0;
  uint64_t size = 0;
  double total_weight = 0.0;
  // Each site's sub-stream in arrival order.
  std::vector<std::vector<dwrs::Item>> per_site;
  // Global arrival order (kept only when asked for: the step-driven
  // stacks replay it event by event).
  std::vector<dwrs::WorkloadEvent> order;

  // The generated item with this id, or nullptr if no such item exists.
  const dwrs::Item* Find(uint64_t id) const;
  dwrs::Workload AsWorkload() const;
};

inline constexpr int kSiteShift = 40;

// The same (num_sites, seed, law) gives the same stream, and a shorter
// stream is a prefix of a longer one.
Stream GenerateStream(int num_sites, uint64_t size, uint64_t seed,
                      WeightLaw law, bool keep_order);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
