// Output checks shared by every workload. They are written apart from
// the program: a sampled entry is resolved against the generated stream
// (stream.h), and the distribution check uses only the exponential-race
// property of the keys, not the library's samplers or statistics code.
//
//   members  every sampled id occurs in the stream, with exactly the
//            weight it was generated with;
//   distinct sampled ids are distinct;
//   size     the sample holds min(s, n) entries;
//   keys     keys are positive, finite and in descending order;
//   pivot    with keys v_1 > v_2 > ... and 1/v_0 = 0,
//              sum_j (1/v_j - 1/v_{j-1}) * (W - sum_{i<j} w_i)
//            lies inside the central 1 - 2e-9 interval of Gamma(s', 1),
//            s' the sample size. Keys v = w/t with t ~ Exp(1) make the
//            item "arrival times" 1/v an exponential race with rates w,
//            so each term is an independent Exp(1) whatever the weights.
//            W counts every item fed.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sampling/keyed_item.h"
#include "stream.h"

namespace perfbench {

// Counts checks made and failed; keeps the first few failure messages.
class Checker {
 public:
  bool Expect(bool ok, const std::string& what);
  uint64_t made() const { return made_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t made_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct SampleVerdict {
  bool members = true;
  bool distinct = true;
  bool size = true;
  bool keys = true;
  bool pivot = true;
  double pivot_value = 0.0;
  double pivot_lo = 0.0;
  double pivot_hi = 0.0;
  std::string detail;
};

// Judges a final sample of target size `s` against the stream it was
// drawn from.
SampleVerdict JudgeSample(const std::vector<dwrs::KeyedItem>& sample,
                          const Stream& stream, size_t s);

// Records the five checks of JudgeSample in `checker` under `where`.
void CheckSample(Checker& checker, const std::string& where,
                 const std::vector<dwrs::KeyedItem>& sample,
                 const Stream& stream, size_t s);

// Gamma(shape, 1) CDF and quantile for an integer shape >= 1.
double GammaCdf(int shape, double x);
double GammaQuantile(int shape, double p);

// Shows each check rejecting a planted defect (and passing the clean
// sample): a weight altered, a duplicated id, keys drawn ignoring
// weight, one site's items never fed. Records each outcome in `checker`.
void SelfTestChecks(Checker& checker);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
