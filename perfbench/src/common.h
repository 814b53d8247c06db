// Shared helpers of the dwrs benchmark: clocks, order statistics, seed
// mixing, open-loop waiting and a minimal JSON writer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
// Reorders the sample in place, so taking it allocates nothing.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// SplitMix64 finalizer over (seed, salt): independent sub-seeds for the
// rounds and rungs of one run.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Open-loop wait: sleeps until `spin_ns` before `due_ns`, then spins, so
// a timer that wakes late by less than `spin_ns` costs no lateness.
inline void WaitUntil(int64_t due_ns, int64_t spin_ns) {
  const int64_t wake = due_ns - spin_ns;
  const int64_t now = NowNs();
  if (wake > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
  }
  while (NowNs() < due_ns) {
  }
}

// Insertion-ordered JSON object writer for flat and nested values.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  Json& Obj(const std::string& key, const Json& value) {
    return Raw(key, value.Dump());
  }
  Json& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
