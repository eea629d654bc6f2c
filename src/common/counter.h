// Counter: the one statistics counter type, and RenderJson, the one
// renderer for statistics structs.
//
// A stats struct bumped from many threads declares its counters as
// Counter fields. Every stats struct that is rendered lists each field
// once in a visitor:
//
//   template <typename F>
//   void ForEachField(F&& f) const {
//     f("hits", hits);
//     f("misses", misses);
//   }
//
// RenderJson turns any such struct into one JSON object, so a new
// field appears in every rendering without per-field code.

#ifndef RELSERVE_COMMON_COUNTER_H_
#define RELSERVE_COMMON_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

namespace relserve {

// A monotonic event count bumped from many threads. Every operation is
// relaxed: each counter is coherent on its own, and no ordering
// between counters is implied (or needed). Copying takes a relaxed
// snapshot, so a struct of Counters copies with the implicit copy
// operations while workers keep bumping the original.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.load()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  // Raises the value to `v` if it is larger (a high-water mark).
  void StoreMax(int64_t v) {
    int64_t prev = load();
    while (prev < v && !value_.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }

  int64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator int64_t() const { return load(); }

 private:
  std::atomic<int64_t> value_{0};
};

// Renders `stats` as a JSON object with one member per ForEachField
// entry, in visiting order. Floating-point fields (derived ratios such
// as a mean) print with six significant digits; every other field
// prints as an integer.
template <typename Stats>
std::string RenderJson(const Stats& stats) {
  std::string json = "{";
  stats.ForEachField([&json](const char* name, const auto& value) {
    if (json.size() > 1) json += ',';
    json += '"';
    json += name;
    json += "\":";
    if constexpr (std::is_floating_point_v<
                      std::decay_t<decltype(value)>>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(value));
      json += buf;
    } else {
      json += std::to_string(static_cast<int64_t>(value));
    }
  });
  json += '}';
  return json;
}

}  // namespace relserve

#endif  // RELSERVE_COMMON_COUNTER_H_
