#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace nlq::perfbench {

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::SelfTimesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans_[it->second];
    // Clip to the parent's interval so a child can never make its
    // parent's self time negative.
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_ns[it->second] += hi - lo;
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = static_cast<double>(std::max<int64_t>(0, dur - child_ns[i])) /
              1e6;
  }
  return self;
}

std::map<std::string, SpanTotals> Tracer::TotalsByName() const {
  const std::vector<double> self = SelfTimesMs();
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    t.self_ms += self[i];
  }
  return out;
}

std::map<uint64_t, double> Tracer::ChildMsByParent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> out;
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    out[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  const std::vector<double> self = SelfTimesMs();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3, self[i] * 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace nlq::perfbench
