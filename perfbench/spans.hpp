// The benchmark's own wall-clock spans: name, start, end and the span that
// caused it. Kept in memory while the benchmark runs and written out once at
// exit in Chrome trace_event JSON (load it in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since the log was created.
  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::int64_t begin(std::string name, std::int64_t parent) {
    spans_.push_back({std::move(name), parent, nowNs(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Close span `id`; returns its duration in seconds.
  double end(std::int64_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.startNs) / 1e3
          << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
