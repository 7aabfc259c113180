// In-memory span log for the traced run: each span has a name, start and
// end (ns on the benchmark's clock) and the index of the span that caused it
// (-1 for a root). Spans are written out at exit; nothing is recorded when
// disabled. (Console request spans are built by run.py from the client's
// request records: each request is the root of its own spans.)
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "http_client.h"

namespace fleetbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its id (-1 when disabled).
  std::int64_t open(std::string name, std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace fleetbench
