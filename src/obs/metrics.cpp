#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/json.h"

namespace agrarsec::obs {

namespace {

/// Shortest round-trip formatting for doubles (%.17g is always exact; try
/// shorter forms first so gauges like 12.5 print as "12.5").
std::string format_double(double v) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins, std::size_t lanes)
    : lo_(lo), hi_(hi), bins_(bins == 0 ? 1 : bins), lanes_(lanes) {
  for (Lane& lane : lanes_) lane.counts.assign(bins_, 0);
}

void Histogram::add(double x, std::size_t shard) {
  Lane& lane = lanes_[shard];
  ++lane.count;
  lane.sum += x;
  lane.min = std::min(lane.min, x);
  lane.max = std::max(lane.max, x);
  if (x < lo_) {
    ++lane.underflow;
    return;
  }
  if (x >= hi_) {
    ++lane.overflow;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) * static_cast<double>(bins_));
  if (bin >= bins_) bin = bins_ - 1;
  ++lane.counts[bin];
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.counts[i];
  return total;
}

std::uint64_t Histogram::underflow() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.underflow;
  return total;
}

std::uint64_t Histogram::overflow() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.overflow;
  return total;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.count;
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Lane& lane : lanes_) total += lane.sum;
  return total;
}

double Histogram::min() const {
  double m = std::numeric_limits<double>::infinity();
  for (const Lane& lane : lanes_) m = std::min(m, lane.min);
  return m;
}

double Histogram::max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const Lane& lane : lanes_) m = std::max(m, lane.max);
  return m;
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::unique_ptr<Counter>(new Counter(lanes_)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi, std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(lo, hi, bins, lanes_)))
             .first;
  }
  return *it->second;
}

void Registry::ensure_lanes(std::size_t lanes) {
  if (lanes <= lanes_) return;
  lanes_ = lanes;
  for (auto& [name, c] : counters_) c->lanes_.resize(lanes_);
  for (auto& [name, h] : histograms_) {
    const std::size_t old = h->lanes_.size();
    h->lanes_.resize(lanes_);
    for (std::size_t i = old; i < lanes_; ++i) h->lanes_[i].counts.assign(h->bins_, 0);
  }
}

const Counter* Registry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

std::string Registry::to_json(std::string_view exclude_prefix) const {
  const auto excluded = [&exclude_prefix](std::string_view name) {
    return !exclude_prefix.empty() && name.size() >= exclude_prefix.size() &&
           name.substr(0, exclude_prefix.size()) == exclude_prefix;
  };
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    core::append_json_string(out, name);
    out.push_back(':');
    out += std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    core::append_json_string(out, name);
    out.push_back(':');
    out += format_double(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    core::append_json_string(out, name);
    out += ":{\"lo\":" + format_double(h->lo()) + ",\"hi\":" + format_double(h->hi());
    out += ",\"bins\":[";
    for (std::size_t i = 0; i < h->bins(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(h->bin_count(i));
    }
    out += "],\"underflow\":" + std::to_string(h->underflow());
    out += ",\"overflow\":" + std::to_string(h->overflow());
    out += ",\"count\":" + std::to_string(h->count());
    if (h->count() > 0) {
      out += ",\"sum\":" + format_double(h->sum());
      out += ",\"min\":" + format_double(h->min());
      out += ",\"max\":" + format_double(h->max());
    }
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace agrarsec::obs
