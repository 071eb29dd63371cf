#include "obs/metrics.hpp"

#include <algorithm>

#include "common/fmt.hpp"
#include "common/table.hpp"
#include "store/json.hpp"

namespace araxl::obs {

namespace {

template <class Map, class Instrument>
Instrument* find_or_create(std::mutex& mu, Map& map, std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = map.find(name);
  if (it != map.end()) return it->second.get();
  auto inst = std::make_unique<Instrument>();
  Instrument* raw = inst.get();
  map.emplace(std::string(name), std::move(inst));
  return raw;
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  return find_or_create<decltype(counters_), Counter>(mu_, counters_, name);
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  return find_or_create<decltype(gauges_), Gauge>(mu_, gauges_, name);
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  return find_or_create<decltype(histograms_), Histogram>(mu_, histograms_,
                                                          name);
}

std::string MetricsRegistry::to_json() const {
  // The three maps are merged into one name-ordered stream so the output
  // is stable no matter which kind an instrument is.
  const std::lock_guard<std::mutex> lock(mu_);
  struct Entry {
    std::string_view name;
    std::string body;
  };
  std::vector<Entry> entries;
  entries.reserve(counters_.size() + gauges_.size() + histograms_.size());
  const auto scalar = [](std::uint64_t v) {
    std::string body;
    store::append_u64(body, v);
    return body;
  };
  for (const auto& [name, c] : counters_) {
    entries.push_back({name, scalar(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    entries.push_back({name, scalar(g->value())});
  }
  for (const auto& [name, h] : histograms_) {
    std::string body;
    store::JsonWriter w(body);
    w.open();
    w.key("count").u64(h->count());
    w.key("sum").u64(h->sum());
    w.key("max").u64(h->max());
    w.key("buckets").open();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket(b);
      if (n == 0) continue;
      // Bucket b covers [2^(b-1), 2^b); label with its exclusive bound.
      std::string label = "<";
      if (b >= 64) {
        label += "inf";
      } else {
        store::append_u64(label, std::uint64_t{1} << b);
      }
      w.key(label).u64(n);
    }
    w.close();
    w.close();
    entries.push_back({name, std::move(body)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    store::append_escaped(out, entries[i].name);
    out += "\":";
    out += entries[i].body;
  }
  out += "}";
  return out;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::rows() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, "counter", c->value(), 0, 0});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, "gauge", g->value(), 0, 0});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back({name, "histogram", h->count(), h->sum(), h->max()});
  }
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  return out;
}

std::string MetricsRegistry::render_table() const {
  TextTable table({"metric", "kind", "value", "sum", "max"});
  table.align_right(2);
  table.align_right(3);
  table.align_right(4);
  for (const Row& r : rows()) {
    table.add_row({r.name, r.kind, fmt_group(r.value),
                   r.kind == "histogram" ? fmt_group(r.sum) : std::string("-"),
                   r.kind == "histogram" ? fmt_group(r.max) : std::string("-")});
  }
  return table.render();
}

}  // namespace araxl::obs
