#include "trace.h"

#include <ostream>

#include "util/json.h"

namespace perfbench {

namespace {

std::string_view leaf_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record rec;
  rec.name = std::string(name);
  rec.parent = tracer_->open_;
  rec.start_s = tracer_->clock_.seconds();
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(rec));
  tracer_->open_ = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& rec = tracer_->records_[static_cast<std::size_t>(index_)];
  rec.end_s = tracer_->clock_.seconds();
  tracer_->open_ = rec.parent;
}

void Tracer::write_json(std::ostream& os) const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& rec : records_) {
    if (rec.parent >= 0) {
      child_s[static_cast<std::size_t>(rec.parent)] += rec.end_s - rec.start_s;
    }
  }
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& rec = records_[i];
    const double dur = rec.end_s - rec.start_s;
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":" << rec.parent
       << ",\"name\":";
    metis::json::write_escaped(os, rec.name);
    os << ",\"start_ms\":";
    metis::json::write_number(os, rec.start_s * 1e3);
    os << ",\"dur_ms\":";
    metis::json::write_number(os, dur * 1e3);
    os << ",\"self_ms\":";
    metis::json::write_number(os, (dur - child_s[i]) * 1e3);
    os << "}";
  }
  os << "]}";
}

void LayerTotals::add(const metis::telemetry::MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) counters_[name] += value;
  for (const auto& [path, stats] : snap.spans) {
    SpanSum& sum = spans_[path];
    sum.count += stats.count;
    sum.total_s += stats.total_seconds;
  }
}

std::int64_t LayerTotals::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double LayerTotals::self_seconds(const std::string& path,
                                 const SpanSum& sum) const {
  // Direct children sort right after "path/" in the map; deeper
  // descendants contain a further '/' and are skipped.
  const std::string prefix = path + "/";
  double children = 0;
  for (auto it = spans_.lower_bound(prefix);
       it != spans_.end() && it->first.starts_with(prefix); ++it) {
    if (it->first.find('/', prefix.size()) == std::string::npos) {
      children += it->second.total_s;
    }
  }
  return sum.total_s - children;
}

double LayerTotals::total_of(std::string_view leaf) const {
  double total = 0;
  for (const auto& [path, sum] : spans_) {
    if (leaf_of(path) == leaf) total += sum.total_s;
  }
  return total;
}

double LayerTotals::self_of(std::string_view leaf) const {
  double total = 0;
  for (const auto& [path, sum] : spans_) {
    if (leaf_of(path) == leaf) total += self_seconds(path, sum);
  }
  return total;
}

void LayerTotals::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "" : ",");
    first = false;
    metis::json::write_escaped(os, name);
    os << ":" << value;
  }
  os << "},\"spans\":[";
  first = true;
  for (const auto& [path, sum] : spans_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"path\":";
    metis::json::write_escaped(os, path);
    os << ",\"count\":" << sum.count << ",\"total_ms\":";
    metis::json::write_number(os, sum.total_s * 1e3);
    os << ",\"self_ms\":";
    metis::json::write_number(os, self_seconds(path, sum) * 1e3);
    os << "}";
  }
  os << "]}";
}

}  // namespace perfbench
