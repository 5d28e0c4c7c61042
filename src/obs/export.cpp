#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <variant>

#include <sys/resource.h>

#include "engine/thread_pool.hpp"
#include "support/table.hpp"

namespace mh::obs {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

struct Json::Impl {
  using Object = std::vector<std::pair<std::string, Json>>;
  using Array = std::vector<Json>;
  std::variant<std::nullptr_t, bool, double, std::uint64_t, std::int64_t, std::string, Object,
               Array>
      value;
};

Json::Json(std::nullptr_t) : impl_(std::make_unique<Impl>()) { impl_->value = nullptr; }
Json::Json(bool b) : impl_(std::make_unique<Impl>()) { impl_->value = b; }
Json::Json(double d) : impl_(std::make_unique<Impl>()) { impl_->value = d; }
Json::Json(std::uint64_t u) : impl_(std::make_unique<Impl>()) { impl_->value = u; }
Json::Json(std::int64_t i) : impl_(std::make_unique<Impl>()) { impl_->value = i; }
Json::Json(const char* s) : impl_(std::make_unique<Impl>()) { impl_->value = std::string(s); }
Json::Json(std::string s) : impl_(std::make_unique<Impl>()) { impl_->value = std::move(s); }

Json::Json(const Json& other) : impl_(std::make_unique<Impl>(*other.impl_)) {}
Json::Json(Json&& other) noexcept = default;
Json& Json::operator=(Json other) {
  impl_ = std::move(other.impl_);
  return *this;
}
Json::~Json() = default;

Json Json::object() {
  Json j;
  j.impl_->value = Impl::Object{};
  return j;
}

Json Json::array() {
  Json j;
  j.impl_->value = Impl::Array{};
  return j;
}

Json& Json::set(std::string key, Json value) {
  auto& obj = std::get<Impl::Object>(impl_->value);
  for (auto& [k, v] : obj)
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  std::get<Impl::Array>(impl_->value).push_back(std::move(value));
  return *this;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_indent(std::string& out, int indent, int level) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(level), ' ');
}

}  // namespace

void Json::render(std::string& out, int indent, int level) const {
  const auto& v = impl_->value;
  if (std::holds_alternative<std::nullptr_t>(v)) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&v)) {
    out += *b ? "true" : "false";
  } else if (const double* d = std::get_if<double>(&v)) {
    char buf[40];
    if (*d != *d || *d > 1.7e308 || *d < -1.7e308) {
      out += "null";  // JSON has no NaN / Inf
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", *d);
      out += buf;
    }
  } else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v)) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, *u);
    out += buf;
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, *i);
    out += buf;
  } else if (const std::string* s = std::get_if<std::string>(&v)) {
    append_escaped(out, *s);
  } else if (const Impl::Object* obj = std::get_if<Impl::Object>(&v)) {
    if (obj->empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    for (std::size_t i = 0; i < obj->size(); ++i) {
      append_indent(out, indent, level + 1);
      append_escaped(out, (*obj)[i].first);
      out += indent > 0 ? ": " : ":";
      (*obj)[i].second.render(out, indent, level + 1);
      if (i + 1 < obj->size()) out.push_back(',');
    }
    append_indent(out, indent, level);
    out.push_back('}');
  } else if (const Impl::Array* arr = std::get_if<Impl::Array>(&v)) {
    if (arr->empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr->size(); ++i) {
      append_indent(out, indent, level + 1);
      (*arr)[i].render(out, indent, level + 1);
      if (i + 1 < arr->size()) out.push_back(',');
    }
    append_indent(out, indent, level);
    out.push_back(']');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  render(out, indent, 0);
  out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// Meta + exporters
// ---------------------------------------------------------------------------

const char* build_git_rev() noexcept {
#ifdef MH_GIT_REV
  return MH_GIT_REV;
#else
  return "unknown";
#endif
}

namespace {
constexpr bool obs_compiled() noexcept {
#ifdef MH_OBS_ENABLED
  return true;
#else
  return false;
#endif
}
}  // namespace

RunMeta RunMeta::current(std::string bench) {
  RunMeta meta;
  meta.bench = std::move(bench);
  meta.threads = engine::resolve_threads(engine::threads_from_env());
  meta.obs_enabled = enabled();
  return meta;
}

namespace {

Json snapshot_json(const Snapshot& snapshot) {
  Snapshot sorted = snapshot;
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(sorted.counters.begin(), sorted.counters.end(), by_name);
  std::sort(sorted.gauges.begin(), sorted.gauges.end(), by_name);
  std::sort(sorted.histograms.begin(), sorted.histograms.end(), by_name);

  Json counters = Json::array();
  for (const CounterSnapshot& c : sorted.counters)
    counters.push(Json::object().set("name", c.name).set("value", c.value));

  Json gauges = Json::array();
  for (const GaugeSnapshot& g : sorted.gauges)
    gauges.push(Json::object()
                    .set("name", g.name)
                    .set("value", std::int64_t{g.value})
                    .set("ever_set", g.ever_set));

  Json histograms = Json::array();
  for (const HistogramSnapshot& h : sorted.histograms) {
    Json buckets = Json::array();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
      if (h.buckets[b] != 0)
        buckets.push(Json::object()
                         .set("lo", Histogram::bucket_lo(b))
                         .set("count", h.buckets[b]));
    histograms.push(Json::object()
                        .set("name", h.name)
                        .set("count", h.count)
                        .set("sum", h.sum)
                        .set("min", h.min)
                        .set("max", h.max)
                        .set("mean", h.mean())
                        .set("buckets", std::move(buckets)));
  }

  return Json::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms));
}

/// The process's peak resident set so far, in KiB (Linux reports ru_maxrss in
/// KiB); 0 if getrusage fails.
std::int64_t peak_rss_kb() noexcept {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

}  // namespace

Json JsonExporter::document(const RunMeta& meta, const Snapshot& snapshot, Json results) {
  Json doc = Json::object();
  doc.set("schema", "mh-bench-v1");
  doc.set("bench", meta.bench);
  doc.set("meta", Json::object()
                      .set("git_rev", build_git_rev())
                      .set("threads", std::uint64_t{meta.threads})
                      .set("obs_compiled", obs_compiled())
                      .set("obs_enabled", meta.obs_enabled)
                      .set("unix_time", static_cast<std::int64_t>(std::time(nullptr)))
                      .set("peak_rss_kb", peak_rss_kb()));
  doc.set("results", std::move(results));
  doc.set("metrics", snapshot_json(snapshot));
  return doc;
}

std::string JsonExporter::render(const RunMeta& meta, const Snapshot& snapshot, Json results) {
  return document(meta, snapshot, std::move(results)).dump();
}

void JsonExporter::write_file(const std::string& path, const RunMeta& meta,
                              const Snapshot& snapshot, Json results) {
  const std::string text = render(meta, snapshot, std::move(results));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("obs::JsonExporter: cannot write " + path);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0)
    throw std::runtime_error("obs::JsonExporter: short write to " + path);
}

std::string metrics_table(const Snapshot& snapshot) {
  struct Row {
    std::string name, kind, count, value, min, max, mean;
  };
  std::vector<Row> rows;
  for (const CounterSnapshot& c : snapshot.counters)
    rows.push_back({c.name, "counter", "", std::to_string(c.value), "", "", ""});
  for (const GaugeSnapshot& g : snapshot.gauges)
    rows.push_back({g.name, "gauge", "", g.ever_set ? std::to_string(g.value) : "(unset)", "",
                    "", ""});
  for (const HistogramSnapshot& h : snapshot.histograms)
    rows.push_back({h.name, "histogram", std::to_string(h.count), std::to_string(h.sum),
                    std::to_string(h.min), std::to_string(h.max), fixed(h.mean(), 1)});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.name < b.name; });

  TextTable table({"metric", "kind", "count", "value/sum", "min", "max", "mean"});
  for (Row& r : rows)
    table.add_row({std::move(r.name), std::move(r.kind), std::move(r.count),
                   std::move(r.value), std::move(r.min), std::move(r.max), std::move(r.mean)});
  return table.render();
}

}  // namespace mh::obs
