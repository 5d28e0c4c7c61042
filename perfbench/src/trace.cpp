#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), id_(tracer.open(name)) {}

Tracer::Scope::~Scope() { tracer_.close(id_); }

std::uint32_t Tracer::open(const char* name) {
  const std::uint32_t id = add(name, now_ns(), 0, open_.empty() ? 0 : open_.back());
  open_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

std::uint32_t Tracer::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                          std::uint32_t parent) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, run_, name, start_ns, end_ns});
  return id;
}

std::vector<double> Tracer::durations(std::string_view name, std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i)
    if (name == spans_[i].name) out.push_back(spans_[i].seconds());
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%u,\"parent\":%u,\"run\":%u,\"name\":\"%s\",\"start_ns\":%llu,"
                  "\"end_ns\":%llu}\n",
                  s.id, s.parent, s.run, s.name, static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
