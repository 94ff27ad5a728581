#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "perfbench.h"

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

std::int32_t Tracer::open(std::string_view name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.iteration = iteration_;
  spans_.push_back(std::move(s));
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by popping
  // through to the closed span.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void Tracer::add_child(std::int32_t parent, std::string_view name, double seconds) {
  if (parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  if (synthetic_parent_ != parent) {
    synthetic_parent_ = parent;
    synthetic_cursor_ns_ = p.start_ns;
  }
  Span s;
  s.name = std::string(name);
  s.start_ns = synthetic_cursor_ns_;
  s.end_ns = s.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  s.parent = parent;
  s.iteration = p.iteration;
  synthetic_cursor_ns_ = s.end_ns;
  spans_.push_back(std::move(s));
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds(
    std::int32_t iteration) const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    const std::int32_t p = spans_[i].parent;
    if (p >= 0) self[static_cast<std::size_t>(p)] -= spans_[i].end_ns - spans_[i].start_ns;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].iteration != iteration) continue;
    by_name[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_json(const std::string& path) const {
  std::ostringstream out;
  out << "{\"schema\":\"perfbench-spans/1\",\"time_unit\":\"ns\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":" << json_string(s.name)
        << ",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"iteration\":" << s.iteration << "}";
  }
  out << "\n]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out.str();
  if (!f) throw std::runtime_error("cannot write span file " + path);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
