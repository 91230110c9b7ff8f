#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id, std::vector<std::uint64_t> jobs) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench::Tracer: spans closed out of order");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now_s();
  s.jobs = std::move(jobs);
}

std::vector<NameTime> time_by_name(const std::vector<Span>& spans, std::size_t first,
                                   std::size_t last) {
  last = std::min(last, spans.size());
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = first; i < last; ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0) child_s[static_cast<std::size_t>(p)] += spans[i].duration();
  }
  std::map<std::string, NameTime> by_name;
  for (std::size_t i = first; i < last; ++i) {
    NameTime& t = by_name[spans[i].name];
    t.name = spans[i].name;
    ++t.count;
    t.total_s += spans[i].duration();
    t.self_s += spans[i].duration() - child_s[i];
  }
  std::vector<NameTime> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

std::string check_children_fit(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(p)];
    if (spans[i].start_s < parent.start_s || spans[i].end_s > parent.end_s) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "span %zu (%s) lies outside its parent %lld (%s)", i,
                    spans[i].name, static_cast<long long>(p), parent.name);
      return buf;
    }
    child_s[static_cast<std::size_t>(p)] += spans[i].duration();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (child_s[i] > spans[i].duration()) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "children of span %zu (%s) sum to %.9f s > %.9f s", i,
                    spans[i].name, child_s[i], spans[i].duration());
      return buf;
    }
  }
  return {};
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  const double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld, "
                  "\"op\": %llu",
                  i == 0 ? "" : ",", s.name, (s.start_s - t0) * 1e6, s.duration() * 1e6, i,
                  static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op));
    out += buf;
    if (!s.jobs.empty()) {
      out += ", \"jobs\": [";
      for (std::size_t j = 0; j < s.jobs.size(); ++j) {
        std::snprintf(buf, sizeof buf, "%s%llu", j == 0 ? "" : ", ",
                      static_cast<unsigned long long>(s.jobs[j]));
        out += buf;
      }
      out += "]";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
