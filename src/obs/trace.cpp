#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace disco::obs {

namespace {

const std::string kEmpty;

/// Formats a double with enough precision for microsecond timestamps
/// without trailing-zero noise.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

const std::string& Span::tag(std::string_view key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return v;
  }
  return kEmpty;
}

bool Span::has_tag(std::string_view key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return true;
  }
  return false;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Trace::Trace(std::string query_text)
    : query_(std::move(query_text)),
      epoch_(std::chrono::steady_clock::now()) {
  // A typical traced query records a handful of pipeline spans plus one
  // exec span (and a few tags) per source call; reserving up front keeps
  // the hot begin/tag path free of vector regrowth.
  spans_.reserve(32);
  events_.reserve(64);
}

double Trace::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

uint64_t Trace::thread_index_locked() {
  const auto tid = std::this_thread::get_id();
  auto it = threads_.find(tid);
  if (it != threads_.end()) return it->second;
  const uint64_t index = threads_.size() + 1;
  threads_.emplace(tid, index);
  return index;
}

uint64_t Trace::begin(uint64_t parent, std::string_view name,
                      std::string_view category) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Build the span in place; short literal names land in SSO buffers,
  // so the common case allocates nothing per span.
  Span& span = spans_.emplace_back();
  span.id = next_id_++;
  span.parent = parent;
  span.name = name;
  span.category = category;
  // Read the clock under the lock: event order == timestamp order.
  span.start_s = now_s();
  span.tid = thread_index_locked();
  events_.push_back({Event::Phase::Begin, spans_.size() - 1, span.start_s});
  return span.id;
}

void Trace::end(uint64_t span_id) {
  if (span_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are assigned sequentially from 1, so id k lives at index k-1.
  if (span_id > spans_.size()) return;
  Span& span = spans_[span_id - 1];
  if (span.instant || span.end_s >= 0) return;  // already closed
  span.end_s = now_s();
  span.async = thread_index_locked() != span.tid;
  events_.push_back({Event::Phase::End, span_id - 1, span.end_s});
}

uint64_t Trace::instant(uint64_t parent, std::string_view name,
                        std::string_view category) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.emplace_back();
  span.id = next_id_++;
  span.parent = parent;
  span.name = name;
  span.category = category;
  span.start_s = now_s();
  span.end_s = span.start_s;
  span.tid = thread_index_locked();
  span.instant = true;
  events_.push_back({Event::Phase::Instant, spans_.size() - 1, span.start_s});
  return span.id;
}

void Trace::tag(uint64_t span_id, std::string_view key, std::string value) {
  if (span_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (span_id > spans_.size()) return;
  auto& tags = spans_[span_id - 1].tags;
  // Exec spans carry ~6 tags; one up-front reservation beats doubling.
  if (tags.empty()) tags.reserve(8);
  tags.emplace_back(std::string(key), std::move(value));
}

void Trace::tag(uint64_t span_id, std::string_view key, double value) {
  tag(span_id, key, format_double(value));
}

void Trace::tag(uint64_t span_id, std::string_view key, uint64_t value) {
  tag(span_id, key, std::to_string(value));
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Span> Trace::spans_named(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span);
  }
  return out;
}

bool Trace::find_span(std::string_view name, Span* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    if (span.name == name) {
      if (out != nullptr) *out = span;
      return true;
    }
  }
  return false;
}

std::string Trace::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"query\":\""
      << json_escape(query_) << "\"},\"traceEvents\":[";
  bool first = true;
  auto emit_common = [&](const Span& span, const char* phase, double ts_s) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category) << "\",\"ph\":\"" << phase
        << "\",\"ts\":" << format_double(ts_s * 1e6)
        << ",\"pid\":1,\"tid\":" << span.tid;
  };
  auto emit_args = [&](const Span& span) {
    out << ",\"args\":{";
    bool first_tag = true;
    for (const auto& [key, value] : span.tags) {
      if (!first_tag) out << ',';
      first_tag = false;
      out << '"' << json_escape(key) << "\":\"" << json_escape(value)
          << '"';
    }
    out << '}';
  };
  for (const Event& event : events_) {
    const Span& span = spans_[event.span_index];
    switch (event.phase) {
      case Event::Phase::Begin:
        emit_common(span, span.async ? "b" : "B", event.ts_s);
        if (span.async) out << ",\"id\":" << span.id;
        emit_args(span);
        break;
      case Event::Phase::End:
        emit_common(span, span.async ? "e" : "E", event.ts_s);
        if (span.async) out << ",\"id\":" << span.id;
        break;
      case Event::Phase::Instant:
        emit_common(span, "i", event.ts_s);
        out << ",\"s\":\"t\"";
        emit_args(span);
        break;
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::string Trace::to_compact_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children in creation order under each parent.
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == 0) {
      roots.push_back(i);
    } else {
      children[spans_[i].parent].push_back(i);
    }
  }
  std::ostringstream out;
  // Iterative emitter (explicit stack) so deep trees can't overflow.
  struct Frame {
    size_t index;
    size_t next_child = 0;
  };
  auto open_span = [&](const Span& span) {
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category)
        << "\",\"start_s\":" << format_double(span.start_s)
        << ",\"dur_s\":" << format_double(span.duration_s());
    if (span.instant) out << ",\"instant\":true";
    if (!span.tags.empty()) {
      out << ",\"tags\":{";
      bool first_tag = true;
      for (const auto& [key, value] : span.tags) {
        if (!first_tag) out << ',';
        first_tag = false;
        out << '"' << json_escape(key) << "\":\"" << json_escape(value)
            << '"';
      }
      out << '}';
    }
    out << ",\"children\":[";
  };
  out << "{\"query\":\"" << json_escape(query_) << "\",\"spans\":[";
  bool first_root = true;
  for (const size_t root : roots) {
    if (!first_root) out << ',';
    first_root = false;
    std::vector<Frame> stack;
    stack.push_back({root});
    open_span(spans_[root]);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      auto it = children.find(spans_[frame.index].id);
      const std::vector<size_t>* kids =
          it == children.end() ? nullptr : &it->second;
      if (kids != nullptr && frame.next_child < kids->size()) {
        if (frame.next_child > 0) out << ',';
        const size_t child = (*kids)[frame.next_child++];
        open_span(spans_[child]);
        stack.push_back({child});
      } else {
        out << "]}";
        stack.pop_back();
      }
    }
  }
  out << "]}";
  return out.str();
}

}  // namespace disco::obs
