#include "trace.hpp"

#include <dirent.h>
#include <sched.h>

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <unordered_map>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Query: return "query";
    case Layer::Parse: return "oql.parse";
    case Layer::Expand: return "optimizer.view_expand";
    case Layer::Optimize: return "optimizer.optimize";
    case Layer::Execute: return "physical.execute";
    case Layer::Minisql: return "wrapper.minisql";
    case Layer::Csv: return "wrapper.csv";
    case Layer::Kvstore: return "wrapper.kvstore";
    case Layer::Docstore: return "wrapper.docstore";
    case Layer::Request: return "server.request";
    case Layer::Ack: return "server.ack";
    case Layer::Push: return "server.push";
    case Layer::Admin: return "fedcat.admin";
    case Layer::kCount: break;
  }
  return "?";
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "# id parent op layer start_ns end_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ' ' << s.parent << ' ' << s.op << ' '
        << layer_name(s.layer) << ' ' << s.start_ns << ' ' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

SelfTimes self_times(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
  }
  SelfTimes out;
  for (const Span& s : spans) {
    int64_t self = s.duration_ns();
    if (auto it = child_ns.find(s.id); it != child_ns.end()) self -= it->second;
    const size_t layer = static_cast<size_t>(s.layer);
    out.total_us[layer] += static_cast<double>(self) / 1e3;
    ++out.spans[layer];
  }
  return out;
}

SpanContext& current_context() {
  thread_local SpanContext context;
  return context;
}

disco::wrapper::SubmitResult TimingWrapper::submit(
    const disco::catalog::Repository& repository,
    const disco::algebra::LogicalPtr& expr,
    const disco::wrapper::BindingMap& bindings) {
  const SpanContext context = current_context();
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!context.active && !all_threads_) {
    disco::wrapper::SubmitResult result =
        inner_->submit(repository, expr, bindings);
    rows_.fetch_add(result.data.size(), std::memory_order_relaxed);
    return result;
  }
  ScopedSpan span(log_, layer_, context.op, context.parent);
  disco::wrapper::SubmitResult result =
      inner_->submit(repository, expr, bindings);
  rows_.fetch_add(result.data.size(), std::memory_order_relaxed);
  return result;
}

namespace {

constexpr auto kCpuSlice = std::chrono::milliseconds(25);

bool set_affinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof set, &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() : slice_end_(Clock::now() + kCpuSlice) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() { release_all(); }

void CpuRotation::tick() {
  if (cpus_.size() < 2 || Clock::now() < slice_end_) return;
  pin(next_++);
  slice_end_ = Clock::now() + kCpuSlice;
}

void CpuRotation::pin(size_t i) {
  if (cpus_.empty()) return;
  (void)set_affinity(0, {cpus_[i % cpus_.size()]});
}

void CpuRotation::release_all() {
  if (cpus_.empty()) return;
  // Threads started while the caller was pinned inherited its one CPU.
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    (void)set_affinity(0, cpus_);
    return;
  }
  while (const dirent* entry = readdir(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) (void)set_affinity(tid, cpus_);
  }
  closedir(tasks);
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace perfbench
