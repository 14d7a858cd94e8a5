#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>

#include "huffman/stream_format.h"

namespace bench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }

double rss_mib() { return status_mib("VmRSS:"); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// --- Tracer ------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name, double start_s) {
  Record r;
  r.name = name;
  r.start_s = start_s;
  r.id = static_cast<int>(records_.size());
  r.parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back(std::move(r));
  stack_.push_back(records_.back().id);
  return records_.back().id;
}

void Tracer::close(int id, double end_s) {
  records_[static_cast<std::size_t>(id)].end_s = end_s;
  // Spans close in LIFO order on the one tracing thread.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (r.name == name) out.push_back((r.end_s - r.start_s) * 1e3);
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations_ms(name)) sum += d;
  return sum;
}

double Tracer::self_ms(int id) const {
  const Record& me = records_.at(static_cast<std::size_t>(id));
  double covered = 0.0;
  for (const auto& r : records_) {
    if (r.parent == id) covered += r.end_s - r.start_s;
  }
  return (me.end_s - me.start_s - covered) * 1e3;
}

int Tracer::last(const std::string& name) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->name == name) return it->id;
  }
  return -1;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = records_.empty() ? 0.0 : records_.front().start_s;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%d,\"parent\":%d}}%s\n",
                 r.name.c_str(), (r.start_s - origin) * 1e6,
                 (r.end_s - r.start_s) * 1e6, r.id, r.parent,
                 i + 1 == records_.size() ? "" : ",");
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name) : start_s_(now_s()) {
  Tracer& t = Tracer::get();
  if (t.enabled()) id_ = t.open(name, start_s_);
}

Span::~Span() { stop(); }

double Span::stop() {
  if (dur_s_ < 0.0) {
    const double end = now_s();
    dur_s_ = end - start_s_;
    if (id_ >= 0) Tracer::get().close(id_, end);
  }
  return dur_s_;
}

// --- Watchdog --------------------------------------------------------------

namespace {

class Watchdog {
 public:
  ~Watchdog() {
    {
      std::scoped_lock lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void arm(const char* label, double until_s) {
    std::scoped_lock lk(mu_);
    if (!thread_.joinable()) thread_ = std::thread([this] { main(); });
    stack_.push_back({label, until_s});
    cv_.notify_all();
  }

  void disarm() {
    std::scoped_lock lk(mu_);
    stack_.pop_back();
    cv_.notify_all();
  }

 private:
  struct Armed {
    const char* label;
    double until_s;
  };

  void main() {
    std::unique_lock lk(mu_);
    while (!stop_) {
      if (stack_.empty()) {
        cv_.wait(lk);
        continue;
      }
      const Armed a = stack_.back();
      if (now_s() >= a.until_s) {
        std::fprintf(stderr, "tvsbench: deadline passed in %s\n", a.label);
        tally().fail(std::string("deadline: ") + a.label);
        print_result(tally(), {});
        std::_Exit(0);
      }
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Armed> stack_;  // guarded by mu_
  bool stop_ = false;         // guarded by mu_
  std::thread thread_;
};

Watchdog& watchdog() {
  static Watchdog w;
  return w;
}

}  // namespace

Deadline::Deadline(const char* label, double seconds) {
  watchdog().arm(label, now_s() + seconds);
}

Deadline::~Deadline() { watchdog().disarm(); }

// --- Tally and result ------------------------------------------------------

void Tally::fail(const std::string& what) {
  ++attempted;
  ++failed;
  correct = false;
  std::fprintf(stderr, "tvsbench: operation failed: %s\n", what.c_str());
}

void Tally::check(bool ok, const std::string& what) {
  if (ok) {
    pass();
  } else {
    fail(what);
  }
}

void Tally::known_fault(const std::string& what) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "tvsbench: operation failed (known fault): %s\n",
               what.c_str());
}

Tally& tally() {
  static Tally t;
  return t;
}

void print_result(const Tally& t, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += t.correct.load() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted.load());
  out += ", \"failed\": " + std::to_string(t.failed.load());
  out += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}\n";
  std::fflush(stdout);
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

void put(Metrics& m, const std::string& name, const std::string& unit,
         const std::vector<double>& samples,
         double (*stat)(const std::vector<double>&)) {
  if (samples.empty()) {
    tally().correct = false;
    std::fprintf(stderr, "tvsbench: no samples for %s\n", name.c_str());
    return;
  }
  m[name] = {stat(samples), unit};
}

void die(const std::string& what) {
  std::fprintf(stderr, "tvsbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

// --- Checks ------------------------------------------------------------------

std::vector<std::uint64_t> byte_counts(std::span<const std::uint8_t> data) {
  std::vector<std::uint64_t> c(256, 0);
  for (std::uint8_t b : data) ++c[b];
  return c;
}

double entropy_bits(const std::vector<std::uint64_t>& counts) {
  double n = 0.0;
  for (auto c : counts) n += static_cast<double>(c);
  double bits = 0.0;
  for (auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    bits -= static_cast<double>(c) * std::log2(p);
  }
  return bits;
}

std::uint64_t optimal_huffman_bits(const std::vector<std::uint64_t>& counts) {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint64_t total = 0;
  for (auto c : counts) {
    if (c == 0) continue;
    heap.push(c);
    total += c;
  }
  if (heap.size() == 1) return total;
  std::uint64_t cost = 0;
  while (heap.size() > 1) {
    const std::uint64_t a = heap.top();
    heap.pop();
    const std::uint64_t b = heap.top();
    heap.pop();
    cost += a + b;
    heap.push(a + b);
  }
  return cost;
}

std::string check_payload_bounds(std::span<const std::uint8_t> container,
                                 std::span<const std::uint8_t> input,
                                 double tolerance) {
  huff::CompressedStream s;
  try {
    s = huff::deserialize(container);
  } catch (const std::exception& e) {
    return std::string("malformed container: ") + e.what();
  }
  if (s.original_bytes != input.size()) return "header size mismatch";
  if (input.empty()) return {};
  const auto counts = byte_counts(input);
  const double floor_bits = entropy_bits(counts);
  const double opt = static_cast<double>(optimal_huffman_bits(counts));
  const double bits = static_cast<double>(s.payload_bits);
  if (bits + 1e-6 < floor_bits) {
    return "payload " + std::to_string(s.payload_bits) +
           " bits below the entropy bound " + std::to_string(floor_bits);
  }
  const double ceiling = (1.0 + tolerance) * opt * (1.0 + kFloorSlack) + 64.0;
  if (bits > ceiling) {
    return "payload " + std::to_string(s.payload_bits) +
           " bits above the tolerance bound " + std::to_string(ceiling);
  }
  return {};
}

double size_overhead_pct(std::span<const std::uint8_t> container,
                         std::span<const std::uint8_t> input) {
  const huff::CompressedStream s = huff::deserialize(container);
  const double opt =
      static_cast<double>(optimal_huffman_bits(byte_counts(input)));
  return opt == 0.0 ? 0.0
                    : (static_cast<double>(s.payload_bits) / opt - 1.0) * 100.0;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace bench
