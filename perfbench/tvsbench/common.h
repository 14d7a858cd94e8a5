// Shared pieces of the benchmark: clocks, sample statistics, the span
// tracer, the deadline watchdog, operation accounting, independent output
// checks and the result printer. Everything here lives outside the program
// under test; it only calls the program's public headers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace bench {

// --- Clocks ----------------------------------------------------------------

/// Seconds on the steady clock since an arbitrary origin.
[[nodiscard]] double now_s();
/// CPU time consumed by every thread of this process, in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mib();
/// Current resident set (VmRSS) of this process in MiB.
[[nodiscard]] double rss_mib();

// --- Sample statistics -----------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

// --- Spans -------------------------------------------------------------------

/// In-memory span log for the traced run. Spans are opened only by the
/// benchmark's main thread, around its own calls into the program; nothing
/// is recorded inside the program. When tracing is off a Span still times
/// its interval (two clock reads) but records nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int id = 0;
    int parent = -1;  ///< id of the enclosing span, -1 at top level
  };

  static Tracer& get();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  int open(const char* name, double start_s);
  void close(int id, double end_s);

  /// Durations (ms) of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Sum of `durations_ms(name)`.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Duration of span `id` not covered by its direct children (ms).
  [[nodiscard]] double self_ms(int id) const;
  /// Id of the most recent span called `name`, -1 if none.
  [[nodiscard]] int last(const std::string& name) const;

  /// Writes every span as one Chrome-trace JSON file. Returns false on IO
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// Times one call into a layer; records it as a span when tracing is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  double start_s_ = 0.0;
  double dur_s_ = -1.0;
  int id_ = -1;
};

// --- Deadlines ---------------------------------------------------------------

/// Every blocking wait on the program runs under a deadline. If a wait is
/// still blocked when its deadline passes, a watchdog thread prints the run
/// result with the pending operation counted as failed and ends the process
/// with exit code 0 — the run reports instead of hanging.
class Deadline {
 public:
  /// Arms the watchdog for `label` with `seconds` to spare.
  Deadline(const char* label, double seconds);
  ~Deadline();
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;
};

// --- Operations and results ------------------------------------------------

/// Operation accounting for one run. An operation that throws, misses its
/// deadline or fails an output check counts as failed and clears `correct`;
/// only known_fault() leaves `correct` alone. Atomic because the watchdog
/// thread reports it while the main thread is blocked inside the program.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> correct{true};

  void pass() { ++attempted; }
  void fail(const std::string& what);
  /// Records one operation that passes iff `ok`; `what` explains a failure.
  void check(bool ok, const std::string& what);
  /// Counts one failed operation on fixed inputs where the program is known
  /// to fail in exactly this way every time. `correct` stays set, so the
  /// fault shows at the same share in every run; the caller must make sure
  /// the failure is the known one and use fail() for anything else.
  void known_fault(const std::string& what);
};

/// The process-wide tally the watchdog reports from.
Tally& tally();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Prints the result object as the last line of standard output.
void print_result(const Tally& t, const Metrics& m);

/// Sets metric `name` to `stat(samples)`. A metric with no samples (every
/// operation that would have given one failed) is left out and clears
/// `correct`: a missing figure must not read as the best one.
void put(Metrics& m, const std::string& name, const std::string& unit,
         const std::vector<double>& samples,
         double (*stat)(const std::vector<double>&));

/// Fails the run from outside any operation (harness error): prints nothing
/// on stdout and exits non-zero.
[[noreturn]] void die(const std::string& what);

// --- Independent output checks -----------------------------------------------

/// Byte counts computed by the benchmark itself (no program code involved).
[[nodiscard]] std::vector<std::uint64_t> byte_counts(
    std::span<const std::uint8_t> data);
/// n·H in bits for the given byte counts.
[[nodiscard]] double entropy_bits(const std::vector<std::uint64_t>& counts);
/// Optimal Huffman payload in bits: the sum of merge weights over the
/// non-zero counts (a single symbol costs one bit per byte).
[[nodiscard]] std::uint64_t optimal_huffman_bits(
    const std::vector<std::uint64_t>& counts);

/// Relative slack allowed above (1 + tolerance) × optimal: the pipeline
/// judges speculative trees against a table built over the add-one floored
/// histogram, whose cost can exceed the optimum by a small fraction.
inline constexpr double kFloorSlack = 0.005;

/// Checks one container against its input: payload bits within
/// [n·H, (1 + tol)·opt·(1 + kFloorSlack) + 64] and the original size in the
/// header. Returns an empty string when every bound holds, else the reason
/// (a container that does not parse is a reason, not an exception).
[[nodiscard]] std::string check_payload_bounds(
    std::span<const std::uint8_t> container,
    std::span<const std::uint8_t> input, double tolerance);

/// Payload bits over the optimum, in percent (for core.size_overhead_pct).
[[nodiscard]] double size_overhead_pct(std::span<const std::uint8_t> container,
                                       std::span<const std::uint8_t> input);

/// Seed-derived stream for sampling (splitmix64).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

}  // namespace bench
