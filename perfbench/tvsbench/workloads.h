// The four workloads. Each has an untraced measuring loop, which repeats
// whole rounds of fixed work until the run's time is up and reports the
// end-to-end metrics, and a ledger, which runs one traced repetition and
// reports that workload's per-layer metrics.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"

namespace bench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string inputs;  ///< directory the generator wrote the inputs to
  std::string scratch; ///< directory for containers and trace files
  unsigned workers = 2;  ///< runtime workers: nproc minus feeder and director
};

/// Input files (under Context::inputs) and their generation. Sizes are
/// fixed; contents follow the seed.
namespace inputs {
inline constexpr const char* kBatch = "batch.txt";    ///< 64 MiB text
/// 1024 × 4 KiB PDF of fixed content; the seed drives its arrival jitter.
inline constexpr const char* kStream = "stream.pdf";
inline constexpr const char* kSimTxt = "sim.txt";     ///< paper sizes
inline constexpr const char* kSimBmp = "sim.bmp";
inline constexpr const char* kSimPdf = "sim.pdf";
/// Serving files: TXT, BMP and PDF, two of each kind.
[[nodiscard]] std::vector<std::string> serve_files();
/// Writes the inputs `workload` reads ("all" = every workload's).
void generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir);
}  // namespace inputs

/// A whole input file held in memory for checks (read outside timing).
[[nodiscard]] std::vector<std::uint8_t> load(const Context& ctx,
                                             const std::string& name);

/// Adds the metrics every workload reports. The end-to-end metric names are
/// shared by all four workloads; what each measures is in README.md.
struct EndToEnd {
  std::vector<double> setup_s;       ///< one per set-up repetition
  std::vector<double> wall_s;        ///< one per round
  std::vector<double> compress_mbps; ///< one per round
  std::vector<double> decompress_mbps;
  std::vector<double> ratio;
  std::vector<double> latency_ms;    ///< every latency sample of the run
  double peak_rss_mib = 0.0;         ///< VmHWM after the first round

  [[nodiscard]] Metrics metrics() const;
};

EndToEnd run_batch(const Context& ctx);
EndToEnd run_stream(const Context& ctx);
EndToEnd run_serve(const Context& ctx);
EndToEnd run_sim(const Context& ctx);

/// Per-layer metrics of one traced repetition.
void ledger_batch(const Context& ctx, Metrics& out);
void ledger_stream(const Context& ctx, Metrics& out);
void ledger_serve(const Context& ctx, Metrics& out);
void ledger_sim(const Context& ctx, Metrics& out);

/// Repeats `round` until `ctx.seconds` have passed (at least once).
template <typename Fn>
void for_rounds(const Context& ctx, Fn&& round) {
  const double end = now_s() + ctx.seconds;
  do {
    round();
  } while (now_s() < end);
}

}  // namespace bench
