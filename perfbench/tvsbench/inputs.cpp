// Input generation (outside any timing) and the shared end-to-end metrics.
#include <filesystem>
#include <stdexcept>

#include "huffman/stream_format.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace bench {

namespace {

struct FileSpec {
  std::string name;
  wl::FileKind kind;
  std::size_t bytes;
  /// Content from the generator's default seed instead of the run's: the
  /// stream's rollback count is a property of its bytes (one or two for
  /// different PDF seeds), so a seeded stream would split runs in two.
  bool fixed_content = false;
};

constexpr std::size_t kMiB = 1024 * 1024;

// Serving sessions cycle through these; two files per kind so that a
// session's input is not always the same bytes as its predecessor's.
std::vector<FileSpec> serve_specs() {
  return {{"serve_txt0.bin", wl::FileKind::Txt, 2 * kMiB},
          {"serve_bmp0.bin", wl::FileKind::Bmp, 1 * kMiB},
          {"serve_pdf0.bin", wl::FileKind::Pdf, 3 * kMiB / 2},
          {"serve_txt1.bin", wl::FileKind::Txt, 3 * kMiB / 2},
          {"serve_bmp1.bin", wl::FileKind::Bmp, 2 * kMiB},
          {"serve_pdf1.bin", wl::FileKind::Pdf, 1 * kMiB}};
}

std::vector<FileSpec> specs_for(const std::string& workload) {
  std::vector<FileSpec> out;
  const bool all = workload == "all";
  if (all || workload == "batch_txt") {
    out.push_back({inputs::kBatch, wl::FileKind::Txt, 64 * kMiB});
  }
  if (all || workload == "stream_pdf_socket") {
    out.push_back({inputs::kStream, wl::FileKind::Pdf, 4 * kMiB, true});
  }
  if (all || workload == "serve_mix") {
    for (auto& s : serve_specs()) out.push_back(std::move(s));
  }
  if (all || workload == "paper_sim") {
    out.push_back({inputs::kSimTxt, wl::FileKind::Txt, 0});
    out.push_back({inputs::kSimBmp, wl::FileKind::Bmp, 0});
    out.push_back({inputs::kSimPdf, wl::FileKind::Pdf, 0});
  }
  if (out.empty()) throw std::invalid_argument("unknown workload " + workload);
  return out;
}

}  // namespace

std::vector<std::string> inputs::serve_files() {
  std::vector<std::string> names;
  for (const auto& s : serve_specs()) names.push_back(s.name);
  return names;
}

void inputs::generate(const std::string& workload, std::uint64_t seed,
                      const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& spec : specs_for(workload)) {
    // Each file gets its own seed stream, stable under adding workloads.
    std::uint64_t file_seed = mix(seed, 0);
    for (char c : spec.name) {
      file_seed = mix(file_seed, static_cast<unsigned char>(c));
    }
    huff::write_file(dir + "/" + spec.name,
                     spec.fixed_content
                         ? wl::make_corpus(spec.kind, spec.bytes)
                         : wl::make_corpus(spec.kind, spec.bytes, file_seed));
  }
}

std::vector<std::uint8_t> load(const Context& ctx, const std::string& name) {
  return huff::read_file(ctx.inputs + "/" + name);
}

Metrics EndToEnd::metrics() const {
  const auto p50 = [](const std::vector<double>& v) { return quantile(v, 0.50); };
  const auto p95 = [](const std::vector<double>& v) { return quantile(v, 0.95); };
  Metrics m;
  put(m, "setup_s", "s", setup_s, median);
  put(m, "wall_s", "s", wall_s, median);
  put(m, "compress_mbps", "MB/s", compress_mbps, median);
  put(m, "decompress_mbps", "MB/s", decompress_mbps, median);
  put(m, "compressed_ratio", "ratio", ratio, median);
  put(m, "peak_rss_mb", "MiB",
      peak_rss_mib > 0.0 ? std::vector<double>{peak_rss_mib}
                         : std::vector<double>{},
      median);
  put(m, "latency_mean_ms", "ms", latency_ms, mean);
  put(m, "latency_p50_ms", "ms", latency_ms, p50);
  put(m, "latency_p95_ms", "ms", latency_ms, p95);
  return m;
}

}  // namespace bench
