// Microbenchmarks of the Huffman substrate — the real per-task costs behind
// the simulator's CostModel (and the justification for its ratios).
//
// Two modes:
//   * default: the google-benchmark suite below.
//   * --kernels [--json FILE]: kernel-variant sweep (scalar/swar/avx2 ×
//     block size) using paired-ratio medians — interleaved baseline/variant
//     trials, median of per-pair time ratios — because bare wall-clock on a
//     shared box cannot resolve sub-10% deltas — plus 4 KiB random-access
//     decode per corpus (the decoder has no dispatch levels, so those rows
//     are medians of MB/s). Emits BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "huffman/canonical.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "huffman/length_limited.h"
#include "huffman/offsets.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "simd/simd.h"
#include "sre/arena.h"
#include "workload/corpus.h"

namespace {

const std::vector<std::uint8_t>& txt_1mb() {
  static const auto data = wl::make_corpus(wl::FileKind::Txt, 1 << 20);
  return data;
}

void BM_CountBlock(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto block =
      std::span(data).first(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::Histogram::of(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CountBlock)->Arg(4096)->Arg(65536);

void BM_ReduceHistograms(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<huff::Histogram> hists(n);
  for (std::size_t i = 0; i < n; ++i) {
    hists[i] = huff::Histogram::of(std::span(data).subspan(i * 4096, 4096));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::Histogram::merged(hists));
  }
}
BENCHMARK(BM_ReduceHistograms)->Arg(8)->Arg(16)->Arg(64);

void BM_TreeBuild(benchmark::State& state) {
  const auto hist = huff::Histogram::of(txt_1mb()).with_floor(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::HuffmanTree::build(hist));
  }
}
BENCHMARK(BM_TreeBuild);

void BM_CanonicalTable(benchmark::State& state) {
  const auto lengths =
      huff::HuffmanTree::build(huff::Histogram::of(txt_1mb()).with_floor(1))
          .lengths();
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::CodeTable::from_lengths(lengths));
  }
}
BENCHMARK(BM_CanonicalTable);

void BM_EncodeBlock(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto table = huff::CodeTable::from_histogram(huff::Histogram::of(data));
  const auto block =
      std::span(data).first(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::encode_block(block, table));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodeBlock)->Arg(4096)->Arg(65536);

void BM_OffsetGroup(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto table = huff::CodeTable::from_histogram(huff::Histogram::of(data));
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<huff::Histogram> hists(n);
  for (std::size_t i = 0; i < n; ++i) {
    hists[i] = huff::Histogram::of(std::span(data).subspan(i * 4096, 4096));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::compute_offsets(hists, table, 0));
  }
}
BENCHMARK(BM_OffsetGroup)->Arg(16)->Arg(64);

void BM_CheckTask(benchmark::State& state) {
  // The tolerance check: two encoded_bits evaluations plus a comparison —
  // "Check tasks are simple and run very quickly" (paper §IV-B).
  const auto& data = txt_1mb();
  const auto hist = huff::Histogram::of(data);
  const auto guess = huff::CodeTable::from_histogram(
      huff::Histogram::of(std::span(data).first(65536)).with_floor(1));
  const auto current = huff::CodeTable::from_histogram(hist.with_floor(1));
  for (auto _ : state) {
    const auto a = guess.encoded_bits(hist);
    const auto b = current.encoded_bits(hist);
    benchmark::DoNotOptimize(a > b ? a - b : b - a);
  }
}
BENCHMARK(BM_CheckTask);

void BM_FastDecodeBlock(benchmark::State& state) {
  // Random-access decode of one 4 KiB block as the container path does it:
  // unlimited codes from the pipeline's floored histogram (its rarest codes
  // are longer than the decoder's table), one Decoder per container.
  const auto kind = static_cast<wl::FileKind>(state.range(0));
  const auto data = wl::make_corpus(kind, 1 << 20, 1);
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  const auto block = std::span(data).first(4096);
  const auto enc = huff::encode_block(block, table);
  const huff::Decoder decoder(table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(enc.bits, block.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_FastDecodeBlock)->Arg(0)->Arg(1)->Arg(2);

void BM_PackageMerge(benchmark::State& state) {
  const auto hist = huff::Histogram::of(txt_1mb()).with_floor(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::build_limited_lengths(hist, 12));
  }
}
BENCHMARK(BM_PackageMerge);

void BM_CompressBufferEndToEnd(benchmark::State& state) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 256 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::compress_buffer(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CompressBufferEndToEnd);

void BM_WorkloadGeneration(benchmark::State& state) {
  const auto kind = static_cast<wl::FileKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl::make_corpus(kind, 256 * 1024, 1));
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(0)->Arg(1)->Arg(2);

// --- Kernel sweep (--kernels) ----------------------------------------------

using Clock = std::chrono::steady_clock;
using tvs::simd::Level;

/// One timed trial: process `block` `reps` times at the active dispatch
/// level; returns seconds.
template <typename Fn>
double trial_seconds(Fn&& fn, std::size_t reps) {
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    fn();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SweepRow {
  const char* kernel;
  const char* variant;
  std::size_t block_size;
  double mb_per_s;        // best-of-N for the variant
  double ratio_median;    // median of per-pair scalar_time / variant_time
  std::size_t pairs;
};

/// Paired-ratio measurement of `fn` at `lvl` against the same `fn` at
/// Scalar: trials interleave baseline/variant so slow drift (thermal,
/// noisy neighbours) cancels in each pair's ratio.
template <typename Fn>
SweepRow sweep_one(const char* kernel, Level lvl, std::size_t block_size,
                   std::size_t bytes_per_trial, Fn&& fn) {
  constexpr std::size_t kPairs = 9;
  const std::size_t reps = std::max<std::size_t>(1, bytes_per_trial / block_size);
  std::vector<double> ratios;
  ratios.reserve(kPairs);
  double best_variant = 1e300;
  // Warm both paths (page in the corpus, prime the freelists).
  tvs::simd::force(Level::Scalar);
  (void)trial_seconds(fn, std::max<std::size_t>(1, reps / 8));
  tvs::simd::force(lvl);
  (void)trial_seconds(fn, std::max<std::size_t>(1, reps / 8));
  for (std::size_t p = 0; p < kPairs; ++p) {
    tvs::simd::force(Level::Scalar);
    const double base = trial_seconds(fn, reps);
    tvs::simd::force(lvl);
    const double var = trial_seconds(fn, reps);
    ratios.push_back(base / var);
    best_variant = std::min(best_variant, var);
  }
  tvs::simd::clear_force();
  std::sort(ratios.begin(), ratios.end());
  const double mb = static_cast<double>(reps * block_size) / (1 << 20);
  return {kernel,
          tvs::simd::name(lvl),
          block_size,
          mb / best_variant,
          ratios[ratios.size() / 2],
          kPairs};
}

/// Steady-state allocation cost of the arena encode path: encode `epochs`
/// full epochs of blocks into per-worker lanes and report chunk mallocs per
/// block after the first (warm-up) epoch.
struct AllocRow {
  double arena_chunk_mallocs_per_block;
  double arena_bump_allocs_per_block;
  double heap_allocs_per_block;  // encode_block: exact-size vector, by construction
  std::size_t blocks;
};

AllocRow measure_allocs(std::span<const std::uint8_t> data,
                        std::size_t block_size) {
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  auto pool = std::make_shared<sre::ChunkPool>();
  const std::size_t nblocks = data.size() / block_size;
  constexpr std::size_t kEpochs = 8;
  sre::ArenaStats after_warm;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    auto arenas = std::make_shared<sre::EpochArenas>(pool, e);
    for (std::size_t b = 0; b < nblocks; ++b) {
      const auto block = data.subspan(b * block_size, block_size);
      const auto hist = huff::Histogram::of(block);
      auto out = arenas->lane(0).alloc_bytes((table.encoded_bits(hist) + 7) / 8);
      benchmark::DoNotOptimize(
          huff::encode_block_into(block, table, out, arenas));
    }
    if (e == 0) after_warm = pool->stats();
  }
  const auto st = pool->stats();
  const auto steady_blocks = static_cast<double>(nblocks * (kEpochs - 1));
  return {static_cast<double>(st.chunks_new - after_warm.chunks_new) /
              steady_blocks,
          static_cast<double>(st.allocs - after_warm.allocs) / steady_blocks,
          1.0, nblocks * kEpochs};
}

#ifndef TVS_BUILD_TYPE
#define TVS_BUILD_TYPE "unknown"
#endif

/// Random-access decode of every 4 KiB block of a 1 MiB corpus, one Decoder
/// per container as decode_block serves it; median and best of 9 trials.
struct DecodeRow {
  std::string corpus;
  std::size_t block_size;
  double mb_per_s_median;
  double mb_per_s_best;
  std::size_t trials;
};

DecodeRow sweep_decode(wl::FileKind kind) {
  constexpr std::size_t kTrials = 9;
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kPassesPerTrial = 8;
  const auto data = wl::make_corpus(kind, 1 << 20, 1);
  const auto cs = huff::deserialize(huff::compress_buffer(data, kBlock));
  const huff::Decoder decoder(cs.table());
  const auto pass = [&] {
    for (std::size_t i = 0; i < cs.n_blocks; ++i) {
      benchmark::DoNotOptimize(huff::decode_block(cs, decoder, i));
    }
  };
  (void)trial_seconds(pass, 1);
  std::vector<double> mbps;
  const double mb = static_cast<double>(kPassesPerTrial * data.size()) / (1 << 20);
  for (std::size_t t = 0; t < kTrials; ++t) {
    mbps.push_back(mb / trial_seconds(pass, kPassesPerTrial));
  }
  std::sort(mbps.begin(), mbps.end());
  return {wl::to_string(kind), kBlock, mbps[kTrials / 2], mbps.back(), kTrials};
}

int run_kernel_sweep(const char* json_path) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 1 << 20);
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  std::vector<Level> levels{Level::Scalar, Level::Swar};
  if (tvs::simd::detect() == Level::Avx2) {
    levels.push_back(Level::Avx2);
  }
  const std::size_t block_sizes[] = {4096, 16384, 65536, 262144};
  constexpr std::size_t kBytesPerTrial = std::size_t{8} << 20;

  std::vector<SweepRow> rows;
  for (std::size_t bs : block_sizes) {
    const auto block = std::span(data).first(bs);
    for (Level lvl : levels) {
      rows.push_back(sweep_one("histogram", lvl, bs, kBytesPerTrial, [&] {
        benchmark::DoNotOptimize(huff::Histogram::of(block));
      }));
      rows.push_back(sweep_one("encode", lvl, bs, kBytesPerTrial, [&] {
        benchmark::DoNotOptimize(huff::encode_block(block, table));
      }));
      // Pipeline-shaped encode: output pre-sized from the block's histogram
      // (the Count product), as the arena path in huffman_pipeline does —
      // no sizing pass over the data and no zero-initialized vector.
      const auto out_store = std::make_shared<std::vector<std::uint8_t>>(
          (table.encoded_bits(huff::Histogram::of(block)) + 7) / 8);
      rows.push_back(sweep_one("encode_arena", lvl, bs, kBytesPerTrial, [&] {
        benchmark::DoNotOptimize(huff::encode_block_into(
            block, table, {out_store->data(), out_store->size()}, out_store));
      }));
    }
  }
  const AllocRow allocs = measure_allocs(data, 4096);
  std::vector<DecodeRow> decode_rows;
  for (wl::FileKind kind : wl::all_kinds()) {
    decode_rows.push_back(sweep_decode(kind));
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  std::printf("kernel sweep (paired-ratio medians vs scalar, best-of-N MB/s)\n");
  std::printf("%-10s %-7s %9s %12s %8s\n", "kernel", "variant", "block",
              "MB/s", "ratio");
  for (const auto& r : rows) {
    std::printf("%-10s %-7s %9zu %12.1f %7.2fx\n", r.kernel, r.variant,
                r.block_size, r.mb_per_s, r.ratio_median);
  }
  std::printf(
      "arena encode path: %.4f chunk mallocs/block, %.2f bump allocs/block "
      "over %zu blocks (heap path: %.1f vector alloc/block by construction)\n",
      allocs.arena_chunk_mallocs_per_block, allocs.arena_bump_allocs_per_block,
      allocs.blocks, allocs.heap_allocs_per_block);
  std::printf("decode_block, one Decoder per container (median/best MB/s)\n");
  for (const auto& r : decode_rows) {
    std::printf("decode     %-7s %9zu %12.1f %8.1f\n", r.corpus.c_str(),
                r.block_size, r.mb_per_s_median, r.mb_per_s_best);
  }
  std::printf("nproc %u, build type %s\n", nproc, TVS_BUILD_TYPE);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"kernels\",\n"
                 "  \"nproc\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"method\": \"paired-ratio medians vs scalar; "
                 "best-of-%d MB/s\",\n  \"results\": [\n",
                 nproc, TVS_BUILD_TYPE, 9);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                   "\"block_size\": %zu, \"mb_per_s\": %.1f, "
                   "\"ratio_vs_scalar_median\": %.3f, \"pairs\": %zu}%s\n",
                   r.kernel, r.variant, r.block_size, r.mb_per_s,
                   r.ratio_median, r.pairs, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"decode\": [\n");
    for (std::size_t i = 0; i < decode_rows.size(); ++i) {
      const auto& r = decode_rows[i];
      std::fprintf(f,
                   "    {\"kernel\": \"decode_block\", \"corpus\": \"%s\", "
                   "\"block_size\": %zu, \"mb_per_s_median\": %.1f, "
                   "\"mb_per_s_best\": %.1f, \"trials\": %zu}%s\n",
                   r.corpus.c_str(), r.block_size, r.mb_per_s_median,
                   r.mb_per_s_best, r.trials,
                   i + 1 < decode_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"allocations\": {\"arena_chunk_mallocs_per_block\": "
                 "%.5f, \"arena_bump_allocs_per_block\": %.2f, "
                 "\"heap_allocs_per_block\": %.1f, \"blocks\": %zu}\n}\n",
                 allocs.arena_chunk_mallocs_per_block,
                 allocs.arena_bump_allocs_per_block,
                 allocs.heap_allocs_per_block, allocs.blocks);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool kernels = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--kernels") {
      kernels = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (kernels) {
    return run_kernel_sweep(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
