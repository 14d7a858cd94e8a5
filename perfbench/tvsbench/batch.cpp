// batch_txt: compress, then decompress, a 64 MiB text file the way `tvsc c`
// and `tvsc d` do, back to back, plus sampled random-access block reads of
// the written container. The kernels, the serial reduce/offset chain,
// container assembly and the serial decoder do the work; text rolls back
// (almost) never, so speculation does little.
#include <memory>
#include <stdexcept>

#include "huffman/canonical.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "huffman/histogram.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "engine.h"

namespace bench {
namespace {

constexpr double kDeadlineS = 60.0;
constexpr int kSetupReps = 20;      // set-up-only repetitions per run
constexpr std::size_t kReads = 1024; // random-access block reads per round

/// `tvsc c`'s set-up: disk arrivals, the x86 disk preset, arrival scale 0.
double set_up(const Context& ctx, const std::string& path, Engine& e) {
  return bench::set_up(ctx, path, std::make_shared<sio::DiskArrival>(2),
                       pipeline::RunConfig::x86_disk(
                           wl::FileKind::Txt, sre::DispatchPolicy::Balanced),
                       0.0, e);
}

/// What one compress leaves behind for checks and the ledger.
struct Compressed {
  std::vector<std::uint8_t> container;
  double setup_s = 0.0;
  double compress_s = 0.0;  ///< map → container written
  double teardown_s = 0.0;
  double run_s = 0.0;
  double busy_cores = 0.0;
  double tail_ms = 0.0;     ///< last commit minus last arrival (engine time)
  stats::RunCounters counters;
  sre::ThreadedExecutor::DispatchStats dispatch;
  std::uint64_t natural_pops = 0, spec_pops = 0, control_pops = 0;
  sre::ArenaStats arena;
};

Compressed compress(const Context& ctx, const std::string& in,
                    const std::string& out) {
  Compressed r;
  Engine e;
  const double t0 = now_s();
  r.setup_s = set_up(ctx, in, e);
  {
    Deadline d("batch_txt compress", kDeadlineS);
    Span s("pipeline.run");
    const double cpu0 = process_cpu_s();
    e.ex->run();
    r.run_s = s.stop();
    r.busy_cores = (process_cpu_s() - cpu0) / r.run_s;
  }
  {
    Span s("pipeline.validate");
    e.pl->validate_complete();
  }
  {
    Span s("pipeline.assemble");
    r.container = e.pl->assemble_output();
  }
  {
    Span s("pipeline.write");
    huff::write_file(out, r.container);
  }
  r.compress_s = now_s() - t0;
  {
    Span s("bench.counters");
    const auto& trace = e.pl->trace();
    std::uint64_t last_arrival = 0;
    for (const auto& rec : trace.records()) {
      last_arrival = std::max(last_arrival, rec.arrival_us);
    }
    r.tail_ms = static_cast<double>(trace.last_done_us() - last_arrival) / 1e3;
    r.counters = e.rt->counters();
    r.dispatch = e.ex->dispatch_stats();
    r.natural_pops = e.rt->pool().natural_pops();
    r.spec_pops = e.rt->pool().speculative_pops();
    r.control_pops = e.rt->pool().control_pops();
    r.arena = e.rt->arena_stats();
  }
  Span s("pipeline.teardown");
  e.teardown();
  r.teardown_s = s.stop();
  return r;
}

/// `tvsc d`: read the container back and decode it. Returns seconds.
double decompress(const std::string& path, std::vector<std::uint8_t>& out) {
  const double t0 = now_s();
  std::vector<std::uint8_t> container;
  {
    Span s("io.read_file");
    container = huff::read_file(path);
  }
  Span s("huffman.decompress_buffer");
  out = huff::decompress_buffer(container);
  s.stop();
  return now_s() - t0;
}

/// Random-access reads of sampled blocks; each is one checked operation
/// and one latency sample.
void sampled_reads(const Context& ctx, std::uint64_t round,
                   const std::vector<std::uint8_t>& container,
                   std::span<const std::uint8_t> input,
                   std::vector<double>& latency_ms) {
  const huff::CompressedStream cs = huff::deserialize(container);
  for (std::size_t k = 0; k < kReads; ++k) {
    const std::size_t i = mix(ctx.seed, round * kReads + k) % cs.n_blocks;
    const std::size_t begin = i * cs.block_size;
    const std::size_t len = std::min<std::size_t>(cs.block_size,
                                                  input.size() - begin);
    const double t0 = now_s();
    std::vector<std::uint8_t> block;
    try {
      block = huff::decode_block(cs, i);
    } catch (const std::exception& e) {
      tally().fail("decode_block " + std::to_string(i) + ": " + e.what());
      continue;
    }
    latency_ms.push_back((now_s() - t0) * 1e3);
    tally().check(block.size() == len &&
                      std::equal(block.begin(), block.end(),
                                 input.begin() + static_cast<long>(begin)),
                  "decode_block " + std::to_string(i) + " differs from input");
  }
}

}  // namespace

EndToEnd run_batch(const Context& ctx) {
  const std::string in = ctx.inputs + "/" + inputs::kBatch;
  const std::string out = ctx.scratch + "/batch.tvsh";
  const auto input = load(ctx, inputs::kBatch);
  const double mb = static_cast<double>(input.size()) / 1e6;

  EndToEnd e2e;
  std::uint64_t round = 0;
  for_rounds(ctx, [&] {
    Compressed c;
    try {
      c = compress(ctx, in, out);
    } catch (const std::exception& ex) {
      tally().fail(std::string("compress: ") + ex.what());
      return;
    }
    const std::string why = check_payload_bounds(c.container, input, 0.01);
    tally().check(why.empty(), "compress: " + why);

    std::vector<std::uint8_t> back;
    double d_s = 0.0;
    try {
      Deadline d("batch_txt decompress", kDeadlineS);
      d_s = decompress(out, back);
    } catch (const std::exception& ex) {
      tally().fail(std::string("decompress: ") + ex.what());
      return;
    }
    tally().check(back == input, "decompressed bytes differ from input");
    if (why.empty()) {
      sampled_reads(ctx, round++, c.container, input, e2e.latency_ms);
    }

    e2e.setup_s.push_back(c.setup_s);
    e2e.wall_s.push_back(c.compress_s + c.teardown_s + d_s);
    e2e.compress_mbps.push_back(mb / c.compress_s);
    e2e.decompress_mbps.push_back(mb / d_s);
    e2e.ratio.push_back(static_cast<double>(c.container.size()) /
                        static_cast<double>(input.size()));
    if (e2e.peak_rss_mib == 0.0) e2e.peak_rss_mib = peak_rss_mib();
  });
  for (int i = 0; i < kSetupReps; ++i) {
    Engine e;
    e2e.setup_s.push_back(set_up(ctx, in, e));
    e.teardown();
  }
  return e2e;
}

void ledger_batch(const Context& ctx, Metrics& m) {
  const std::string in = ctx.inputs + "/" + inputs::kBatch;
  const std::string out = ctx.scratch + "/batch.tvsh";
  const auto input = load(ctx, inputs::kBatch);
  Tracer& tracer = Tracer::get();

  Compressed c;
  {
    Span root("batch.compress");
    c = compress(ctx, in, out);
  }
  const int root = tracer.last("batch.compress");
  const auto ms = [&](const char* name) { return tracer.total_ms(name); };
  m["io.map_ms"] = {ms("io.map_file"), "ms"};
  m["pipeline.build_ms"] = {ms("pipeline.build"), "ms"};
  m["pipeline.run_ms"] = {ms("pipeline.run"), "ms"};
  m["pipeline.validate_ms"] = {ms("pipeline.validate"), "ms"};
  m["pipeline.assemble_ms"] = {ms("pipeline.assemble"), "ms"};
  m["pipeline.write_ms"] = {ms("pipeline.write"), "ms"};
  m["pipeline.teardown_ms"] = {ms("pipeline.teardown"), "ms"};
  m["pipeline.counters_ms"] = {ms("bench.counters"), "ms"};
  // The layers above are the direct children of the compress span; what
  // they do not cover is the remainder of the ledger.
  m["pipeline.unexplained_ms"] = {tracer.self_ms(root), "ms"};
  m["pipeline.total_ms"] = {tracer.durations_ms("batch.compress").back(),
                            "ms"};
  m["pipeline.busy_cores"] = {c.busy_cores, "cores"};
  m["pipeline.tail_ms"] = {c.tail_ms, "ms"};
  const std::string why = check_payload_bounds(c.container, input, 0.01);
  tally().check(why.empty(), "compress: " + why);
  m["core.size_overhead_pct"] = {size_overhead_pct(c.container, input), "%"};

  const auto count = [&](const char* name, std::uint64_t v) {
    m[name] = {static_cast<double>(v), "count"};
  };
  const auto& d = c.dispatch;
  count("sre.tasks_executed", c.counters.tasks_executed);
  count("sre.dispatch.local_pops", d.local_pops);
  count("sre.dispatch.inbox_pops", d.inbox_pops);
  count("sre.dispatch.steals", d.steals);
  count("sre.dispatch.self_stages", d.self_stages);
  count("sre.dispatch.director_stages", d.director_stages);
  count("sre.dispatch.parks", d.parks);
  count("sre.dispatch.worker_retires", d.worker_retires);
  count("sre.dispatch.revoked_at_pop", d.revoked_at_pop);
  count("sre.pool.natural_pops", c.natural_pops);
  count("sre.pool.spec_pops", c.spec_pops);
  count("sre.pool.control_pops", c.control_pops);
  count("sre.arena.chunks_new", c.arena.chunks_new);
  count("sre.arena.chunks_reused", c.arena.chunks_reused);
  m["sre.arena.mb"] = {static_cast<double>(c.arena.bytes) / 1e6, "MB"};

  // Standalone kernels on one thread over the same input.
  const std::size_t bs = sio::kDefaultBlockSize;
  const std::size_t n_blocks = (input.size() + bs - 1) / bs;
  const auto block = [&](std::size_t i) {
    return std::span<const std::uint8_t>(input).subspan(
        i * bs, std::min(bs, input.size() - i * bs));
  };
  const double mb = static_cast<double>(input.size()) / 1e6;
  huff::Histogram hist;
  {
    Span s("huffman.count");
    for (std::size_t i = 0; i < n_blocks; ++i) hist.count(block(i));
    m["huffman.count_mbps"] = {mb / s.stop(), "MB/s"};
  }
  std::vector<double> tree_us;
  huff::CodeTable table;
  for (int rep = 0; rep < 64; ++rep) {
    Span s("huffman.tree");
    table = huff::CodeTable::from_lengths(
        huff::HuffmanTree::build(hist.with_floor(1)).lengths());
    tree_us.push_back(s.stop() * 1e6);
  }
  m["huffman.tree_us"] = {median(tree_us), "us"};
  {
    Span s("huffman.encode");
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < n_blocks; ++i) {
      bits += huff::encode_block(block(i), table).bit_count;
    }
    m["huffman.encode_mbps"] = {mb / s.stop(), "MB/s"};
    if (bits == 0) tally().fail("standalone encode produced no bits");
  }
  const huff::CompressedStream cs = huff::deserialize(c.container);
  {
    const huff::Decoder dec(cs.table());
    Span s("huffman.decode");
    const auto back = dec.decode(cs.payload, input.size());
    m["huffman.decode_mbps"] = {mb / s.stop(), "MB/s"};
    tally().check(back == input, "standalone decode differs from input");
  }
  std::vector<double> lat;
  {
    Span s("huffman.decode_block");
    sampled_reads(ctx, 0, c.container, input, lat);
  }
  for (double& x : lat) x *= 1e3;
  m["huffman.decode_block_us"] = {median(lat), "us"};
}

}  // namespace bench
