// stream_pdf_socket: one 1024-block PDF stream arriving over a paced socket
// (1 ms per 4 KiB block, the paper's socket ratios 8:1), compressed on real
// threads. Speculation, rollback and re-speculation do the work; the
// kernels do little. Because the input is paced in real time, estimates
// arrive in the same order on every run.
#include <memory>
#include <stdexcept>

#include "huffman/stream_format.h"
#include "engine.h"

namespace bench {
namespace {

constexpr double kDeadlineS = 30.0;
/// Set-up-only repetitions after each round: spread over the whole run, so
/// the median of set-up time follows the run rather than one moment of it.
constexpr int kSetupRepsPerRound = 8;
constexpr int kDecodes = 3;  // decodes of each round's container
constexpr sio::Micros kPerBlockUs = 1000;
constexpr sio::Micros kJitterUs = 160;  // Fig. 7's jitter share of the pace

/// A socket stream at the x86 socket preset, paced in real time.
double set_up(const Context& ctx, const std::string& path, Engine& e) {
  return bench::set_up(
      ctx, path,
      std::make_shared<sio::SocketArrival>(kPerBlockUs, kJitterUs,
                                           mix(ctx.seed, 7)),
      pipeline::RunConfig::x86_socket(wl::FileKind::Pdf,
                                      sre::DispatchPolicy::Balanced),
      1.0, e);
}

struct Streamed {
  std::vector<std::uint8_t> container;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> latency_ms;  ///< per block, from scheduled arrival
  std::vector<double> lag_ms;      ///< per block, injection − scheduled
  double last_commit_s = 0.0;      ///< engine time of the last commit
  double first_commit_ms = 0.0;
  double tail_ms = 0.0;            ///< last commit − last scheduled arrival
  stats::RunCounters counters;
  std::uint64_t wasted_encodes = 0;
  std::size_t spec_commits = 0;
  std::size_t wait_discarded = 0;
};

Streamed stream_once(const Context& ctx, const std::string& path) {
  Streamed r;
  Engine e;
  r.setup_s = set_up(ctx, path, e);
  {
    Deadline d("stream_pdf_socket run", kDeadlineS);
    Span s("pipeline.run");
    e.ex->run();
    r.run_s = s.stop();
  }
  {
    Span s("pipeline.validate");
    e.pl->validate_complete();
  }
  {
    Span s("pipeline.assemble");
    r.container = e.pl->assemble_output();
  }
  Span s("bench.counters");
  const auto& trace = e.pl->trace();
  std::uint64_t first = ~std::uint64_t{0};
  for (const auto& rec : trace.records()) {
    // The executor's clock starts at its construction, as does the arrival
    // schedule (scale 1), so arrival_us(i) is block i's scheduled time.
    const std::uint64_t due = e.src->arrival_us(rec.index);
    const std::uint64_t done = *rec.done_us;
    const auto late_ms = [due](std::uint64_t t) {
      return static_cast<double>(t - std::min(t, due)) / 1e3;
    };
    r.latency_ms.push_back(late_ms(done));
    r.lag_ms.push_back(late_ms(rec.arrival_us));
    first = std::min(first, done);
  }
  r.last_commit_s = static_cast<double>(trace.last_done_us()) / 1e6;
  r.first_commit_ms = static_cast<double>(first) / 1e3;
  r.tail_ms = static_cast<double>(trace.last_done_us() -
                                  e.src->last_arrival_us()) / 1e3;
  r.counters = e.rt->counters();
  r.wasted_encodes = trace.wasted_encodes();
  r.spec_commits = trace.speculative_commits();
  r.wait_discarded = e.pl->wait_discarded();
  s.stop();
  Span t("pipeline.teardown");
  e.teardown();
  return r;
}

}  // namespace

EndToEnd run_stream(const Context& ctx) {
  const std::string path = ctx.inputs + "/" + inputs::kStream;
  const auto input = load(ctx, inputs::kStream);
  const double mb = static_cast<double>(input.size()) / 1e6;

  EndToEnd e2e;
  for_rounds(ctx, [&] {
    Streamed st;
    try {
      st = stream_once(ctx, path);
    } catch (const std::exception& ex) {
      tally().fail(std::string("stream: ") + ex.what());
      return;
    }
    const std::string why = check_payload_bounds(st.container, input, 0.01);
    tally().check(why.empty(), "stream: " + why);

    std::vector<std::uint8_t> back;
    for (int k = 0; k < kDecodes; ++k) {
      const double t0 = now_s();
      try {
        back = huff::decompress_buffer(st.container);
      } catch (const std::exception& ex) {
        tally().fail(std::string("stream decode: ") + ex.what());
        return;
      }
      e2e.decompress_mbps.push_back(mb / (now_s() - t0));
    }
    tally().check(back == input, "stream decoded bytes differ from input");

    e2e.setup_s.push_back(st.setup_s);
    e2e.wall_s.push_back(st.run_s);
    e2e.compress_mbps.push_back(mb / st.last_commit_s);
    e2e.ratio.push_back(static_cast<double>(st.container.size()) /
                        static_cast<double>(input.size()));
    e2e.latency_ms.insert(e2e.latency_ms.end(), st.latency_ms.begin(),
                          st.latency_ms.end());
    if (e2e.peak_rss_mib == 0.0) e2e.peak_rss_mib = peak_rss_mib();
    for (int i = 0; i < kSetupRepsPerRound; ++i) {
      Engine e;
      e2e.setup_s.push_back(set_up(ctx, path, e));
      e.teardown();
    }
  });
  return e2e;
}

void ledger_stream(const Context& ctx, Metrics& m) {
  const std::string path = ctx.inputs + "/" + inputs::kStream;
  const auto input = load(ctx, inputs::kStream);
  Streamed st;
  {
    Span root("stream.compress");
    st = stream_once(ctx, path);
  }
  const std::string why = check_payload_bounds(st.container, input, 0.01);
  tally().check(why.empty(), "stream: " + why);

  m["io.feeder_lag_ms"] = {quantile(st.lag_ms, 0.99), "ms"};
  m["pipeline.first_commit_ms"] = {st.first_commit_ms, "ms"};
  m["pipeline.stream_tail_ms"] = {st.tail_ms, "ms"};
  const auto count = [&](const char* name, std::uint64_t v) {
    m[name] = {static_cast<double>(v), "count"};
  };
  const auto& c = st.counters;
  count("core.rollbacks", c.rollbacks);
  count("core.epochs_opened", c.epochs_opened);
  count("core.epochs_committed", c.epochs_committed);
  count("core.checks_executed", c.checks_executed);
  count("core.tasks_aborted", c.tasks_aborted);
  count("core.spec_tasks_executed", c.spec_tasks_executed);
  count("core.wasted_encodes", st.wasted_encodes);
  count("core.wait_discarded", st.wait_discarded);
  // Speculative encodes that ran = those committed plus those rolled back.
  const double ran = static_cast<double>(st.spec_commits + st.wasted_encodes);
  m["core.useful_spec_ratio"] = {
      ran == 0.0 ? 0.0 : static_cast<double>(st.spec_commits) / ran, "ratio"};
  m["core.stream_size_overhead_pct"] = {size_overhead_pct(st.container, input),
                                        "%"};
}

}  // namespace bench
