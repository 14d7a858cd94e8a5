// serve_mix: one SessionManager with the flight recorder armed, as
// `tvsc serve --flight-recorder` runs it, serving a closed loop of sessions
// over pre-generated TXT, BMP and PDF files. The benchmark's one thread
// keeps kInFlight sessions submitted, waits for the oldest, releases it and
// submits the next — the pattern of a long-running service. Admission, the
// shared dispatch path, per-session epochs, arenas and release() do the
// work, and it is the only workload whose memory grows with the number of
// sessions served.
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "flight/recorder.h"
#include "huffman/stream_format.h"
#include "pipeline/run_config.h"
#include "serve/session_manager.h"
#include "workloads.h"

namespace bench {
namespace {

constexpr std::size_t kSessions = 200;  // per round, one manager per round
/// Sessions in the traced round that every traced run includes: enough for
/// per-session medians, few enough to keep the traced run's memory small.
constexpr std::size_t kLedgerSessions = 36;
constexpr std::size_t kInFlight = 3;    // closed-loop client population
constexpr std::size_t kWindow = 2;      // sessions running at once
constexpr int kSetupReps = 20;
constexpr double kSessionDeadlineS = 20.0;

wl::FileKind kind_of(const std::string& name) {
  if (name.find("bmp") != std::string::npos) return wl::FileKind::Bmp;
  if (name.find("pdf") != std::string::npos) return wl::FileKind::Pdf;
  return wl::FileKind::Txt;
}

struct Service {
  std::unique_ptr<flight::Recorder> rec;
  std::unique_ptr<serve::SessionManager> mgr;

  void teardown() {
    if (mgr) {
      Deadline d("serve_mix drain", kSessionDeadlineS);
      mgr->drain();
    }
    mgr.reset();
    if (rec) rec->stop();
  }
};

double set_up(const Context& ctx, Service& s) {
  Span span("serve.start");
  flight::Recorder::Options fopts;
  fopts.post_mortem_dir = ctx.scratch + "/flight";
  fopts.post_mortem_window_us =
      std::min<std::uint64_t>(fopts.window_us, 10'000'000);
  s.rec = std::make_unique<flight::Recorder>(fopts);
  s.rec->start();
  serve::ServiceConfig cfg;
  cfg.workers = ctx.workers;
  cfg.max_concurrent = kWindow;
  cfg.flight = s.rec.get();
  s.mgr = std::make_unique<serve::SessionManager>(cfg);
  return span.stop();
}

/// One distinct container seen for a file, checked once after the loop
/// that first produced it; every session whose output is byte-identical
/// shares its verdict.
struct Variant {
  std::size_t file = 0;
  std::vector<std::uint8_t> container;
  bool checked = false;
  std::string why;  ///< empty when the checks passed
};

struct Files {
  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> bytes;
};

struct ServeRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double bytes_in = 0.0, bytes_out = 0.0;
  double decode_s = 0.0, decode_bytes = 0.0;
  std::vector<double> latency_ms;
  std::vector<serve::SessionStats> stats;
  double rollbacks = 0.0;
  double flight_records = 0.0, flight_dropped = 0.0;
  double rss_growth_mib = 0.0;  ///< current RSS after minus before the loop
};

ServeRound serve_round(const Context& ctx, const Files& files,
                       std::vector<Variant>& variants, std::size_t sessions) {
  ServeRound r;
  Service svc;
  r.setup_s = set_up(ctx, svc);
  serve::SessionManager& mgr = *svc.mgr;
  std::vector<std::size_t> variant_of;  // per completed session

  const double rss0 = rss_mib();
  std::deque<std::pair<serve::SessionId, std::size_t>> inflight;
  std::size_t next = 0;
  const auto submit_next = [&] {
    const std::size_t f = next % files.names.size();
    serve::SessionConfig sc;
    sc.name = files.names[f] + "#" + std::to_string(next);
    sc.run = pipeline::RunConfig::x86_disk(kind_of(files.names[f]),
                                           sre::DispatchPolicy::Balanced);
    sc.run.input_path = ctx.inputs + "/" + files.names[f];
    ++next;
    const auto out = mgr.submit(std::move(sc));
    if (!out.accepted) {
      tally().fail("session shed at submit: " + out.shed_reason);
      return;
    }
    inflight.emplace_back(out.id, f);
  };

  Span loop("serve.closed_loop");
  while (next < kInFlight && next < sessions) submit_next();
  while (!inflight.empty()) {
    const auto [id, f] = inflight.front();
    inflight.pop_front();
    const pipeline::RunResult* res = nullptr;
    std::string error;
    try {
      Deadline d("serve_mix session", kSessionDeadlineS);
      res = mgr.wait(id);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const serve::SessionStats st = mgr.stats(id);
    if (!error.empty()) {
      tally().fail("session wait: " + error);
    } else if (res == nullptr || st.state != serve::SessionState::Done) {
      tally().fail("session " + st.name + " ended " +
                   serve::to_string(st.state) + " " + st.error +
                   st.shed_reason);
    } else {
      r.bytes_in += static_cast<double>(files.bytes[f].size());
      r.bytes_out += static_cast<double>(res->container.size());
      r.rollbacks += static_cast<double>(res->rollbacks);
      r.latency_ms.push_back(static_cast<double>(st.latency_us()) / 1e3);
      const auto same = [&](const Variant& var) {
        return var.file == f && var.container == res->container;
      };
      std::size_t v = 0;
      while (v < variants.size() && !same(variants[v])) ++v;
      if (v == variants.size()) {
        variants.push_back({f, res->container, false, {}});
      }
      variant_of.push_back(v);
    }
    mgr.release(id);
    if (next < sessions) submit_next();
  }
  r.wall_s = loop.stop();
  r.rss_growth_mib = rss_mib() - rss0;
  r.stats = mgr.all_sessions();
  svc.teardown();
  r.flight_records = static_cast<double>(svc.rec->window_size());
  r.flight_dropped = static_cast<double>(svc.rec->dropped());

  // Independent checks, outside the timed loop: each new distinct container
  // must decode to its file and sit within the payload bounds.
  for (auto& var : variants) {
    if (var.checked) continue;
    var.checked = true;
    const auto& input = files.bytes[var.file];
    const double t0 = now_s();
    try {
      const auto back = huff::decompress_buffer(var.container);
      var.why = back == input
                    ? check_payload_bounds(var.container, input, 0.01)
                    : "decoded bytes differ from the file";
    } catch (const std::exception& e) {
      var.why = std::string("decode failed: ") + e.what();
    }
    r.decode_s += now_s() - t0;
    r.decode_bytes += static_cast<double>(input.size());
  }
  for (std::size_t v : variant_of) {
    tally().check(variants[v].why.empty(),
                  files.names[variants[v].file] + ": " + variants[v].why);
  }
  return r;
}

Files load_files(const Context& ctx) {
  Files files;
  files.names = inputs::serve_files();
  for (const auto& n : files.names) files.bytes.push_back(load(ctx, n));
  return files;
}

}  // namespace

EndToEnd run_serve(const Context& ctx) {
  std::filesystem::create_directories(ctx.scratch + "/flight");
  const Files files = load_files(ctx);
  std::vector<Variant> variants;

  EndToEnd e2e;
  for_rounds(ctx, [&] {
    const ServeRound r = serve_round(ctx, files, variants, kSessions);
    e2e.setup_s.push_back(r.setup_s);
    e2e.wall_s.push_back(r.wall_s);
    e2e.compress_mbps.push_back(r.bytes_in / 1e6 / r.wall_s);
    if (r.decode_s > 0.0) {
      e2e.decompress_mbps.push_back(r.decode_bytes / 1e6 / r.decode_s);
    }
    e2e.ratio.push_back(r.bytes_out / r.bytes_in);
    e2e.latency_ms.insert(e2e.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    if (e2e.peak_rss_mib == 0.0) e2e.peak_rss_mib = peak_rss_mib();
  });
  for (int i = 0; i < kSetupReps; ++i) {
    Service svc;
    e2e.setup_s.push_back(set_up(ctx, svc));
    svc.teardown();
  }
  return e2e;
}

void ledger_serve(const Context& ctx, Metrics& m) {
  std::filesystem::create_directories(ctx.scratch + "/flight");
  const Files files = load_files(ctx);
  std::vector<Variant> variants;
  const ServeRound r = serve_round(ctx, files, variants, kLedgerSessions);

  std::vector<double> queue, dispatch, compute, stall, waste;
  const auto ms = [](std::uint64_t us) {
    return static_cast<double>(us) / 1e3;
  };
  for (const auto& st : r.stats) {
    if (st.state != serve::SessionState::Done) continue;
    const auto& a = st.attribution;
    queue.push_back(ms(a.queue_us));
    dispatch.push_back(ms(a.dispatch_us));
    compute.push_back(ms(a.compute_us));
    stall.push_back(ms(a.commit_stall_us));
    waste.push_back(ms(a.rollback_waste_us));
  }
  put(m, "serve.queue_ms", "ms", queue, median);
  put(m, "serve.dispatch_ms", "ms", dispatch, median);
  put(m, "serve.compute_ms", "ms", compute, median);
  put(m, "serve.commit_stall_ms", "ms", stall, median);
  put(m, "serve.rollback_waste_ms", "ms", waste, median);
  const double n = static_cast<double>(r.latency_ms.size());
  m["serve.rollbacks_per_session"] = {n == 0.0 ? 0.0 : r.rollbacks / n,
                                      "count"};
  m["serve.rss_mb_per_100_sessions"] = {
      n == 0.0 ? 0.0 : r.rss_growth_mib / n * 100.0, "MiB"};
  m["serve.distinct_outputs"] = {static_cast<double>(variants.size()), "count"};
  m["flight.records"] = {r.flight_records, "count"};
  m["flight.dropped"] = {r.flight_dropped, "count"};
}

}  // namespace bench
