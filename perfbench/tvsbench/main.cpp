// tvsbench: the end-to-end benchmark of the speculative streaming runtime.
//
//   tvsbench gen --workload <w|all> --seed <n> --dir <inputs>
//       writes the workload's input files, derived from the seed;
//   tvsbench run --workload <w> --seed <n> --seconds <s> --trace <0|1>
//                --inputs <dir> --scratch <dir>
//       measures one workload and prints the result object as the last
//       line of standard output. --trace 1 instead runs one traced
//       repetition of every workload (serve_mix with a shorter closed
//       loop), writes the spans as one Chrome-trace file into the scratch
//       directory and prints the per-layer metrics.
//
// perfbench/run.py builds this program and drives both steps.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "simd/simd.h"
#include "workloads.h"

#ifndef TVSBENCH_BUILD_TYPE
#define TVSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bench;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      die("bad flag " + std::string(argv[i]));
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) die("missing --" + key);
  return it->second;
}

using RunFn = EndToEnd (*)(const Context&);
using LedgerFn = void (*)(const Context&, Metrics&);

struct Workload {
  const char* name;
  RunFn run;
  LedgerFn ledger;
};

constexpr Workload kWorkloads[] = {
    {"batch_txt", run_batch, ledger_batch},
    {"stream_pdf_socket", run_stream, ledger_stream},
    {"serve_mix", run_serve, ledger_serve},
    {"paper_sim", run_sim, ledger_sim},
};

const Workload& find(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  die("unknown workload " + name);
}

int run(const std::map<std::string, std::string>& flags) {
  Context ctx;
  const std::string workload = need(flags, "workload");
  ctx.seed = std::strtoull(need(flags, "seed").c_str(), nullptr, 10);
  ctx.seconds = std::strtod(need(flags, "seconds").c_str(), nullptr);
  const bool trace = need(flags, "trace") == "1";
  ctx.inputs = need(flags, "inputs");
  ctx.scratch = need(flags, "scratch");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // The feeder and director threads take two cores; workers get the rest.
  ctx.workers = nproc > 3 ? nproc - 2 : 1;
  const Workload& w = find(workload);

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", w.name,
              static_cast<unsigned long long>(ctx.seed), ctx.seconds,
              trace ? 1 : 0);
  std::printf("nproc %u, build %s, simd %s, runtime workers %u "
              "(+ feeder + director)\n",
              nproc, TVSBENCH_BUILD_TYPE,
              tvs::simd::name(tvs::simd::active()), ctx.workers);
  std::fflush(stdout);

  Metrics m;
  if (trace) {
    Tracer::get().set_enabled(true);
    for (const auto& each : kWorkloads) each.ledger(ctx, m);
    const std::string path = ctx.scratch + "/trace-" + workload + "-" +
                             std::to_string(ctx.seed) + ".json";
    if (!Tracer::get().write_chrome_trace(path)) die("cannot write " + path);
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                Tracer::get().records().size());
  } else {
    m = w.run(ctx).metrics();
  }
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  print_result(tally(), m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: tvsbench gen|run --flag value ...");
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv);
  try {
    if (cmd == "gen") {
      inputs::generate(need(flags, "workload"),
                       std::strtoull(need(flags, "seed").c_str(), nullptr, 10),
                       need(flags, "dir"));
      return 0;
    }
    if (cmd == "run") return run(flags);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command " + cmd);
}
