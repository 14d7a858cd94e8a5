#include "engine.h"

namespace bench {

void Engine::teardown() {
  pl.reset();
  ex.reset();
  rt.reset();
  src.reset();
}

double set_up(const Context& ctx, const std::string& path,
              std::shared_ptr<const sio::ArrivalModel> arrivals,
              const pipeline::RunConfig& cfg, double arrival_scale,
              Engine& e) {
  const double t0 = now_s();
  {
    Span s("io.map_file");
    e.src = std::make_unique<sio::BlockSource>(sio::BlockSource::map_file(
        path, cfg.ratios.block_size, std::move(arrivals)));
  }
  Span s("pipeline.build");
  e.rt = std::make_unique<sre::Runtime>(cfg.policy);
  sre::ThreadedExecutor::Options topts;
  topts.workers = ctx.workers;
  topts.arrival_time_scale = arrival_scale;
  e.ex = std::make_unique<sre::ThreadedExecutor>(*e.rt, topts);
  e.pl = std::make_unique<pipeline::HuffmanPipeline>(*e.rt, *e.src, cfg);
  pipeline::HuffmanPipeline* pl = e.pl.get();
  e.src->for_each_arrival([&](std::size_t i, sio::Micros at) {
    e.ex->schedule_arrival(at, [pl, i](std::uint64_t now) {
      pl->on_block_arrival(i, now);
    });
  });
  s.stop();
  return now_s() - t0;
}

}  // namespace bench
