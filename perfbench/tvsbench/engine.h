// One Huffman pipeline on real threads, built from public calls the way
// `tvsc c` builds it: map the input, then the runtime, the executor and the
// pipeline, then every block's arrival. batch_txt and stream_pdf_socket
// differ only in the arrival model, the preset and the arrival scale.
#pragma once

#include <memory>
#include <string>

#include "io/block_source.h"
#include "pipeline/huffman_pipeline.h"
#include "pipeline/run_config.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"
#include "workloads.h"

namespace bench {

/// The live objects of one compress, in construction order.
struct Engine {
  std::unique_ptr<sio::BlockSource> src;
  std::unique_ptr<sre::Runtime> rt;
  std::unique_ptr<sre::ThreadedExecutor> ex;
  std::unique_ptr<pipeline::HuffmanPipeline> pl;

  /// Destroys in reverse: the pipeline's tasks read the source and the
  /// executor's threads touch the runtime.
  void teardown();
};

/// Builds `e` for `path` under spans "io.map_file" and "pipeline.build";
/// returns the seconds spent (the set-up time).
double set_up(const Context& ctx, const std::string& path,
              std::shared_ptr<const sio::ArrivalModel> arrivals,
              const pipeline::RunConfig& cfg, double arrival_scale, Engine& e);

}  // namespace bench
