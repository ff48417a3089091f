// Per-stage work accounting for transformer inference under tensor
// parallelism. This is the quantitative core of the paper's methodology:
// "The modeling measures compute stages individually, including projection,
// MLP, and fused FlashAttention" (Section 4).
//
// All quantities are PER GPU for one forward pass over the given token shape.
// Network work is recorded as the logical all-reduce payload; the collectives
// library turns payloads into time for a given cluster.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/llm/model.h"
#include "src/llm/parallel.h"

namespace litegpu {

enum class Phase { kPrefill, kDecode };

// Work for one named stage on one GPU. `name` is a view, not a copy: every
// stage name is a string literal (static storage), so work lists and their
// timings are built and copied without allocating a name. Assign only
// literals or other storage that outlives every copy of the stage.
struct StageWork {
  std::string_view name;
  double flops = 0.0;         // multiply-accumulate FLOPs (2 per MAC)
  double weight_bytes = 0.0;  // parameter bytes streamed from HBM
  double act_bytes = 0.0;     // activation bytes read+written to HBM
  double kv_bytes = 0.0;      // KV-cache bytes read/written
  // Logical payload of the tensor-parallel all-reduce that closes this stage
  // (0 when the stage needs no collective).
  double allreduce_bytes = 0.0;

  double HbmBytes() const { return weight_bytes + act_bytes + kv_bytes; }
  // Arithmetic intensity vs HBM (FLOP per byte); 0 when no HBM traffic.
  double OperationalIntensity() const;
};

// Token shape of one forward pass.
struct PassShape {
  int batch = 1;           // sequences in the batch
  int new_tokens = 1;      // tokens processed per sequence (prompt len or 1)
  int context_tokens = 0;  // KV-cache tokens already present per sequence
};

// The four per-layer stages (qkv_proj, attention, out_proj, mlp) for one
// transformer layer.
std::vector<StageWork> LayerStages(const TransformerSpec& model, const TpPlan& plan,
                                   Phase phase, const PassShape& shape);

// Whole-model work: the per-layer stages (times num_layers) plus embedding
// lookup and LM head.
struct ModelWork {
  std::vector<StageWork> layer_stages;
  int num_layers = 0;
  StageWork embedding;
  StageWork lm_head;

  double TotalFlops() const;
};

ModelWork BuildModelWork(const TransformerSpec& model, const TpPlan& plan, Phase phase,
                         const PassShape& shape);

}  // namespace litegpu
