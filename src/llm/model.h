// Transformer model descriptions for the paper's case study (Section 4):
// Llama3-70B, GPT3-175B, Llama3-405B (plus Llama3-8B for small-model
// experiments). Architectures are from the public model cards / papers.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace litegpu {

struct TransformerSpec {
  std::string name;
  int num_layers = 0;
  int d_model = 0;
  int num_heads = 0;
  int num_kv_heads = 0;  // == num_heads for MHA (GPT3), < for GQA (Llama3)
  int d_head = 0;
  int d_ff = 0;
  // Feed-forward matrix count: 2 for GELU MLPs (GPT3: up+down), 3 for
  // SwiGLU (Llama3: gate+up+down).
  int ffn_matrices = 2;
  int vocab_size = 0;

  // Datatype sizing. The case study models FP8 end to end (H100's Table-1
  // 2000 TFLOPS is its FP8 rating): 1 byte weights, 1 byte KV cache, and
  // 1 byte activations on the wire.
  double bytes_per_weight = 1.0;
  double bytes_per_kv = 1.0;
  double bytes_per_act = 1.0;

  // Total parameter count (embeddings + per-layer weights + LM head; heads
  // untied, as in Llama3/GPT3).
  uint64_t ParamCount() const;

  // Parameters in one transformer layer (attention + MLP, no norms/bias —
  // they are < 0.1% and omitted everywhere consistently).
  uint64_t ParamsPerLayer() const;

  // Returns "" when self-consistent, else the first problem found.
  std::string Validate() const;
};

// --- case-study models (paper Section 4) ---
TransformerSpec Llama3_8B();
TransformerSpec Llama3_70B();
TransformerSpec Gpt3_175B();
TransformerSpec Llama3_405B();

// The three models evaluated in Figure 3, in the paper's order.
std::vector<TransformerSpec> CaseStudyModels();

std::optional<TransformerSpec> FindModel(const std::string& name);

}  // namespace litegpu
