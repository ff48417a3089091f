#include "src/llm/model.h"

namespace litegpu {

uint64_t TransformerSpec::ParamsPerLayer() const {
  uint64_t h = static_cast<uint64_t>(d_model);
  uint64_t qkv = h * static_cast<uint64_t>(d_head) *
                 (static_cast<uint64_t>(num_heads) + 2ULL * static_cast<uint64_t>(num_kv_heads));
  uint64_t out_proj = static_cast<uint64_t>(num_heads) * static_cast<uint64_t>(d_head) * h;
  uint64_t ffn = static_cast<uint64_t>(ffn_matrices) * h * static_cast<uint64_t>(d_ff);
  return qkv + out_proj + ffn;
}

uint64_t TransformerSpec::ParamCount() const {
  uint64_t embed = static_cast<uint64_t>(vocab_size) * static_cast<uint64_t>(d_model);
  uint64_t lm_head = embed;  // untied
  return embed + lm_head + static_cast<uint64_t>(num_layers) * ParamsPerLayer();
}

std::string TransformerSpec::Validate() const {
  if (name.empty()) {
    return "missing name";
  }
  if (num_layers <= 0 || d_model <= 0 || num_heads <= 0 || num_kv_heads <= 0 || d_head <= 0 ||
      d_ff <= 0 || vocab_size <= 0) {
    return "all dimensions must be positive";
  }
  if (num_heads % num_kv_heads != 0) {
    return "num_heads must be a multiple of num_kv_heads";
  }
  if (num_heads * d_head != d_model) {
    return "num_heads * d_head must equal d_model";
  }
  if (ffn_matrices != 2 && ffn_matrices != 3) {
    return "ffn_matrices must be 2 (GELU) or 3 (SwiGLU)";
  }
  if (bytes_per_weight <= 0.0 || bytes_per_kv <= 0.0 || bytes_per_act <= 0.0) {
    return "datatype byte sizes must be positive";
  }
  return "";
}

TransformerSpec Llama3_8B() {
  TransformerSpec m;
  m.name = "Llama3-8B";
  m.num_layers = 32;
  m.d_model = 4096;
  m.num_heads = 32;
  m.num_kv_heads = 8;
  m.d_head = 128;
  m.d_ff = 14336;
  m.ffn_matrices = 3;
  m.vocab_size = 128256;
  return m;
}

TransformerSpec Llama3_70B() {
  TransformerSpec m;
  m.name = "Llama3-70B";
  m.num_layers = 80;
  m.d_model = 8192;
  m.num_heads = 64;
  m.num_kv_heads = 8;
  m.d_head = 128;
  m.d_ff = 28672;
  m.ffn_matrices = 3;
  m.vocab_size = 128256;
  return m;
}

TransformerSpec Gpt3_175B() {
  TransformerSpec m;
  m.name = "GPT3-175B";
  m.num_layers = 96;
  m.d_model = 12288;
  m.num_heads = 96;
  m.num_kv_heads = 96;  // MHA: every head has its own KV
  m.d_head = 128;
  m.d_ff = 49152;
  m.ffn_matrices = 2;
  m.vocab_size = 50257;
  return m;
}

TransformerSpec Llama3_405B() {
  TransformerSpec m;
  m.name = "Llama3-405B";
  m.num_layers = 126;
  m.d_model = 16384;
  m.num_heads = 128;
  m.num_kv_heads = 8;
  m.d_head = 128;
  m.d_ff = 53248;
  m.ffn_matrices = 3;
  m.vocab_size = 128256;
  return m;
}

std::vector<TransformerSpec> CaseStudyModels() {
  return {Llama3_70B(), Gpt3_175B(), Llama3_405B()};
}

std::optional<TransformerSpec> FindModel(const std::string& name) {
  for (const auto& m : {Llama3_8B(), Llama3_70B(), Gpt3_175B(), Llama3_405B()}) {
    if (m.name == name) {
      return m;
    }
  }
  return std::nullopt;
}

}  // namespace litegpu
