#ifndef BASM_NN_MLP_H_
#define BASM_NN_MLP_H_

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace basm::nn {

/// Stack of Linear (+ optional BatchNorm) + activation layers. The final
/// layer has no activation or BN, so an MLP ending in 1 unit yields logits.
class Mlp : public Module {
 public:
  /// `dims` includes input and output sizes, e.g. {80, 64, 32, 1}.
  Mlp(std::vector<int64_t> dims, Activation act, Rng& rng,
      bool batch_norm = false);

  autograd::Variable Forward(const autograd::Variable& x);

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  const Linear& layer(int64_t i) const { return *layers_.at(i); }
  Activation activation() const { return act_; }

 private:
  Activation act_;
  bool batch_norm_;
  std::vector<std::unique_ptr<Linear>> layers_;
  std::vector<std::unique_ptr<BatchNorm1d>> norms_;
};

}  // namespace basm::nn

#endif  // BASM_NN_MLP_H_
