// Correctness checks the benchmark applies to the program's outputs in
// every run, outside the timed window. Each compares against an independent
// computation or a property the method must have, never a stored copy of
// an earlier output.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "src/core/models/model.h"
#include "src/serve/server.h"
#include "src/tensor/tensor.h"

namespace perfbench {

struct CheckResult {
  bool ok = true;
  std::string detail;  // The first failure, or a one-line summary.
  double max_error = 0.0;
};

// Eval-mode logits of the 2-layer GCN the program trains (hidden ReLU, no
// dropout), evaluated in double from the benchmark's own edge list:
// per layer h·W, then the sum over in-edges of norm_u · row_u, then the
// bias, then ReLU on the hidden layer. `weights[l]` is [in, out] and
// `biases[l]` is [out]. Also returns, per output element, the sum of the
// absolute values of every term that enters it, which bounds float32
// rounding error.
void GcnReference(const GeneratedInput& input, const std::vector<seastar::Tensor>& weights,
                  const std::vector<seastar::Tensor>& biases, std::vector<double>* logits,
                  std::vector<double>* magnitude);

// Relative tolerance against the magnitude GcnReference reports. Float32
// rounding over these sums stays below 1e-7 of the magnitude on the
// workloads' inputs; the tolerance leaves ten times that as headroom.
inline constexpr double kGcnRtol = 1e-6;
inline constexpr double kGcnAtol = 1e-6;

// `logits` ([N, C] float) within kGcnAtol + kGcnRtol * magnitude of the
// double reference, element by element.
CheckResult CheckGcnLogits(const GeneratedInput& input, const std::vector<seastar::Tensor>& weights,
                           const std::vector<seastar::Tensor>& biases,
                           const seastar::Tensor& logits);

// |actual - expected| <= atol + rtol * |expected| for every element, and
// equal shapes. `name` labels the failure.
CheckResult CheckClose(const std::string& name, const seastar::Tensor& actual,
                       const seastar::Tensor& expected, double atol, double rtol);

// Seastar-vs-PyG-like tolerance for GAT logits and gradients: the two
// executors sum edges in different orders in float32.
inline constexpr double kGatAtol = 1e-5;
inline constexpr double kGatRtol = 1e-4;

// Logits and parameter gradients of one dropout-free training step.
struct StepOutputs {
  seastar::Tensor logits;
  std::vector<seastar::Tensor> grads;  // In Parameters() order.
};

// Runs Forward(false), the NLL loss over the train mask, and Backward, after
// clearing the gradients; leaves the parameters unchanged.
StepOutputs DropoutFreeStep(seastar::GnnModel& model, const seastar::Dataset& data);

// The step of the model under test against the same model, with identical
// parameters, on a reference executor: logits and every gradient within
// kGatAtol + kGatRtol * |reference|.
CheckResult CheckStepOutputs(const StepOutputs& actual, const StepOutputs& reference);

// Every served answer equals, bit for bit, the row of `full_logits` ([N, C])
// for the vertex it asked for. `answers` holds one row of C floats per
// request, in the order of `vertices`.
CheckResult CheckServedRows(const seastar::Tensor& full_logits,
                            const std::vector<int32_t>& vertices,
                            const std::vector<float>& answers);

// What the benchmark itself counted for the requests it sent.
struct ServeTally {
  int64_t submitted = 0;
  int64_t served = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t failed = 0;
};

// The benchmark's tallies equal the server's, the accounting identity
// submitted == served + degraded + shed + expired + failed holds, and no
// request was degraded, shed, expired or failed.
CheckResult CheckServeTallies(const ServeTally& tally, const seastar::serve::ServerStats& stats);

// Training made progress: the final loss is below the first.
CheckResult CheckLossDecreased(double first, double last);

// Mean and maximum in-degree of an edge list.
struct DegreeSummary {
  double mean = 0.0;
  int64_t max = 0;
};
DegreeSummary SummarizeInDegrees(int64_t num_vertices, const std::vector<int32_t>& dst);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
