#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/tensor/autograd.h"

namespace perfbench {
namespace {

std::string Where(const std::string& name, int64_t index, double actual, double expected,
                  double tolerance) {
  std::ostringstream out;
  out.precision(9);
  out << name << "[" << index << "] = " << actual << ", expected " << expected
      << " within " << tolerance;
  return out.str();
}

}  // namespace

void GcnReference(const GeneratedInput& input, const std::vector<seastar::Tensor>& weights,
                  const std::vector<seastar::Tensor>& biases, std::vector<double>* logits,
                  std::vector<double>* magnitude) {
  const int64_t n = input.shape.num_vertices;
  int64_t width = input.shape.feature_dim;
  std::vector<double> h(input.features.begin(), input.features.end());
  std::vector<double> h_abs(h.size());
  std::transform(h.begin(), h.end(), h_abs.begin(), [](double x) { return std::fabs(x); });

  for (size_t layer = 0; layer < weights.size(); ++layer) {
    const seastar::Tensor& w = weights[layer];
    const int64_t out = w.dim(1);
    // Dense transform t = h · W, and |h| · |W| for the magnitude bound.
    std::vector<double> t(static_cast<size_t>(n * out), 0.0);
    std::vector<double> t_abs(t.size(), 0.0);
    for (int64_t v = 0; v < n; ++v) {
      for (int64_t k = 0; k < width; ++k) {
        const double x = h[static_cast<size_t>(v * width + k)];
        const double x_abs = h_abs[static_cast<size_t>(v * width + k)];
        const float* w_row = w.Row(k);
        for (int64_t j = 0; j < out; ++j) {
          t[static_cast<size_t>(v * out + j)] += x * w_row[j];
          t_abs[static_cast<size_t>(v * out + j)] += x_abs * std::fabs(w_row[j]);
        }
      }
    }
    // Aggregation over in-edges: next[v] = sum_{u -> v} norm_u * t[u].
    std::vector<double> next(static_cast<size_t>(n * out), 0.0);
    std::vector<double> next_abs(next.size(), 0.0);
    for (size_t e = 0; e < input.src.size(); ++e) {
      const int64_t u = input.src[e];
      const int64_t v = input.dst[e];
      const double norm = input.norm[static_cast<size_t>(u)];
      for (int64_t j = 0; j < out; ++j) {
        next[static_cast<size_t>(v * out + j)] += norm * t[static_cast<size_t>(u * out + j)];
        next_abs[static_cast<size_t>(v * out + j)] +=
            norm * t_abs[static_cast<size_t>(u * out + j)];
      }
    }
    const bool last = layer + 1 == weights.size();
    for (int64_t v = 0; v < n; ++v) {
      for (int64_t j = 0; j < out; ++j) {
        const size_t i = static_cast<size_t>(v * out + j);
        const double bias = biases[layer].at(j);
        next[i] += bias;
        next_abs[i] += std::fabs(bias);
        if (!last && next[i] < 0.0) {
          next[i] = 0.0;
        }
      }
    }
    h = std::move(next);
    h_abs = std::move(next_abs);
    width = out;
  }
  *logits = std::move(h);
  *magnitude = std::move(h_abs);
}

CheckResult CheckGcnLogits(const GeneratedInput& input, const std::vector<seastar::Tensor>& weights,
                           const std::vector<seastar::Tensor>& biases,
                           const seastar::Tensor& logits) {
  std::vector<double> expected;
  std::vector<double> magnitude;
  GcnReference(input, weights, biases, &expected, &magnitude);
  CheckResult result;
  if (static_cast<size_t>(logits.numel()) != expected.size()) {
    result.ok = false;
    result.detail = "GCN logits have " + std::to_string(logits.numel()) + " elements, expected " +
                    std::to_string(expected.size());
    return result;
  }
  const float* actual = logits.data();
  for (size_t i = 0; i < expected.size(); ++i) {
    const double error = std::fabs(static_cast<double>(actual[i]) - expected[i]);
    const double tolerance = kGcnAtol + kGcnRtol * magnitude[i];
    result.max_error = std::max(result.max_error, error / tolerance);
    if (result.ok && !(error <= tolerance)) {
      result.ok = false;
      result.detail = Where("gcn logits", static_cast<int64_t>(i), actual[i], expected[i],
                            tolerance);
    }
  }
  if (result.ok) {
    result.detail = "GCN logits match the double reference; worst error " +
                    std::to_string(result.max_error) + " of its tolerance";
  }
  return result;
}

CheckResult CheckClose(const std::string& name, const seastar::Tensor& actual,
                       const seastar::Tensor& expected, double atol, double rtol) {
  CheckResult result;
  if (actual.shape() != expected.shape()) {
    result.ok = false;
    result.detail = name + ": shape " + actual.ShapeString() + " vs " + expected.ShapeString();
    return result;
  }
  const float* a = actual.data();
  const float* e = expected.data();
  for (int64_t i = 0; i < actual.numel(); ++i) {
    const double error = std::fabs(static_cast<double>(a[i]) - e[i]);
    const double tolerance = atol + rtol * std::fabs(static_cast<double>(e[i]));
    result.max_error = std::max(result.max_error, error / tolerance);
    if (result.ok && !(error <= tolerance)) {
      result.ok = false;
      result.detail = Where(name, i, a[i], e[i], tolerance);
    }
  }
  return result;
}

StepOutputs DropoutFreeStep(seastar::GnnModel& model, const seastar::Dataset& data) {
  for (seastar::Var p : model.Parameters()) {
    p.ClearGrad();
  }
  seastar::Var logits = model.Forward(/*training=*/false);
  seastar::Var loss =
      seastar::ag::NllLoss(seastar::ag::LogSoftmax(logits), data.labels, data.train_mask);
  seastar::Backward(loss, seastar::Tensor::Ones({1}));
  StepOutputs out;
  out.logits = logits.value().Clone();
  for (const seastar::Var& p : model.Parameters()) {
    out.grads.push_back(p.grad().Clone());
  }
  return out;
}

CheckResult CheckStepOutputs(const StepOutputs& actual, const StepOutputs& reference) {
  CheckResult result = CheckClose("logits", actual.logits, reference.logits, kGatAtol, kGatRtol);
  if (actual.grads.size() != reference.grads.size()) {
    result.ok = false;
    result.detail = "gradient counts differ";
    return result;
  }
  for (size_t i = 0; i < actual.grads.size() && result.ok; ++i) {
    CheckResult grad = CheckClose("grad" + std::to_string(i), actual.grads[i],
                                  reference.grads[i], kGatAtol, kGatRtol);
    result.ok = grad.ok;
    result.detail = grad.detail;
    result.max_error = std::max(result.max_error, grad.max_error);
  }
  if (result.ok) {
    result.detail = "logits and " + std::to_string(actual.grads.size()) +
                    " gradients match; worst error " + std::to_string(result.max_error) +
                    " of its tolerance";
  }
  return result;
}

CheckResult CheckServedRows(const seastar::Tensor& full_logits,
                            const std::vector<int32_t>& vertices,
                            const std::vector<float>& answers) {
  CheckResult result;
  const int64_t classes = full_logits.dim(1);
  if (answers.size() != vertices.size() * static_cast<size_t>(classes)) {
    result.ok = false;
    result.detail = "answer buffer holds " + std::to_string(answers.size()) + " floats for " +
                    std::to_string(vertices.size()) + " requests";
    return result;
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    const float* row = full_logits.Row(vertices[i]);
    const float* answer = answers.data() + i * static_cast<size_t>(classes);
    if (std::memcmp(row, answer, sizeof(float) * static_cast<size_t>(classes)) != 0) {
      result.ok = false;
      result.detail = "answer " + std::to_string(i) + " for vertex " +
                      std::to_string(vertices[i]) + " differs from the direct forward";
      return result;
    }
  }
  result.detail = "every answer equals its row of the direct forward";
  return result;
}

CheckResult CheckServeTallies(const ServeTally& tally, const seastar::serve::ServerStats& stats) {
  CheckResult result;
  std::ostringstream out;
  auto expect = [&](const char* name, int64_t ours, int64_t theirs) {
    if (result.ok && ours != theirs) {
      result.ok = false;
      out << name << ": benchmark counted " << ours << ", server reports " << theirs;
    }
  };
  expect("submitted", tally.submitted, stats.submitted);
  expect("served", tally.served, stats.served);
  expect("degraded", tally.degraded, stats.degraded);
  expect("shed", tally.shed, stats.shed);
  expect("expired", tally.expired, stats.expired);
  expect("failed", tally.failed, stats.failed);
  expect("identity", stats.submitted,
         stats.served + stats.degraded + stats.shed + stats.expired + stats.failed);
  expect("degraded+shed+expired+failed", 0,
         stats.degraded + stats.shed + stats.expired + stats.failed);
  result.detail = result.ok ? "tallies match and the identity holds" : out.str();
  return result;
}

CheckResult CheckLossDecreased(double first, double last) {
  CheckResult result;
  std::ostringstream out;
  out << "loss " << first << " -> " << last;
  result.ok = std::isfinite(last) && last < first;
  result.detail = out.str();
  return result;
}

DegreeSummary SummarizeInDegrees(int64_t num_vertices, const std::vector<int32_t>& dst) {
  DegreeSummary summary;
  const std::vector<int64_t> degree = InDegrees(num_vertices, dst);
  summary.max = *std::max_element(degree.begin(), degree.end());
  summary.mean = static_cast<double>(dst.size()) / static_cast<double>(num_vertices);
  return summary;
}

}  // namespace perfbench
