// Tests of the benchmark's own checks: each passes on the program's real
// output and fails once that output is perturbed, and the generators give
// the degree profiles the workloads rely on.
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/checks.h"
#include "perfbench/inputs.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"

namespace perfbench {
namespace {

InputShape SmallShape(EdgeShape edges) { return {"small", 300, 2400, 16, 4, edges, 0.3}; }

std::shared_ptr<const seastar::Executor> Executor(const char* spec) {
  return std::shared_ptr<const seastar::Executor>(
      std::move(*seastar::ExecutorFactory::Create(spec)));
}

TEST(GeneratorsTest, SameSeedSameInputsOtherSeedOtherInputs) {
  const GeneratedInput a = Generate(SmallShape(EdgeShape::kPowerLaw), 7);
  const GeneratedInput b = Generate(SmallShape(EdgeShape::kPowerLaw), 7);
  const GeneratedInput c = Generate(SmallShape(EdgeShape::kPowerLaw), 8);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_NE(a.dst, c.dst);
  EXPECT_NE(a.features, c.features);
}

TEST(GeneratorsTest, PowerLawHasHubsAndUniformDoesNot) {
  // The workloads' own shapes: amz_photo-like R-MAT and cora-like uniform.
  const InputShape photo = {"amz_photo", 7651, 287326, 1, 8, EdgeShape::kPowerLaw, 0.1};
  const InputShape cora = {"cora", 2709, 10556, 1, 7, EdgeShape::kUniform, 0.1};
  const GeneratedInput skewed = Generate(photo, 1);
  const GeneratedInput flat = Generate(cora, 1);
  const DegreeSummary hubs = SummarizeInDegrees(photo.num_vertices, skewed.dst);
  const DegreeSummary even = SummarizeInDegrees(cora.num_vertices, flat.dst);
  EXPECT_NEAR(hubs.mean, 38.55, 0.01);  // (287326 + 7651 self-loops) / 7651.
  EXPECT_GT(static_cast<double>(hubs.max), 20.0 * hubs.mean);
  EXPECT_NEAR(even.mean, 4.90, 0.01);
  EXPECT_LT(static_cast<double>(even.max), 4.0 * even.mean);
}

TEST(GcnCheckTest, PassesOnProgramLogitsAndFailsOnANudgedLogit) {
  const GeneratedInput input = Generate(SmallShape(EdgeShape::kPowerLaw), 3);
  const seastar::Dataset data = ToDataset(input);
  seastar::GcnConfig config;
  seastar::Gcn model(data, config, Executor("seastar"));
  std::vector<seastar::Var> params = model.Parameters();  // W1, W2, b1, b2.
  // Non-zero biases, so the check covers the bias term too.
  for (size_t p = 2; p < 4; ++p) {
    seastar::Tensor& bias = params[p].mutable_value();
    for (int64_t i = 0; i < bias.numel(); ++i) {
      bias.data()[i] = 0.1f * static_cast<float>(i + 1);
    }
  }
  const std::vector<seastar::Tensor> weights = {params[0].value(), params[1].value()};
  const std::vector<seastar::Tensor> biases = {params[2].value(), params[3].value()};
  seastar::Tensor logits = model.Forward(/*training=*/false).value().Clone();
  EXPECT_TRUE(CheckGcnLogits(input, weights, biases, logits).ok);

  // The nudge is at least twice the nudged element's own tolerance.
  std::vector<double> expected;
  std::vector<double> magnitude;
  GcnReference(input, weights, biases, &expected, &magnitude);
  const int64_t element = logits.numel() - 1;
  ASSERT_LT(kGcnAtol + kGcnRtol * magnitude[static_cast<size_t>(element)], 5e-4);
  logits.data()[element] += 1e-3f;
  const CheckResult nudged = CheckGcnLogits(input, weights, biases, logits);
  EXPECT_FALSE(nudged.ok);
  EXPECT_NE(nudged.detail.find("gcn logits"), std::string::npos);
}

TEST(GatCheckTest, MatchesPygAndFailsOnANudgedLogitOrGradient) {
  const GeneratedInput input = Generate(SmallShape(EdgeShape::kPowerLaw), 4);
  const seastar::Dataset data = ToDataset(input);
  seastar::GatConfig config;
  seastar::Gat seastar_model(data, config, Executor("seastar"));
  seastar::Gat pyg_model(data, config, Executor("pyg"));  // Same seed, same parameters.
  const StepOutputs ours = DropoutFreeStep(seastar_model, data);
  const StepOutputs reference = DropoutFreeStep(pyg_model, data);
  EXPECT_TRUE(CheckStepOutputs(ours, reference).ok) << CheckStepOutputs(ours, reference).detail;

  StepOutputs logit_nudged = ours;
  logit_nudged.logits = ours.logits.Clone();
  logit_nudged.logits.data()[5] += 1e-3f;
  EXPECT_FALSE(CheckStepOutputs(logit_nudged, reference).ok);

  StepOutputs grad_nudged = ours;
  grad_nudged.grads.back() = ours.grads.back().Clone();
  grad_nudged.grads.back().data()[0] += 1e-3f;
  EXPECT_FALSE(CheckStepOutputs(grad_nudged, reference).ok);
}

TEST(ServeCheckTest, FailsWhenAnAnswerCarriesAnotherVertexsRow) {
  const GeneratedInput input = Generate(SmallShape(EdgeShape::kUniform), 5);
  const seastar::Dataset data = ToDataset(input);
  seastar::GcnConfig config;
  seastar::Gcn model(data, config, Executor("seastar"));
  const seastar::Tensor full = model.Forward(/*training=*/false).value().Clone();
  const std::vector<int32_t> vertices = {3, 17, 42, 99};
  std::vector<float> answers;
  for (int32_t v : vertices) {
    answers.insert(answers.end(), full.Row(v), full.Row(v) + full.dim(1));
  }
  EXPECT_TRUE(CheckServedRows(full, vertices, answers).ok);

  std::vector<float> swapped = answers;
  std::copy(full.Row(18), full.Row(18) + full.dim(1), swapped.begin() + full.dim(1));
  const CheckResult result = CheckServedRows(full, vertices, swapped);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("vertex 17"), std::string::npos);
}

TEST(ServeCheckTest, TalliesMustMatchTheServerAndTheIdentity) {
  ServeTally tally;
  tally.submitted = 100;
  tally.served = 100;
  seastar::serve::ServerStats stats;
  stats.submitted = 100;
  stats.served = 100;
  EXPECT_TRUE(CheckServeTallies(tally, stats).ok);

  ServeTally off_by_one = tally;
  off_by_one.served = 99;
  EXPECT_FALSE(CheckServeTallies(off_by_one, stats).ok);

  seastar::serve::ServerStats broken_identity = stats;
  broken_identity.submitted = 101;
  ServeTally matching = tally;
  matching.submitted = 101;
  EXPECT_FALSE(CheckServeTallies(matching, broken_identity).ok);

  // The identity holds but one request was shed: still a failure.
  seastar::serve::ServerStats shed = stats;
  shed.served = 99;
  shed.shed = 1;
  ServeTally counted_shed = tally;
  counted_shed.served = 99;
  counted_shed.shed = 1;
  EXPECT_FALSE(CheckServeTallies(counted_shed, shed).ok);
}

TEST(LossCheckTest, FinalLossMustBeBelowTheFirst) {
  EXPECT_TRUE(CheckLossDecreased(2.3, 1.9).ok);
  EXPECT_FALSE(CheckLossDecreased(2.3, 2.3).ok);
  EXPECT_FALSE(CheckLossDecreased(2.3, std::nan("")).ok);
}

}  // namespace
}  // namespace perfbench
