// Seeded input generation for the benchmark workloads.
//
// The benchmark owns its generators (R-MAT and uniform edge lists, normal
// features, labels, train mask, GCN norm) so that a change to the program's
// own generators cannot silently change a workload. The program receives
// only the arrays, through Graph::FromCoo and the Dataset fields.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/datasets.h"

namespace perfbench {

// SplitMix64: a small, fully specified generator, so the same seed gives
// the same inputs on every machine and standard library.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound);
  // Uniform in [0, 1).
  double Uniform();
  // Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t state_;
};

enum class EdgeShape { kPowerLaw, kUniform };

// Size and make-up of one workload's input, modelled on a dataset of the
// paper's Table 2 (vertex and edge counts, classes), with features capped.
struct InputShape {
  std::string like;  // The catalogue entry whose shape this copies.
  int64_t num_vertices = 0;
  int64_t num_edges = 0;  // Before self-loops.
  int64_t feature_dim = 0;
  int64_t num_classes = 0;
  EdgeShape edges = EdgeShape::kUniform;
  double train_fraction = 0.1;
};

// The arrays handed to the program. Self-loops are appended (GCN
// convention); `norm` is 1/sqrt(max(1, in_degree)) over the final edge list.
struct GeneratedInput {
  InputShape shape;
  std::vector<int32_t> src;
  std::vector<int32_t> dst;
  std::vector<float> features;  // Row-major [num_vertices, feature_dim].
  std::vector<float> norm;      // [num_vertices].
  std::vector<int32_t> labels;
  std::vector<int32_t> train_mask;
};

// R-MAT edges with the Graph500 quadrant weights (0.57, 0.19, 0.19, 0.05),
// rejecting samples outside [0, num_vertices).
void RmatEdges(int64_t num_vertices, int64_t num_edges, SeedStream& rng,
               std::vector<int32_t>* src, std::vector<int32_t>* dst);

// Endpoints drawn independently and uniformly.
void UniformEdges(int64_t num_vertices, int64_t num_edges, SeedStream& rng,
                  std::vector<int32_t>* src, std::vector<int32_t>* dst);

GeneratedInput Generate(const InputShape& shape, uint64_t seed);

// In-degree of every vertex of the edge list.
std::vector<int64_t> InDegrees(int64_t num_vertices, const std::vector<int32_t>& dst);

// Builds the program's Dataset from the arrays: the CSR build
// (Graph::FromCoo) plus the tensor fields. When `graph_build_s` is given it
// receives the wall time of Graph::FromCoo alone.
seastar::Dataset ToDataset(const GeneratedInput& input, double* graph_build_s = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
