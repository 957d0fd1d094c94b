#include "perfbench/inputs.h"

#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

uint64_t SeedStream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t SeedStream::Below(uint64_t bound) {
  // Multiply-shift; the bias is below 2^-40 for every bound used here.
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double SeedStream::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double SeedStream::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]: log is finite.
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

void RmatEdges(int64_t num_vertices, int64_t num_edges, SeedStream& rng,
               std::vector<int32_t>* src, std::vector<int32_t>* dst) {
  int levels = 0;
  while ((int64_t{1} << levels) < num_vertices) {
    ++levels;
  }
  src->reserve(src->size() + static_cast<size_t>(num_edges));
  dst->reserve(dst->size() + static_cast<size_t>(num_edges));
  for (int64_t made = 0; made < num_edges;) {
    int64_t row = 0;
    int64_t col = 0;
    for (int level = 0; level < levels; ++level) {
      const double r = rng.Uniform();
      row <<= 1;
      col <<= 1;
      if (r < 0.57) {
      } else if (r < 0.76) {
        col |= 1;
      } else if (r < 0.95) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    if (row < num_vertices && col < num_vertices) {
      src->push_back(static_cast<int32_t>(row));
      dst->push_back(static_cast<int32_t>(col));
      ++made;
    }
  }
}

void UniformEdges(int64_t num_vertices, int64_t num_edges, SeedStream& rng,
                  std::vector<int32_t>* src, std::vector<int32_t>* dst) {
  const uint64_t n = static_cast<uint64_t>(num_vertices);
  for (int64_t e = 0; e < num_edges; ++e) {
    src->push_back(static_cast<int32_t>(rng.Below(n)));
    dst->push_back(static_cast<int32_t>(rng.Below(n)));
  }
}

std::vector<int64_t> InDegrees(int64_t num_vertices, const std::vector<int32_t>& dst) {
  std::vector<int64_t> degree(static_cast<size_t>(num_vertices), 0);
  for (int32_t v : dst) {
    ++degree[static_cast<size_t>(v)];
  }
  return degree;
}

GeneratedInput Generate(const InputShape& shape, uint64_t seed) {
  SeedStream rng(seed);
  GeneratedInput input;
  input.shape = shape;
  const int64_t n = shape.num_vertices;
  if (shape.edges == EdgeShape::kPowerLaw) {
    RmatEdges(n, shape.num_edges, rng, &input.src, &input.dst);
  } else {
    UniformEdges(n, shape.num_edges, rng, &input.src, &input.dst);
  }
  for (int64_t v = 0; v < n; ++v) {
    input.src.push_back(static_cast<int32_t>(v));
    input.dst.push_back(static_cast<int32_t>(v));
  }

  input.features.resize(static_cast<size_t>(n * shape.feature_dim));
  for (float& x : input.features) {
    x = static_cast<float>(rng.Normal());
  }
  const std::vector<int64_t> degree = InDegrees(n, input.dst);
  input.norm.resize(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    const int64_t d = degree[static_cast<size_t>(v)];
    input.norm[static_cast<size_t>(v)] = 1.0f / std::sqrt(static_cast<float>(d > 1 ? d : 1));
  }
  input.labels.resize(static_cast<size_t>(n));
  for (int32_t& label : input.labels) {
    label = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(shape.num_classes)));
  }
  for (int64_t v = 0; v < n; ++v) {
    if (rng.Uniform() < shape.train_fraction) {
      input.train_mask.push_back(static_cast<int32_t>(v));
    }
  }
  if (input.train_mask.empty()) {
    input.train_mask.push_back(0);
  }
  return input;
}

seastar::Dataset ToDataset(const GeneratedInput& input, double* graph_build_s) {
  const InputShape& shape = input.shape;
  seastar::Dataset data;
  data.spec.name = shape.like;
  data.spec.num_vertices = shape.num_vertices;
  data.spec.num_edges = static_cast<int64_t>(input.src.size());
  data.spec.feature_dim = shape.feature_dim;
  data.spec.num_classes = shape.num_classes;
  data.spec.profile = shape.edges == EdgeShape::kPowerLaw ? seastar::DegreeProfile::kPowerLaw
                                                          : seastar::DegreeProfile::kUniform;
  const auto start = std::chrono::steady_clock::now();
  data.graph = seastar::Graph::FromCoo(shape.num_vertices, input.src, input.dst);
  if (graph_build_s != nullptr) {
    *graph_build_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  data.features = seastar::Tensor({shape.num_vertices, shape.feature_dim}, input.features);
  data.gcn_norm = seastar::Tensor({shape.num_vertices, 1}, input.norm);
  data.labels = input.labels;
  data.train_mask = input.train_mask;
  return data;
}

}  // namespace perfbench
