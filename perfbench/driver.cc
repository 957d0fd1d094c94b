// Benchmark driver: runs one workload for a fixed time, checks the
// program's outputs, and prints one JSON result line.
//
//   perfbench_driver --workload <train_gcn|train_gat|serve_gcn> --seed <n>
//                    --seconds <s> --trace <0|1> --out-dir <dir>
//
// The driver times the program's public calls from outside. With --trace 0
// it reports the end-to-end metrics; with --trace 1 it records its own spans
// around each call (kept in memory, written to <out-dir> at the end) and
// reports the per-layer metrics instead. See perfbench/README.md for what
// each metric means and why each statistic was chosen.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/inputs.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/nn.h"
#include "src/core/program.h"
#include "src/exec/plan_cache.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/server.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using seastar::Tensor;
using seastar::Var;

// Taken during static initialisation, before main: the origin of every
// span's times.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Epochs discarded before the steady window: epoch 0 compiles plans and
// fills the allocator pool, epoch 1 absorbs the first full reuse of the
// backward tape.
constexpr int kWarmupEpochs = 2;
// A run measures at least this many steady epochs whatever --seconds says.
constexpr int kMinSteadyEpochs = 8;
// Repetitions of each single-layer probe in a traced run.
constexpr int kProbeReps = 15;

// ---- Statistics --------------------------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of a sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(position);
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}
double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }
double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// On training, latency_ms is the fastest steady epoch of a run. Host load
// on a shared machine comes in phases lasting seconds that only ever slow an
// epoch, and the fastest epoch is the one taken in the quietest phase; of
// the quantiles tried it repeated most tightly across runs (README).
constexpr double kEpochQuantile = 0.0;

// ---- Spans -------------------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;  // Since process start.
  double end_ms = 0.0;
  int parent = -1;  // Index into the span list; -1 for a root.
};

// The benchmark's own span recorder: spans nest by scope on one thread, are
// kept in memory and written out once at the end. Disabled, it records
// nothing and costs one branch per scope.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const std::string& name) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.start_ms = MillisBetween(kProcessStart, Clock::now());
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ms = MillisBetween(kProcessStart, Clock::now());
    open_.pop_back();
  }

  // A span whose times were taken elsewhere (e.g. on another thread).
  void Add(const std::string& name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) {
      return;
    }
    Span span;
    span.name = name;
    span.start_ms = MillisBetween(kProcessStart, start);
    span.end_ms = MillisBetween(kProcessStart, end);
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
  }

  // Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) {
        out.push_back(span.end_ms - span.start_ms);
      }
    }
    return out;
  }

  // Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",", span.name.c_str(), span.start_ms * 1e3,
                    (span.end_ms - span.start_ms) * 1e3, i, span.parent);
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

// ---- Host facts --------------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Steal ticks of the whole host (first line of /proc/stat): time the
// hypervisor ran someone else while this machine's vCPUs were runnable.
int64_t HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t field = 0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> field); ++i) {
  }
  return in ? field : -1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

// ---- Results -----------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> checks;  // One line per check, for the run record.
  double generator_late_ms = -1.0;  // serve_gcn only.
  std::vector<double> samples_ms;   // Steady epochs or open-loop latencies.
  std::vector<double> window_rps;   // serve_gcn: closed-loop window rates.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(const std::string& what, const CheckResult& check) {
    checks.push_back(what + (check.ok ? ": ok: " : ": FAILED: ") + check.detail);
    correct = correct && check.ok;
  }
};

std::string Json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// ---- Options -----------------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && have_seed && options->seconds > 0.0;
}

// ---- Workload inputs ---------------------------------------------------------------------------

// Shapes follow the dataset catalogue (paper Table 2) with features capped
// at 128, as the repository's own benches cap them.
InputShape AmzCompShape() {
  return {"amz_comp", 13753, 574418, 128, 10, EdgeShape::kPowerLaw, 0.1};
}
InputShape AmzPhotoShape() {
  return {"amz_photo", 7651, 287326, 128, 8, EdgeShape::kPowerLaw, 0.1};
}
InputShape CoraShape() { return {"cora", 2709, 10556, 128, 7, EdgeShape::kUniform, 0.1}; }

std::shared_ptr<const seastar::Executor> MakeExecutor(const std::string& spec) {
  auto executor = seastar::ExecutorFactory::Create(spec);
  if (!executor.has_value()) {
    std::fprintf(stderr, "executor %s: %s\n", spec.c_str(), executor.status().ToString().c_str());
    std::exit(2);
  }
  return std::shared_ptr<const seastar::Executor>(std::move(*executor));
}

std::unique_ptr<seastar::GnnModel> MakeModel(bool gat, const seastar::Dataset& data,
                                             const std::string& executor) {
  if (gat) {
    seastar::GatConfig config;  // 8 heads x 8 hidden, 2 layers.
    return std::make_unique<seastar::Gat>(data, config, MakeExecutor(executor));
  }
  seastar::GcnConfig config;
  config.hidden_dim = 16;
  return std::make_unique<seastar::Gcn>(data, config, MakeExecutor(executor));
}

// The model's aggregation as a stand-alone vertex program, with inputs of
// the first layer's width, for the exec.* and parallel.* probes.
struct AggregationProbe {
  seastar::VertexProgram program;
  seastar::VertexProgram::Inputs inputs;
};

AggregationProbe MakeAggregationProbe(bool gat, const seastar::Dataset& data, uint64_t seed) {
  seastar::Rng rng(seed);
  const int64_t n = data.graph.num_vertices();
  AggregationProbe probe;
  seastar::GirBuilder b;
  if (gat) {
    const int32_t width = 8;
    seastar::Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
    seastar::Value a = e / AggSum(e);
    b.MarkOutput(AggSum(a * b.Src("h", width)), "out");
    probe.inputs.vertex = {
        {"eu", Var::Leaf(seastar::ops::RandomNormal({n, 1}, 0.0f, 1.0f, rng), false)},
        {"ev", Var::Leaf(seastar::ops::RandomNormal({n, 1}, 0.0f, 1.0f, rng), false)},
        {"h", Var::Leaf(seastar::ops::RandomNormal({n, width}, 0.0f, 1.0f, rng), false)}};
  } else {
    const int32_t width = 16;
    b.MarkOutput(AggSum(b.Src("h", width) * b.Src("norm", 1)), "out");
    probe.inputs.vertex = {
        {"h", Var::Leaf(seastar::ops::RandomNormal({n, width}, 0.0f, 1.0f, rng), false)},
        {"norm", Var::Leaf(data.gcn_norm, false)}};
  }
  probe.program = seastar::VertexProgram::Compile(std::move(b));
  return probe;
}

// Median wall time (ms) of `reps` calls of fn.
template <typename Fn>
std::vector<double> TimeReps(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(MillisBetween(start, Clock::now()));
  }
  return times;
}

// The single-layer probes shared by every workload's traced run: the dense
// GEMM at the first layer's shape, the aggregation program alone, its
// 1-thread vs 2-thread ratio, and a direct eval forward, whose median (ms)
// it returns.
double RunProbes(bool gat, const seastar::Dataset& data, seastar::GnnModel& model, uint64_t seed,
               SpanRecorder& spans, RunResult* result) {
  seastar::Rng rng(seed ^ 0x5eedull);
  const int64_t out_width = gat ? 8 : 16;
  const Tensor weight = seastar::ops::RandomNormal({data.features.dim(1), out_width}, 0.0f, 0.1f,
                                                   rng);
  std::vector<double> matmul;
  {
    ScopedSpan span(spans, "tensor.matmul");
    matmul = TimeReps(kProbeReps, [&] { seastar::ops::Matmul(data.features, weight); });
  }
  result->Add("tensor.matmul_ms", Median(matmul), "ms");

  AggregationProbe probe = MakeAggregationProbe(gat, data, seed);
  const seastar::ExecutionSession session = seastar::MakeSession(MakeExecutor("seastar"),
                                                                 data.graph);
  probe.program.Run(probe.inputs, session);  // Compile the plan outside the timing.
  // Explicit pools of 1 and 2 threads (the calling thread plus 0 or 1
  // workers), so the ratio means the same on every workload.
  seastar::ThreadPool single(0);
  seastar::ThreadPool pair(1);
  std::vector<double> pooled;
  std::vector<double> serial;
  std::vector<double> paired;
  {
    ScopedSpan span(spans, "exec.aggregate");
    const auto run = [&] { probe.program.Run(probe.inputs, session); };
    for (int i = 0; i < kProbeReps; ++i) {
      pooled.push_back(TimeReps(1, run)[0]);
      {
        seastar::ScopedThreadPool pin(&single);
        serial.push_back(TimeReps(1, run)[0]);
      }
      seastar::ScopedThreadPool pin(&pair);
      paired.push_back(TimeReps(1, run)[0]);
    }
  }
  const double aggregate_ms = Median(pooled);
  result->Add("exec.aggregate_ms", aggregate_ms, "ms");
  result->Add("exec.edges_per_s",
              static_cast<double>(data.graph.num_edges()) / (aggregate_ms / 1e3), "1/s");
  result->Add("parallel.aggregate_speedup", Median(serial) / Median(paired), "x");

  std::vector<double> eval;
  {
    ScopedSpan span(spans, "core.eval_forward");
    eval = TimeReps(kProbeReps, [&] { model.Forward(/*training=*/false); });
  }
  result->Add("core.eval_forward_ms", Median(eval), "ms");
  return Median(eval);
}

// ---- Training ----------------------------------------------------------------------------------

struct AllocCounters {
  uint64_t requests = 0;
  uint64_t fresh = 0;
  uint64_t hits = 0;
  uint64_t plan_misses = 0;

  static AllocCounters Read() {
    const seastar::TensorAllocator& allocator = seastar::TensorAllocator::Get();
    return {allocator.total_allocations(), allocator.fresh_mallocs(), allocator.pool_hits(),
            seastar::PlanCache::Get().misses()};
  }
  AllocCounters operator-(const AllocCounters& o) const {
    return {requests - o.requests, fresh - o.fresh, hits - o.hits, plan_misses - o.plan_misses};
  }
  AllocCounters& operator+=(const AllocCounters& o) {
    requests += o.requests;
    fresh += o.fresh;
    hits += o.hits;
    plan_misses += o.plan_misses;
    return *this;
  }
};

// tensor.* per operation (steady epoch or closed-loop request).
void AddAllocMetrics(const AllocCounters& counters, double operations, RunResult* result) {
  result->Add("tensor.alloc_requests", static_cast<double>(counters.requests) / operations,
              "count");
  result->Add("tensor.fresh_mallocs", static_cast<double>(counters.fresh) / operations, "count");
  result->Add("tensor.pool_hit_ratio",
              counters.requests == 0 ? 1.0
                                     : static_cast<double>(counters.hits) /
                                           static_cast<double>(counters.requests),
              "ratio");
}

struct Trainer {
  std::unique_ptr<seastar::GnnModel> model;
  std::unique_ptr<seastar::Adam> adam;

  // One full-graph training epoch: forward, loss, backward, Adam step.
  // Returns the loss; spans are recorded when `spans` is enabled.
  float Epoch(const seastar::Dataset& data, SpanRecorder& spans) {
    ScopedSpan epoch(spans, "core.epoch");
    Var logits;
    {
      ScopedSpan span(spans, "core.forward");
      logits = model->Forward(/*training=*/true);
    }
    Var loss;
    {
      ScopedSpan span(spans, "core.loss");
      loss = seastar::ag::NllLoss(seastar::ag::LogSoftmax(logits), data.labels, data.train_mask);
    }
    {
      ScopedSpan span(spans, "tensor.backward");
      seastar::Backward(loss, Tensor::Ones({1}));
    }
    {
      ScopedSpan span(spans, "core.optimizer");
      adam->Step();
      adam->ZeroGrad();
    }
    return loss.value().at(0);
  }
};

Trainer MakeTrainer(bool gat, const seastar::Dataset& data, const std::string& executor) {
  Trainer trainer;
  trainer.model = MakeModel(gat, data, executor);
  trainer.adam = std::make_unique<seastar::Adam>(trainer.model->Parameters(), /*lr=*/0.01f);
  return trainer;
}

// Rounds of the baseline comparison in a traced run.
constexpr int kBaselineRounds = 5;

// The paper's Fig. 10 comparison on the workload's input: the same model on
// the PyG-like and DGL-like executors, each warmed by one epoch, then
// kBaselineRounds rounds of one epoch of `trainer` and one of each
// baseline, interleaved so that host phases touch all three alike.
void RunBaselineProbe(bool gat, Trainer& trainer, const seastar::Dataset& data,
                      SpanRecorder& spans) {
  ScopedSpan probe(spans, "bench.baseline_probe");
  SpanRecorder off(false);
  std::vector<std::pair<std::string, Trainer>> baselines;
  for (const char* executor : {"pyg", "dgl"}) {
    baselines.emplace_back(executor, MakeTrainer(gat, data, executor));
    baselines.back().second.Epoch(data, off);
  }
  for (int i = 0; i < kBaselineRounds; ++i) {
    {
      ScopedSpan span(spans, "exec.seastar_epoch");
      trainer.Epoch(data, off);
    }
    for (auto& [executor, baseline] : baselines) {
      ScopedSpan span(spans, "exec." + executor + "_epoch");
      baseline.Epoch(data, off);
    }
  }
}

// Layer times of the traced training epochs and of the baseline
// comparison: medians over the epochs.
void AddEpochLayerMetrics(const SpanRecorder& spans, RunResult* result) {
  result->Add("core.forward_ms", Median(spans.Durations("core.forward")), "ms");
  result->Add("core.loss_ms", Median(spans.Durations("core.loss")), "ms");
  result->Add("core.optimizer_ms", Median(spans.Durations("core.optimizer")), "ms");
  result->Add("tensor.backward_ms", Median(spans.Durations("tensor.backward")), "ms");
  for (const char* executor : {"seastar", "pyg", "dgl"}) {
    const std::string name = std::string("exec.") + executor + "_epoch";
    result->Add(name + "_ms", Median(spans.Durations(name)), "ms");
  }
}

// The training layers on a workload that does not train (serve_gcn): a
// fresh model on the same input, kWarmupEpochs untimed, kProbeReps traced
// epochs, then the baseline comparison.
void RunTrainingProbe(bool gat, const seastar::Dataset& data, SpanRecorder& spans) {
  ScopedSpan probe(spans, "bench.training_probe");
  Trainer trainer = MakeTrainer(gat, data, "seastar");
  SpanRecorder off(false);
  for (int e = 0; e < kWarmupEpochs; ++e) {
    trainer.Epoch(data, off);
  }
  for (int i = 0; i < kProbeReps; ++i) {
    trainer.Epoch(data, spans);
  }
  RunBaselineProbe(gat, trainer, data, spans);
}

// Steady epochs per second over the best kRateWindowEpochs consecutive
// epochs: the training counterpart of the closed loop's best window.
constexpr size_t kRateWindowEpochs = 5;
double BestEpochRate(const std::vector<double>& epoch_ms) {
  double best = 0.0;
  for (size_t begin = 0; begin + kRateWindowEpochs <= epoch_ms.size(); ++begin) {
    double sum_ms = 0.0;
    for (size_t i = begin; i < begin + kRateWindowEpochs; ++i) {
      sum_ms += epoch_ms[i];
    }
    best = std::max(best, static_cast<double>(kRateWindowEpochs) * 1e3 / sum_ms);
  }
  return best;
}

// GAT: the logits and every parameter gradient of a dropout-free step match
// the same model, with identical parameters, on the PyG-like executor, which
// materialises every edge tensor and shares no fused-unit code.
void CheckGatAgainstPyg(seastar::GnnModel& model, const seastar::Dataset& data, RunResult* result) {
  std::unique_ptr<seastar::GnnModel> reference = MakeModel(/*gat=*/true, data, "pyg");
  std::vector<Var> ours = model.Parameters();
  std::vector<Var> theirs = reference->Parameters();
  for (size_t i = 0; i < ours.size(); ++i) {
    theirs[i].mutable_value() = ours[i].value().Clone();
  }
  result->Check("gat step vs pyg", CheckStepOutputs(DropoutFreeStep(model, data),
                                                    DropoutFreeStep(*reference, data)));
}

void CheckGcn(const GeneratedInput& input, seastar::GnnModel& model, RunResult* result) {
  // Gcn::Parameters() lists the layer weights, then the biases.
  std::vector<Var> params = model.Parameters();
  const size_t layers = params.size() / 2;
  std::vector<Tensor> weights;
  std::vector<Tensor> biases;
  for (size_t i = 0; i < layers; ++i) {
    weights.push_back(params[i].value());
    biases.push_back(params[layers + i].value());
  }
  const Tensor logits = model.Forward(/*training=*/false).value();
  result->Check("gcn logits vs double reference", CheckGcnLogits(input, weights, biases, logits));
}

// ---- Serving -----------------------------------------------------------------------------------

// Open-loop rate on serve_gcn, well below the measured capacity (README),
// so latency is the server's and not a backlog's.
constexpr double kOpenLoopRps = 1000.0;
// The open loop takes this share of the run; the closed loop the rest.
constexpr double kOpenLoopShare = 0.5;
// Sample-size limits for the open loop: at least four latency windows.
constexpr int64_t kMinOpenRequests = 4000;
constexpr int64_t kMaxOpenRequests = 10000;
// Outstanding requests in the closed loop: four full micro-batches.
constexpr int kClosedLoopOutstanding = 32;

// Latency statistics are taken per window of kLatencyWindow requests, in
// sending order, and the run reports its quietest window: the minimum across
// windows. Host stalls (hypervisor steal and late wake-ups, in phases that
// last seconds) only ever add latency, and a slower program raises every
// window, the quietest included.
constexpr size_t kLatencyWindow = 250;
double WindowedQuantile(const std::vector<double>& latency, double q) {
  std::vector<double> per_window;
  for (size_t begin = 0; begin + kLatencyWindow <= latency.size(); begin += kLatencyWindow) {
    per_window.push_back(
        Quantile(std::vector<double>(latency.begin() + static_cast<int64_t>(begin),
                                     latency.begin() + static_cast<int64_t>(begin + kLatencyWindow)),
                 q));
  }
  return Quantile(per_window, 0.0);
}

// Answer rates (1/s) over consecutive kCapacityWindowS windows of the
// closed loop; the last, partial window is dropped.
constexpr double kCapacityWindowS = 0.2;
std::vector<double> WindowRates(const std::vector<Clock::time_point>& completions,
                                Clock::time_point start) {
  std::vector<double> rates;
  for (const Clock::time_point& t : completions) {
    const size_t w = static_cast<size_t>(std::chrono::duration<double>(t - start).count() /
                                         kCapacityWindowS);
    if (rates.size() <= w) {
      rates.resize(w + 1, 0.0);
    }
    rates[w] += 1.0 / kCapacityWindowS;
  }
  if (rates.size() > 1) {
    rates.pop_back();
  }
  return rates;
}

struct ServeRecord {
  Clock::time_point due{};
  Clock::time_point submit_start{};
  Clock::time_point submit_end{};
  Clock::time_point done{};
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  int batch_size = 0;
  bool ok = false;
  bool degraded = false;
};

seastar::serve::InferenceRequest MakeRequest(int32_t vertex) {
  seastar::serve::InferenceRequest request;
  request.vertices = {vertex};
  request.deadline_ms = -1.0;  // No deadline: a host stall must not turn into a failure.
  return request;
}

std::unique_ptr<seastar::serve::Server> StartServer(seastar::GnnModel& model,
                                                    const seastar::Dataset& data,
                                                    double* start_s) {
  seastar::serve::ServeConfig config;
  // Room for every open-loop request, so a host stall delays requests
  // instead of shedding them.
  config.queue_capacity = static_cast<int>(kMaxOpenRequests);
  auto server = std::make_unique<seastar::serve::Server>(model, data, config);
  const Clock::time_point start = Clock::now();
  const seastar::Status started = server->Start();
  *start_s = SecondsSince(start);
  if (!started.ok()) {
    std::fprintf(stderr, "Server::Start: %s\n", started.ToString().c_str());
    std::exit(2);
  }
  return server;
}

using ResponseFuture = std::future<seastar::StatusOr<seastar::serve::InferenceResponse>>;

struct OpenLoop {
  std::vector<int32_t> vertices;
  std::vector<ServeRecord> records;
  std::vector<float> answers;  // One row of logits per request.
  AllocCounters counters;
};

// Open loop: `count` requests for random vertices fall due `rps` times a
// second. Between sends this thread waits on the oldest outstanding answer
// (answers arrive in admission order), so each completion is stamped the
// moment it is ready and each request is sent the moment it is due. Every
// other submit is recorded as a span when `spans` is enabled.
OpenLoop RunOpenLoop(seastar::serve::Server& server, const Tensor& full, int64_t count, double rps,
                     SeedStream& rng, SpanRecorder& spans) {
  const int64_t n = full.dim(0);
  const int64_t classes = full.dim(1);
  OpenLoop open;
  open.vertices.resize(static_cast<size_t>(count));
  for (int32_t& v : open.vertices) {
    v = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n)));
  }
  open.records.resize(static_cast<size_t>(count));
  open.answers.assign(static_cast<size_t>(count * classes), 0.0f);
  std::vector<ResponseFuture> futures(static_cast<size_t>(count));
  auto collect = [&](int64_t i) {
    ServeRecord& record = open.records[static_cast<size_t>(i)];
    record.done = Clock::now();
    auto response = futures[static_cast<size_t>(i)].get();
    record.ok = response.has_value();
    if (record.ok) {
      record.degraded = response->degraded;
      record.queue_ms = response->queue_ms;
      record.exec_ms = response->exec_ms;
      record.batch_size = response->batch_size;
      std::memcpy(open.answers.data() + i * classes, response->logits.data(),
                  sizeof(float) * static_cast<size_t>(classes));
    }
  };

  const AllocCounters before = AllocCounters::Read();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rps));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  int64_t answered = 0;
  for (int64_t i = 0; i < count; ++i) {
    ServeRecord& record = open.records[static_cast<size_t>(i)];
    record.due = start + i * interval;
    while (answered < i && futures[static_cast<size_t>(answered)].wait_until(record.due) ==
                               std::future_status::ready) {
      collect(answered++);
    }
    std::this_thread::sleep_until(record.due);
    record.submit_start = Clock::now();
    futures[static_cast<size_t>(i)] =
        server.Submit(MakeRequest(open.vertices[static_cast<size_t>(i)]));
    record.submit_end = Clock::now();
    if (i % 2 == 1) {
      spans.Add("serve.submit", record.submit_start, record.submit_end);
    }
  }
  while (answered < count) {
    futures[static_cast<size_t>(answered)].wait();
    collect(answered++);
  }
  open.counters = AllocCounters::Read() - before;
  return open;
}

struct ClosedLoop {
  int64_t sent = 0;
  int64_t ok = 0;
  double batch_sum = 0.0;
  std::vector<double> window_rps;
  CheckResult check;  // Every answer against the direct forward.
  AllocCounters counters;
  int64_t batches = 0;  // ServerStats deltas over the loop.
  int64_t served = 0;
};

// Closed loop: keep kClosedLoopOutstanding requests outstanding for
// `seconds`, replacing the oldest as soon as it is answered, then drain.
// Answers are checked against `full` in blocks as they arrive, so the
// buffer, and with it peak_rss_mb, does not grow with the number of
// requests.
ClosedLoop RunClosedLoop(seastar::serve::Server& server, const Tensor& full, double seconds,
                         SeedStream& rng) {
  const int64_t n = full.dim(0);
  const int64_t classes = full.dim(1);
  ClosedLoop closed;
  const seastar::serve::ServerStats stats_before = server.stats();
  const AllocCounters before = AllocCounters::Read();
  std::deque<std::pair<int32_t, ResponseFuture>> outstanding;
  auto send = [&] {
    const int32_t v = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n)));
    outstanding.emplace_back(v, server.Submit(MakeRequest(v)));
    ++closed.sent;
  };
  constexpr size_t kCheckBlock = 1024;
  std::vector<int32_t> vertices;
  std::vector<float> rows;
  vertices.reserve(kCheckBlock);
  rows.reserve(kCheckBlock * static_cast<size_t>(classes));
  auto check_block = [&] {
    if (closed.check.ok) {
      closed.check = CheckServedRows(full, vertices, rows);
    }
    vertices.clear();
    rows.clear();
  };
  std::vector<Clock::time_point> completions;  // Answers inside the window.
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kClosedLoopOutstanding; ++i) {
    send();
  }
  bool window_open = true;
  while (!outstanding.empty()) {
    auto [vertex, future] = std::move(outstanding.front());
    outstanding.pop_front();
    auto response = future.get();
    const Clock::time_point now = Clock::now();
    window_open = window_open && SecondsSince(start) < seconds;
    if (response.has_value()) {
      ++closed.ok;
      if (window_open) {
        completions.push_back(now);
      }
      closed.batch_sum += response->batch_size;
      vertices.push_back(vertex);
      const float* row = response->logits.data();
      rows.insert(rows.end(), row, row + classes);
      if (vertices.size() == kCheckBlock) {
        check_block();
      }
    }
    if (window_open) {
      send();
    }
  }
  check_block();
  closed.counters = AllocCounters::Read() - before;
  const seastar::serve::ServerStats stats_after = server.stats();
  closed.batches = stats_after.batches - stats_before.batches;
  closed.served = stats_after.served - stats_before.served;
  closed.window_rps = WindowRates(completions, start);
  return closed;
}

// Checks both loops' answers against the direct forward and the
// benchmark's tallies against the server's; returns the tallies.
ServeTally CheckServing(const OpenLoop& open, const ClosedLoop& closed, const Tensor& full,
                        const seastar::serve::ServerStats& stats, RunResult* result) {
  const int64_t classes = full.dim(1);
  ServeTally tally;
  std::vector<int32_t> answered;
  std::vector<float> rows;
  for (size_t i = 0; i < open.records.size(); ++i) {
    const ServeRecord& r = open.records[i];
    ++tally.submitted;
    if (!r.ok) {
      ++tally.failed;
      continue;
    }
    ++(r.degraded ? tally.degraded : tally.served);
    answered.push_back(open.vertices[i]);
    rows.insert(rows.end(), open.answers.begin() + static_cast<int64_t>(i) * classes,
                open.answers.begin() + static_cast<int64_t>(i + 1) * classes);
  }
  tally.submitted += closed.sent;
  tally.served += closed.ok;
  tally.failed += closed.sent - closed.ok;
  result->Check("open-loop answers equal the direct forward",
                CheckServedRows(full, answered, rows));
  result->Check("closed-loop answers equal the direct forward", closed.check);
  result->Check("server tallies", CheckServeTallies(tally, stats));
  return tally;
}

// Open-loop latencies (ms), each from when the request was due until its
// answer was collected.
std::vector<double> OpenLatencies(const OpenLoop& open) {
  std::vector<double> latency;
  for (const ServeRecord& r : open.records) {
    latency.push_back(MillisBetween(r.due, r.done));
  }
  return latency;
}

// p99 lateness (ms) of the open-loop sender against its schedule.
double GeneratorLateMs(const OpenLoop& open) {
  std::vector<double> late;
  for (const ServeRecord& r : open.records) {
    late.push_back(MillisBetween(r.due, r.submit_start));
  }
  return Quantile(late, 0.99);
}

void AddServeLayerMetrics(const OpenLoop& open, const ClosedLoop& closed,
                          const seastar::serve::ServerStats& stats, double start_s,
                          RunResult* result) {
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> batch;
  for (const ServeRecord& r : open.records) {
    submit_us.push_back(1e3 * MillisBetween(r.submit_start, r.submit_end));
    queue_ms.push_back(r.queue_ms);
    exec_ms.push_back(r.exec_ms);
    batch.push_back(r.batch_size);
  }
  result->Add("serve.start_s", start_s, "s");
  result->Add("serve.submit_us", Median(submit_us), "us");
  result->Add("serve.exec_p50_ms", Median(exec_ms), "ms");
  result->Add("serve.batch_size_open", Mean(batch), "count");
  result->Add("serve.queue_p50_ms", Median(queue_ms), "ms");
  result->Add("serve.queue_p99_ms", Quantile(queue_ms, 0.99), "ms");
  result->Add("serve.latency_p99_ms", Quantile(OpenLatencies(open), 0.99), "ms");
  result->Add("serve.batch_size_saturated",
              closed.batch_sum / static_cast<double>(std::max<int64_t>(1, closed.ok)), "count");
  result->Add("serve.forwards_per_request",
              static_cast<double>(closed.batches) /
                  static_cast<double>(std::max<int64_t>(1, closed.served)),
              "ratio");
  result->Add("serve.retries", static_cast<double>(stats.retries), "count");
  result->Add("serve.generator_late_ms", GeneratorLateMs(open), "ms");
}

// Requests in a training workload's serving probe, and the open-loop rate
// as a share of one request per eval forward (well below capacity, which
// batches up to eight requests per forward).
constexpr int64_t kProbeOpenRequests = 16;
constexpr double kProbeLoad = 0.5;

// The serving layer on a training workload: serve::Server over the trained
// model, a short open loop and a closed loop of at least eight forwards.
// Every answer is checked against a direct forward, as on serve_gcn.
void RunServeProbe(seastar::GnnModel& model, const seastar::Dataset& data, double eval_forward_ms,
                   uint64_t seed, SpanRecorder& spans, RunResult* result) {
  ScopedSpan probe(spans, "bench.serving_probe");
  const Tensor full = model.Forward(/*training=*/false).value().Clone();
  double start_s = 0.0;
  std::unique_ptr<seastar::serve::Server> server;
  {
    ScopedSpan span(spans, "serve.start");
    server = StartServer(model, data, &start_s);
  }
  SeedStream rng(seed ^ 0x5e4e5eedull);
  const double eval_s = eval_forward_ms / 1e3;
  const OpenLoop open =
      RunOpenLoop(*server, full, kProbeOpenRequests, kProbeLoad / eval_s, rng, spans);
  const ClosedLoop closed = RunClosedLoop(*server, full, std::max(1.0, 8.0 * eval_s), rng);
  server->Shutdown();
  const seastar::serve::ServerStats stats = server->stats();
  CheckServing(open, closed, full, stats, result);
  AddServeLayerMetrics(open, closed, stats, start_s, result);
}

// ---- Workloads ---------------------------------------------------------------------------------

RunResult RunTraining(bool gat, const Options& options) {
  SpanRecorder spans(options.trace);
  RunResult result;
  GeneratedInput input;
  seastar::Dataset data;
  Trainer trainer;
  double graph_build_s = 0.0;
  std::vector<float> losses;
  {
    ScopedSpan span(spans, "bench.inputs");
    input = Generate(gat ? AmzPhotoShape() : AmzCompShape(), options.seed);
  }
  // setup_s runs from handing the generated arrays to the program until
  // steady state; the benchmark's own input generation is not part of it.
  const Clock::time_point setup_start = Clock::now();
  {
    ScopedSpan setup(spans, "bench.setup");
    {
      ScopedSpan span(spans, "graph.build");
      data = ToDataset(input, &graph_build_s);
    }
    {
      ScopedSpan span(spans, "core.model_init");
      trainer = MakeTrainer(gat, data, "seastar");
    }
    ScopedSpan span(spans, "core.warmup");
    SpanRecorder off(false);
    for (int e = 0; e < kWarmupEpochs; ++e) {
      losses.push_back(trainer.Epoch(data, off));
    }
  }
  const double setup_s = SecondsSince(setup_start);

  // Steady window. A traced run alternates a plain epoch with a traced one,
  // so the tracing overhead is measured under the same host conditions.
  seastar::TensorAllocator::Get().ResetPeak();
  SpanRecorder off(false);
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  AllocCounters steady;
  int64_t steady_epochs = 0;
  const Clock::time_point window = Clock::now();
  for (int round = 0; SecondsSince(window) < options.seconds || round < kMinSteadyEpochs;
       ++round) {
    const bool traced = options.trace && round % 2 == 1;
    const AllocCounters before = AllocCounters::Read();
    const Clock::time_point start = Clock::now();
    losses.push_back(trainer.Epoch(data, traced ? spans : off));
    (traced ? traced_ms : plain_ms).push_back(MillisBetween(start, Clock::now()));
    steady += AllocCounters::Read() - before;
    ++steady_epochs;
  }
  const double peak_tensor_mb =
      static_cast<double>(seastar::TensorAllocator::Get().peak_bytes()) / (1024.0 * 1024.0);
  // Read before the probes and the correctness checks, whose reference
  // models and double-precision buffers would otherwise raise the mark.
  const double peak_rss_mb = PeakRssMb();
  result.attempted = steady_epochs;
  result.samples_ms = plain_ms;

  if (options.trace) {
    const double eval_forward_ms = RunProbes(gat, data, *trainer.model, options.seed, spans,
                                             &result);
    RunServeProbe(*trainer.model, data, eval_forward_ms, options.seed, spans, &result);
    RunBaselineProbe(gat, trainer, data, spans);
    AddEpochLayerMetrics(spans, &result);
    result.Add("core.model_init_s", spans.Durations("core.model_init")[0] / 1e3, "s");
    result.Add("core.warmup_s", spans.Durations("core.warmup")[0] / 1e3, "s");
    result.Add("graph.build_s", graph_build_s, "s");
    result.Add("bench.inputs_s", spans.Durations("bench.inputs")[0] / 1e3, "s");
    const double epochs = static_cast<double>(steady_epochs);
    AddAllocMetrics(steady, epochs, &result);
    result.Add("exec.plan_misses", static_cast<double>(steady.plan_misses) / epochs, "count");
    const double traced = Quantile(traced_ms, kEpochQuantile);
    result.Add("bench.traced_op_ms", traced, "ms");
    result.Add("bench.trace_overhead_pct",
               100.0 * (traced / Quantile(plain_ms, kEpochQuantile) - 1.0), "%");
  }

  // Correctness, outside every timed window.
  result.Check("loss decreased", CheckLossDecreased(losses.front(), losses.back()));
  if (gat) {
    CheckGatAgainstPyg(*trainer.model, data, &result);
  } else {
    CheckGcn(input, *trainer.model, &result);
  }

  if (!options.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("latency_ms", Quantile(plain_ms, kEpochQuantile), "ms");
    result.Add("throughput_per_s", BestEpochRate(plain_ms), "1/s");
    result.Add("peak_tensor_mb", peak_tensor_mb, "MB");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    spans.Write(options.out_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + ".trace.json");
  }
  return result;
}

RunResult RunServing(const Options& options) {
  SpanRecorder spans(options.trace);
  RunResult result;
  GeneratedInput input;
  seastar::Dataset data;
  std::unique_ptr<seastar::GnnModel> model;
  std::unique_ptr<seastar::serve::Server> server;
  double graph_build_s = 0.0;
  double start_s = 0.0;
  Tensor full;
  {
    ScopedSpan span(spans, "bench.inputs");
    input = Generate(CoraShape(), options.seed);
  }
  const Clock::time_point setup_start = Clock::now();
  {
    ScopedSpan setup(spans, "bench.setup");
    {
      ScopedSpan span(spans, "graph.build");
      data = ToDataset(input, &graph_build_s);
    }
    {
      ScopedSpan span(spans, "core.model_init");
      model = MakeModel(/*gat=*/false, data, "seastar");
    }
    {
      ScopedSpan span(spans, "serve.start");
      server = StartServer(*model, data, &start_s);
    }
    // The served model's full logits, from a direct forward while the
    // server is idle; every answer must equal its row bit for bit. This
    // first forward compiles the plans and fills the allocator pool, so it
    // is the serving warm-up and ends set-up, as the warm-up epochs do for
    // training.
    ScopedSpan span(spans, "core.warmup");
    full = model->Forward(/*training=*/false).value().Clone();
  }
  const double setup_s = SecondsSince(setup_start);
  SeedStream rng(options.seed ^ 0x5e4e5eedull);

  seastar::TensorAllocator::Get().ResetPeak();
  const int64_t open_count =
      std::clamp(static_cast<int64_t>(kOpenLoopRps * options.seconds * kOpenLoopShare),
                 kMinOpenRequests, kMaxOpenRequests);
  const OpenLoop open = RunOpenLoop(*server, full, open_count, kOpenLoopRps, rng, spans);
  const ClosedLoop closed =
      RunClosedLoop(*server, full, options.seconds * (1.0 - kOpenLoopShare), rng);
  const double peak_tensor_mb =
      static_cast<double>(seastar::TensorAllocator::Get().peak_bytes()) / (1024.0 * 1024.0);
  const double peak_rss_mb = PeakRssMb();
  server->Shutdown();
  const seastar::serve::ServerStats stats = server->stats();

  const std::vector<double> latency = OpenLatencies(open);
  result.generator_late_ms = GeneratorLateMs(open);
  result.samples_ms = latency;
  result.window_rps = closed.window_rps;

  // Correctness, outside every timed window.
  const ServeTally tally = CheckServing(open, closed, full, stats, &result);
  result.attempted = tally.submitted;
  result.failed = tally.failed;
  CheckGcn(input, *model, &result);

  if (options.trace) {
    AddServeLayerMetrics(open, closed, stats, start_s, &result);
    result.Add("graph.build_s", graph_build_s, "s");
    result.Add("bench.inputs_s", spans.Durations("bench.inputs")[0] / 1e3, "s");
    result.Add("core.model_init_s", spans.Durations("core.model_init")[0] / 1e3, "s");
    result.Add("core.warmup_s", spans.Durations("core.warmup")[0] / 1e3, "s");
    AddAllocMetrics(closed.counters, static_cast<double>(std::max<int64_t>(1, closed.ok)),
                    &result);
    result.Add("exec.plan_misses",
               static_cast<double>(open.counters.plan_misses + closed.counters.plan_misses) /
                   static_cast<double>(tally.submitted),
               "count");
    RunProbes(/*gat=*/false, data, *model, options.seed, spans, &result);
    RunTrainingProbe(/*gat=*/false, data, spans);
    AddEpochLayerMetrics(spans, &result);
    // Every other open-loop request was sent with its submit span recorded.
    std::vector<double> latency_traced;
    std::vector<double> latency_plain;
    for (size_t i = 0; i < latency.size(); ++i) {
      (i % 2 == 1 ? latency_traced : latency_plain).push_back(latency[i]);
    }
    result.Add("bench.traced_op_ms", Median(latency_traced), "ms");
    result.Add("bench.trace_overhead_pct",
               100.0 * (Median(latency_traced) / Median(latency_plain) - 1.0), "%");
    spans.Write(options.out_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + ".trace.json");
  } else {
    result.Add("setup_s", setup_s, "s");
    result.Add("latency_ms", WindowedQuantile(latency, 0.5), "ms");
    // The best closed-loop window: host phases only ever lower the rate, and
    // of the quantiles tried (p75, p90, max) the maximum repeated most
    // tightly across runs (README).
    result.Add("throughput_per_s", Quantile(closed.window_rps, 1.0), "1/s");
    result.Add("peak_tensor_mb", peak_tensor_mb, "MB");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
  }
  return result;
}

// ---- Main --------------------------------------------------------------------------------------

void WriteRunRecord(const Options& options, const RunResult& result, int threads,
                    int64_t steal_ticks) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload) << ", \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << JsonString(CpuModel()) << ", \"threads\": " << threads
      << ", \"host_steal_ticks\": " << steal_ticks;
  if (result.generator_late_ms >= 0.0) {
    out << ", \"generator_late_p99_ms\": " << result.generator_late_ms;
  }
  out << ", \"samples_ms\": [";
  for (size_t i = 0; i < result.samples_ms.size(); ++i) {
    out << (i == 0 ? "" : ",") << result.samples_ms[i];
  }
  out << "]";
  out << ", \"window_rps\": [";
  for (size_t i = 0; i < result.window_rps.size(); ++i) {
    out << (i == 0 ? "" : ",") << result.window_rps[i];
  }
  out << "]";
  out << ", \"checks\": [";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(result.checks[i]);
  }
  out << "], \"result\": " << Json(result) << "}\n";
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".run.json";
  std::ofstream(path) << out.str();
  std::fprintf(stderr, "perfbench: run record %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <train_gcn|train_gat|serve_gcn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const int64_t steal_before = HostStealTicks();
  const int threads = seastar::ThreadPool::Get().num_threads() + 1;
  RunResult result;
  if (options.workload == "train_gcn") {
    result = RunTraining(/*gat=*/false, options);
  } else if (options.workload == "train_gat") {
    result = RunTraining(/*gat=*/true, options);
  } else if (options.workload == "serve_gcn") {
    result = RunServing(options);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  WriteRunRecord(options, result, threads, HostStealTicks() - steal_before);
  std::printf("%s\n", Json(result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
