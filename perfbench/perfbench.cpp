// perfbench: the measurement half of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out RAW.json
//             [--work DIR]
//   perfbench --selftest serve-probes --work DIR
//
// Runs one workload through the public entry points (core::PruneTrainer::run,
// serve::ServeRuntime::run), checks its outputs, and writes the raw samples
// (setup times, epoch times, step times, serve windows, check verdicts) as
// one JSON object. perfbench/run.py turns the samples into the named
// metrics. Every workload has the same two phases:
//
//   train  a PruneTrain run (group lasso + periodic reconfiguration) of the
//          workload's model, followed by interleaved dense-vs-final step
//          timing and a one-step 1-vs-N-thread bitwise check;
//   serve  a ServeRuntime replay of a generated open-loop trace over the
//          workload's checkpoint generations, repeated for --seconds (at
//          least 10 replays), with no-op schedule() probes stamping wall time
//          at fixed modeled-tick windows.
//
// Training is fixed work: one full PruneTrainer::run whatever --seconds is.
//
// With --trace 1 the program's own telemetry and per-node profiling are on
// during both phases, and afterwards layer probes call each module's public
// functions (tensor GEMM/im2col, graph forward/backward, optim, data, prune,
// core, ckpt, robust, dist, serve) at the dense and final models' shapes
// inside benchmark-owned spans. The spans are kept in memory and written to
// <work>/trace-<workload>-<seed>.json at exit; self time of a span is its
// duration minus the part its child spans cover.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/trainer.h"
#include "cost/flops.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "dist/allreduce.h"
#include "dist/codec.h"
#include "dist/elastic.h"
#include "exec/context.h"
#include "graph/network.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "optim/sgd.h"
#include "prune/channel_analysis.h"
#include "prune/materialize.h"
#include "prune/reconfigure.h"
#include "robust/integrity.h"
#include "serve/server.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using pt::telemetry::Json;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Tracing: benchmark-owned spans around calls into the modules.

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< seconds since the tracer's origin
    double end = 0;
    int parent = -1;
  };

  void enable(std::string run_id) {
    on_ = true;
    run_id_ = std::move(run_id);
  }

  int open(const std::string& name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// Sum of durations and call count of every span named `name`.
  std::pair<double, std::int64_t> total(const std::string& name) const {
    double s = 0;
    std::int64_t n = 0;
    for (const Span& sp : spans_) {
      if (sp.name != name) continue;
      s += sp.end - sp.start;
      ++n;
    }
    return {s, n};
  }
  /// Mean milliseconds per call of `name` (0 when it never ran).
  double mean_ms(const std::string& name) const {
    const auto [s, n] = total(name);
    return n > 0 ? 1e3 * s / static_cast<double>(n) : 0.0;
  }

  /// Self seconds per span name: each span's duration minus the union of
  /// its children's intervals.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& sp : spans_) {
      if (sp.parent >= 0) {
        kids[static_cast<std::size_t>(sp.parent)].push_back({sp.start, sp.end});
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0, lo = 0, hi = -1;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      out[spans_[i].name] += (spans_[i].end - spans_[i].start) - covered;
    }
    return out;
  }

  void write(const fs::path& path) const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Json e = Json::object();
      e["id"] = Json(static_cast<std::int64_t>(i));
      e["name"] = Json(spans_[i].name);
      e["start_s"] = Json(spans_[i].start);
      e["end_s"] = Json(spans_[i].end);
      e["parent"] = Json(static_cast<std::int64_t>(spans_[i].parent));
      e["run"] = Json(run_id_);
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc["run"] = Json(run_id_);
    doc["spans"] = std::move(events);
    std::ofstream(path) << doc.dump() << "\n";
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool on_ = false;
  std::string run_id_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

class Scoped {
 public:
  explicit Scoped(const std::string& name) : id_(tracer().open(name)) {}
  ~Scoped() { tracer().close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct TrainSpec {
  float width = 0.5f;              ///< ResNet-20 width multiplier
  std::int64_t train_samples = 512;
  float lr = 0.1f;
  float lasso_boost = 150.f;  ///< the quickstart's proxy-scale boost
  std::int64_t epochs = 36;
  std::int64_t batch = 64;
  std::int64_t replicas = 1;
  std::string codec = "dense";
  std::int64_t sdc_interval = 0;
  std::int64_t keep_checkpoints = 0;  ///< > 0: checkpointing on
};

struct Workload {
  std::string name;
  TrainSpec train;
  /// > 0: the served tenant "resnet20" is a setup-built chain of this many
  /// progressively narrower generations of a dense ResNet-20 w0.5, and the
  /// trained model is a second tenant. 0: the served tenant is the trained
  /// model itself (dense start, then its generations).
  std::int64_t chain = 0;
  std::int64_t serve_ticks = 2048;  ///< modeled trace length per replay
};

/// Hot-path threads of every phase. On a shared 4-vCPU guest the 2-thread
/// pool ran slower than 1 thread and about twice as sensitive to neighbour
/// load, which put run-to-run spreads past the bounds.
constexpr int kThreads = 1;
constexpr std::int64_t kMaxBatch = 8;
constexpr pt::serve::Tick kWindowTicks = 128;

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "prunetrain_resnet20") {
    w.train.keep_checkpoints = 4;
  } else if (name == "dataparallel_twobit") {
    w.train.batch = 16;
    w.train.replicas = 4;
    w.train.codec = "twobit";
    w.train.sdc_interval = 4;
    w.train.lr = 0.05f;  // the 4x smaller global batch takes half the LR
    w.train.epochs = 24;
    w.train.train_samples = 256;
  } else if (name == "serve_swap") {
    w.train.width = 0.25f;
    w.train.lasso_boost = 50.f;  // at 150 the narrow model collapses
    w.chain = 6;
    w.serve_ticks = 4096;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers over the public API.

pt::graph::Network clone(pt::graph::Network& net) {
  return pt::ckpt::Checkpoint::capture(net).restore_network();
}

pt::Shape sample_shape(const pt::data::SyntheticSpec& s) {
  return {s.channels, s.height, s.width};
}

double train_flops(pt::graph::Network& net, const pt::Shape& input) {
  return pt::cost::FlopsModel(net, input).training_flops();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::vector<float> flat_params(pt::graph::Network& net) {
  std::vector<float> out;
  for (const pt::nn::Param* p : net.params()) {
    out.insert(out.end(), p->value.data(), p->value.data() + p->value.numel());
  }
  return out;
}

std::int64_t argmax_row(const float* row, std::int64_t n) {
  return static_cast<std::int64_t>(std::max_element(row, row + n) - row);
}

Json array_of(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(Json(x));
  return a;
}

/// One optimizer step's worth of work on the workload's engine: a single
/// network (forward, loss, backward, SGD) or an ElasticCluster of clones
/// (sharded step with the workload's codec).
class StepRig {
 public:
  StepRig(pt::graph::Network& source, const TrainSpec& spec)
      : opt_(0.01f, 0.9f, 1e-4f) {
    if (spec.replicas > 1) {
      pt::ckpt::Checkpoint image = pt::ckpt::Checkpoint::capture(source);
      std::vector<pt::graph::Network> replicas;
      for (std::int64_t r = 0; r < spec.replicas; ++r) {
        replicas.push_back(image.restore_network());
      }
      pt::cost::CommSpec comm;
      comm.gpus = static_cast<int>(spec.replicas);
      cluster_ = std::make_unique<pt::dist::ElasticCluster>(std::move(replicas),
                                                             comm);
      cluster_->set_codec(std::shared_ptr<pt::dist::GradientCodec>(
          pt::dist::CodecRegistry::global().create(spec.codec)));
    } else {
      net_ = std::make_unique<pt::graph::Network>(clone(source));
      named_ = pt::nn::group_params(net_->state());
    }
  }

  void step(pt::exec::ExecContext& ctx, const pt::data::Batch& batch) {
    if (cluster_) {
      cluster_->step(ctx, batch, opt_);
      return;
    }
    pt::Tensor out = net_->forward(ctx, batch.images, true);
    loss_.forward(out, batch.labels);
    net_->zero_grad();
    net_->backward(ctx, loss_.backward());
    opt_.step(named_);
  }

  pt::graph::Network& net() { return cluster_ ? cluster_->replica(0) : *net_; }

 private:
  pt::optim::SGD opt_;
  pt::nn::SoftmaxCrossEntropy loss_;
  std::unique_ptr<pt::graph::Network> net_;
  std::vector<pt::nn::NamedParam> named_;
  std::unique_ptr<pt::dist::ElasticCluster> cluster_;
};

pt::core::TrainConfig train_config(const TrainSpec& t) {
  pt::core::TrainConfig cfg;
  cfg.epochs = t.epochs;
  cfg.batch_size = t.batch;
  cfg.base_lr = t.lr;
  cfg.lr_milestones = {t.epochs / 2, 3 * t.epochs / 4};
  cfg.policy = pt::core::PrunePolicy::kPruneTrain;
  cfg.strategy = "group_lasso";
  cfg.lasso_ratio = 0.25f;
  cfg.lasso_boost = t.lasso_boost;
  cfg.reconfig_interval = std::max<std::int64_t>(2, t.epochs / 6);
  cfg.eval_interval = 4;
  cfg.num_threads = kThreads;
  cfg.replicas = t.replicas;
  cfg.codec = t.codec;
  cfg.sdc_check_interval = t.sdc_interval;
  cfg.keep_checkpoints = t.keep_checkpoints;
  return cfg;
}

// ---------------------------------------------------------------------------
// Serving.

struct Generation {
  std::string file;  ///< checkpoint file holding this generation
  std::int64_t number = 0;
  pt::serve::Tick at = 0;  ///< modeled tick it lands in the watched dir
};

struct Tenant {
  std::string name;
  std::vector<Generation> gens;
};

struct ServeRun {
  pt::serve::ServeReport report;
  double wall_s = 0;
  std::vector<double> window_ms;
};

struct ServePlan {
  std::vector<Tenant> tenants;
  pt::Shape input;
  double flops_per_tick = 1;
  std::vector<pt::serve::Request> trace;
  pt::serve::Tick ticks = 0;
};

/// One replay of the plan's trace on a fresh runtime. `window_probes` adds
/// the no-op schedule() actions that stamp wall time every kWindowTicks.
ServeRun serve_once(const ServePlan& plan, const fs::path& work,
                    pt::exec::ExecContext& ctx, bool window_probes) {
  pt::serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = kMaxBatch;
  cfg.max_queue = 0;  // unbounded: the open loop never sheds on depth
  cfg.shed_on_infeasible = false;
  cfg.flops_per_tick = plan.flops_per_tick;
  cfg.poll_interval = 16;
  pt::serve::ServeRuntime runtime(cfg, ctx);
  for (const Tenant& t : plan.tenants) {
    const fs::path dir = work / ("watch-" + t.name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto land = [dir](const Generation& g) {
      fs::copy_file(g.file, dir / ("ckpt-epoch-" + std::to_string(g.number) + ".bin"),
                    fs::copy_options::overwrite_existing);
    };
    land(t.gens.front());
    runtime.add_model(t.name, dir.string(), plan.input);
    for (std::size_t i = 1; i < t.gens.size(); ++i) {
      const Generation g = t.gens[i];
      runtime.schedule(g.at, [land, g] { land(g); });
    }
  }
  ServeRun out;
  std::vector<Clock::time_point> stamps;
  if (window_probes) {
    stamps.reserve(static_cast<std::size_t>(plan.ticks / kWindowTicks + 2));
    for (pt::serve::Tick t = 0; t <= plan.ticks; t += kWindowTicks) {
      runtime.schedule(t, [&stamps] { stamps.push_back(Clock::now()); });
    }
  }
  const Clock::time_point t0 = Clock::now();
  out.report = runtime.run(plan.trace);
  out.wall_s = seconds_between(t0, Clock::now());
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    out.window_ms.push_back(1e3 * seconds_between(stamps[i - 1], stamps[i]));
  }
  return out;
}

struct CheckList {
  Json items = Json::array();
  std::int64_t failed = 0;
  void add(const std::string& name, bool ok, const std::string& detail) {
    Json c = Json::object();
    c["name"] = Json(name);
    c["ok"] = Json(ok);
    c["detail"] = Json(detail);
    items.push_back(std::move(c));
    if (!ok) ++failed;
    if (!ok) std::cerr << "perfbench: check failed: " << name << ": " << detail << "\n";
  }
};

/// Verifies one replay: nothing shed or dropped, every logit finite, and a
/// seeded sample of responses whose argmax equals a direct forward of the
/// generation that served them. Returns the number of wrong responses.
std::int64_t verify_serve(const ServePlan& plan, const ServeRun& run,
                          std::uint64_t seed, pt::exec::ExecContext& ctx,
                          CheckList& checks) {
  const auto& rep = run.report;
  checks.add("serve.admitted_eq_completed", rep.admitted == rep.completed,
             std::to_string(rep.admitted) + " admitted, " +
                 std::to_string(rep.completed) + " completed");
  checks.add("serve.no_drop_no_shed", rep.dropped == 0 && rep.shed == 0,
             std::to_string(rep.dropped) + " dropped, " +
                 std::to_string(rep.shed) + " shed");
  std::int64_t nonfinite = 0;
  for (const auto& r : rep.responses) {
    if (r.shed) continue;
    const float* p = r.logits.data();
    for (std::int64_t i = 0; i < r.logits.numel(); ++i) {
      if (!std::isfinite(p[i])) {
        ++nonfinite;
        break;
      }
    }
  }
  checks.add("serve.logits_finite", nonfinite == 0,
             std::to_string(nonfinite) + " responses with non-finite logits");

  std::map<std::string, const Tenant*> tenants;
  for (const Tenant& t : plan.tenants) tenants[t.name] = &t;
  std::map<std::pair<std::string, std::int64_t>, pt::graph::Network> nets;
  pt::Rng rng(seed ^ 0x5e4e5eedULL);
  const std::int64_t samples = std::min<std::int64_t>(48, rep.responses.size());
  std::int64_t wrong = 0;
  for (std::int64_t s = 0; s < samples; ++s) {
    const auto& r = rep.responses[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(rep.responses.size())))];
    const pt::serve::Request& req = plan.trace[static_cast<std::size_t>(r.request_id)];
    if (r.shed || req.id != r.request_id) {
      ++wrong;
      continue;
    }
    const auto key = std::make_pair(req.model, r.generation);
    auto it = nets.find(key);
    if (it == nets.end()) {
      const Tenant* t = tenants.at(req.model);
      const auto g = std::find_if(t->gens.begin(), t->gens.end(),
                                  [&](const Generation& x) { return x.number == r.generation; });
      if (g == t->gens.end()) {
        ++wrong;
        continue;
      }
      pt::graph::Network net = pt::ckpt::Checkpoint::load(g->file).restore_network();
      pt::prune::materialize_inference(net, pt::prune::InferenceForm::kChannelUnion);
      it = nets.emplace(key, std::move(net)).first;
    }
    const pt::Shape& in = req.input.shape();
    pt::Tensor x({1, in[0], in[1], in[2]});
    std::copy(req.input.data(), req.input.data() + req.input.numel(), x.data());
    pt::Tensor y = it->second.forward(ctx, x, false);
    if (argmax_row(y.data(), y.numel()) != r.argmax) ++wrong;
  }
  checks.add("serve.sampled_argmax_matches_direct_forward", wrong == 0,
             std::to_string(wrong) + " of " + std::to_string(samples) +
                 " sampled responses differ");
  return wrong + nonfinite;
}

/// Hot-swap faults of one replay: a tenant whose swaps did not publish every
/// planned generation in order (the cold start included), plus every
/// quarantined generation and every rollback. A replay left on an older
/// generation still serves correct responses, so the response checks alone
/// would not see it.
struct SwapFaults {
  std::int64_t out_of_plan = 0;  ///< tenants whose swap sequence differs
  std::int64_t quarantined = 0;
  std::int64_t rollbacks = 0;
  std::int64_t total() const { return out_of_plan + quarantined + rollbacks; }
};

SwapFaults swap_faults(const ServePlan& plan, const pt::serve::ServeReport& rep) {
  SwapFaults f;
  f.quarantined = rep.quarantined;
  f.rollbacks = static_cast<std::int64_t>(rep.rollbacks.size());
  for (const Tenant& t : plan.tenants) {
    std::vector<std::int64_t> want, got;
    for (const Generation& g : t.gens) want.push_back(g.number);
    for (const auto& ev : rep.swaps) {
      if (ev.record.model == t.name) got.push_back(ev.record.to_generation);
    }
    if (got != want) ++f.out_of_plan;
  }
  return f;
}

// ---------------------------------------------------------------------------
// serve_swap's generation chain: seeded channel zeroing + reconfiguration.

/// Zeroes a seeded `drop` fraction of every prunable channel variable: all
/// writer-conv output rows and reader-conv input slices of each chosen
/// channel, so the next reconfiguration removes it.
void zero_channels(pt::graph::Network& net, double drop, pt::Rng& rng) {
  const pt::prune::ChannelAnalysis an = pt::prune::analyze_channels(net, 1e-4f);
  for (const auto& var : an.vars) {
    if (var.dense_required || var.channels < 2) continue;
    std::vector<std::int64_t> order(static_cast<std::size_t>(var.channels));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    const auto n_drop = std::min<std::size_t>(
        order.size() - 1, static_cast<std::size_t>(drop * double(order.size())));
    for (std::size_t d = 0; d < n_drop; ++d) {
      const std::int64_t c = order[d];
      for (int id : var.writer_convs) {
        auto& w = net.layer_as<pt::nn::Conv2d>(id).weight().value;
        const std::int64_t row = w.numel() / w.shape()[0];
        std::fill(w.data() + c * row, w.data() + (c + 1) * row, 0.f);
      }
      for (int id : var.reader_convs) {
        auto& w = net.layer_as<pt::nn::Conv2d>(id).weight().value;
        const std::int64_t k = w.shape()[0], cin = w.shape()[1];
        const std::int64_t rs = w.shape()[2] * w.shape()[3];
        for (std::int64_t o = 0; o < k; ++o) {
          float* p = w.data() + (o * cin + c) * rs;
          std::fill(p, p + rs, 0.f);
        }
      }
    }
  }
}

/// zero_channels + reconfiguration: the network physically narrows.
void narrow(pt::graph::Network& net, double drop, pt::Rng& rng) {
  zero_channels(net, drop, rng);
  pt::prune::Reconfigurer(net, 1e-4f).reconfigure();
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only).

struct LayerMetrics {
  Json values = Json::object();
  Json spans = Json::object();
  void set(const std::string& name, double v, const std::string& span = "") {
    values[name] = Json(v);
    if (!span.empty()) spans[name] = Json(span);
  }
};

/// tensor.*: im2col / GEMM / col2im at every conv shape of `net`, one
/// sample per call, `reps` passes.
void probe_tensor(pt::graph::Network& net, const pt::Shape& input,
                  pt::exec::ExecContext& ctx, int reps, double flops[3]) {
  const std::vector<pt::Shape> shapes =
      pt::cost::infer_shapes(net, {1, input[0], input[1], input[2]});
  for (int id : net.nodes_of_type<pt::nn::Conv2d>()) {
    const auto& conv = net.layer_as<pt::nn::Conv2d>(id);
    const pt::Shape& in = shapes[static_cast<std::size_t>(net.node(id).inputs[0])];
    pt::ConvGeom g;
    g.in_c = in[1];
    g.in_h = in[2];
    g.in_w = in[3];
    g.kernel = conv.kernel();
    g.stride = conv.stride();
    g.pad = conv.pad();
    const std::int64_t k = conv.out_channels(), rows = g.col_rows(), cols = g.col_cols();
    std::vector<float> x(static_cast<std::size_t>(g.in_c * g.in_h * g.in_w), 0.5f);
    std::vector<float> col(static_cast<std::size_t>(rows * cols));
    std::vector<float> dcol(col.size());
    std::vector<float> y(static_cast<std::size_t>(k * cols), 0.25f);
    std::vector<float> dw(static_cast<std::size_t>(k * rows));
    const float* w = conv.weight().value.data();
    const double fwd = pt::cost::conv2d_forward_flops(
        double(k), double(g.in_c), g.kernel, g.out_h(), g.out_w());
    const double bwd = pt::cost::conv2d_backward_flops(
        double(k), double(g.in_c), g.kernel, g.out_h(), g.out_w());
    for (int r = 0; r < reps; ++r) {
      { Scoped s("tensor.im2col"); pt::im2col(g, x.data(), col.data()); }
      { Scoped s("tensor.gemm_nn");
        pt::gemm_nn(ctx, k, cols, rows, 1.f, w, col.data(), 0.f, y.data()); }
      { Scoped s("tensor.gemm_nt");
        pt::gemm_nt(ctx, k, rows, cols, 1.f, y.data(), col.data(), 0.f, dw.data()); }
      { Scoped s("tensor.gemm_tn");
        pt::gemm_tn(ctx, rows, cols, k, 1.f, w, y.data(), 0.f, dcol.data()); }
      { Scoped s("tensor.col2im"); pt::col2im(g, dcol.data(), x.data()); }
      flops[0] += fwd;
      flops[1] += bwd / 2;  // the dW half of conv2d_backward_flops
      flops[2] += bwd / 2;  // the dX half
    }
  }
}

struct NnTotals {
  double kind_fwd[4] = {0, 0, 0, 0};  ///< conv, bn, act, other (seconds)
  double kind_bwd[4] = {0, 0, 0, 0};
  double conv_fwd_flops = 0, conv_bwd_flops = 0;
  double profiled = 0;
  std::int64_t steps = 0;
};

int kind_of(const pt::graph::Node& n) {
  if (n.kind != pt::graph::Node::Kind::kLayer) return 3;
  const std::string t = n.layer->type();
  if (t == "Conv2d") return 0;
  if (t == "BatchNorm2d") return 1;
  if (t == "ReLU") return 2;
  return 3;
}

/// nn.* / graph.* / optim / data / exec: profiled training steps of `net`
/// inside graph.forward / graph.backward / optim.sgd / data.next spans.
void probe_steps(pt::graph::Network& source, const pt::data::SyntheticImageDataset& ds,
                 std::int64_t batch, std::uint64_t seed, pt::exec::ExecContext& ctx,
                 int steps, NnTotals& nn, double& pool_tasks, double& heap_allocs,
                 double& high_water) {
  pt::graph::Network net = clone(source);
  const std::vector<pt::nn::NamedParam> named = pt::nn::group_params(net.state());
  pt::optim::SGD opt(0.01f, 0.9f, 1e-4f);
  pt::nn::SoftmaxCrossEntropy loss;
  pt::data::DataLoader loader(ds, seed);
  auto one = [&](bool timed) {
    if (!loader.has_next()) loader.begin_epoch();
    pt::data::Batch b;
    { Scoped s(timed ? "data.next" : "probe.warmup"); b = loader.next(batch); }
    pt::Tensor out;
    { Scoped s(timed ? "graph.forward" : "probe.warmup"); out = net.forward(ctx, b.images, true); }
    loss.forward(out, b.labels);
    net.zero_grad();
    { Scoped s(timed ? "graph.backward" : "probe.warmup"); net.backward(ctx, loss.backward()); }
    { Scoped s(timed ? "optim.sgd" : "probe.warmup"); opt.step(named); }
  };
  loader.begin_epoch();
  one(false);  // warm the workspace arena
  net.set_profiling(true);
  net.reset_profile();
  const auto tasks0 = ctx.pool().tasks_run();
  const auto allocs0 = ctx.workspace().heap_allocations();
  for (int i = 0; i < steps; ++i) one(true);
  pool_tasks += double(ctx.pool().tasks_run() - tasks0);
  heap_allocs += double(ctx.workspace().heap_allocations() - allocs0);
  high_water = std::max(high_water, double(ctx.workspace().high_water_bytes()) / 1e6);

  const pt::Shape input{ds.spec().channels, ds.spec().height, ds.spec().width};
  pt::cost::FlopsModel fm(net, input);
  std::map<int, const pt::cost::LayerFlops*> lf;
  for (const auto& l : fm.layers()) lf[l.node] = &l;
  const auto& prof = net.profile();
  for (std::size_t i = 0; i < prof.size(); ++i) {
    if (!net.is_live(static_cast<int>(i))) continue;
    const int k = kind_of(net.node(static_cast<int>(i)));
    nn.kind_fwd[k] += prof[i].forward_seconds;
    nn.kind_bwd[k] += prof[i].backward_seconds;
    nn.profiled += prof[i].forward_seconds + prof[i].backward_seconds;
    if (k == 0 && lf.count(static_cast<int>(i))) {
      nn.conv_fwd_flops += lf[static_cast<int>(i)]->forward * double(batch) *
                           double(prof[i].forward_calls);
      nn.conv_bwd_flops += lf[static_cast<int>(i)]->backward * double(batch) *
                           double(prof[i].backward_calls);
    }
  }
  nn.steps += steps;
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string work = ".bench_out";
  std::string selftest;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::stoull(next());
    else if (k == "--seconds") a.seconds = std::stod(next());
    else if (k == "--trace") a.trace = next() != "0";
    else if (k == "--out") a.out = next();
    else if (k == "--work") a.work = next();
    else if (k == "--selftest") a.selftest = next();
    else throw std::invalid_argument("unknown flag " + k);
  }
  return a;
}

/// Everything set-up produces; rebuilt from scratch on each set-up repeat.
struct Setup {
  std::unique_ptr<pt::data::SyntheticImageDataset> ds;
  std::unique_ptr<pt::graph::Network> net;    ///< trained in place
  std::unique_ptr<pt::graph::Network> dense;  ///< untouched copy of the start
  std::unique_ptr<pt::core::PruneTrainer> trainer;
  std::vector<pt::graph::Network> chain;  ///< serve_swap generations
};

Setup set_up(const Workload& w, std::uint64_t seed, const fs::path& work) {
  Setup s;
  // The training task (dataset, initial weights, sample order) is fixed:
  // at this proxy scale the pruning trajectory is chaotic in all three, so
  // a seeded task would change the work per run far beyond the bounds.
  pt::data::SyntheticSpec spec = pt::data::SyntheticSpec::cifar10_like();
  spec.train_samples = w.train.train_samples;
  s.ds = std::make_unique<pt::data::SyntheticImageDataset>(spec);
  pt::models::ModelConfig mc;
  mc.image_h = spec.height;
  mc.image_w = spec.width;
  mc.classes = spec.classes;
  mc.width_mult = w.train.width;
  s.net = std::make_unique<pt::graph::Network>(pt::models::build_resnet_basic(20, mc));
  s.dense = std::make_unique<pt::graph::Network>(clone(*s.net));

  pt::core::TrainConfig cfg = train_config(w.train);
  if (w.train.keep_checkpoints > 0) {
    const fs::path dir = work / "ckpt";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cfg.checkpoint_dir = dir.string();
  }
  s.trainer = std::make_unique<pt::core::PruneTrainer>(*s.net, *s.ds, cfg);

  if (w.chain > 0) {
    pt::models::ModelConfig cc = mc;
    cc.width_mult = 0.5f;
    cc.seed = seed * 104729 + 7;
    pt::graph::Network base = pt::models::build_resnet_basic(20, cc);
    pt::Rng rng(seed + 0xc4a1);
    for (std::int64_t g = 0; g < w.chain; ++g) {
      s.chain.push_back(clone(base));
      if (g > 0) narrow(s.chain.back(), 0.75 * double(g) / double(w.chain - 1), rng);
    }
  }
  return s;
}

/// The serve phase's tenants, generation schedule and open-loop trace.
/// Writes every generation to a checkpoint file under `work` (fsync-bound
/// I/O, kept out of the timed set-up). Generations land in each tenant's
/// watched dir at evenly spaced ticks
/// across the first 3/4 of the trace. Arrivals are ~1 per tick per tenant,
/// so batches fill to max_batch long before the one-window deadline, which
/// only forces out the trace's last partial batch (a far deadline would make
/// the runtime tick through it one modeled tick at a time). Admission never
/// checks deadline feasibility, so nothing is shed.
ServePlan make_plan(const Workload& w, Setup& s, const fs::path& work,
                    std::uint64_t seed) {
  const pt::Shape input = sample_shape(s.ds->spec());
  ServePlan plan;
  plan.input = input;
  plan.ticks = w.serve_ticks;
  std::vector<pt::serve::TraceSpec> specs;
  auto add_tenant = [&](const std::string& name, std::vector<std::string> files) {
    Tenant t;
    t.name = name;
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto at = static_cast<pt::serve::Tick>(
          double(i) * 0.75 * double(plan.ticks) / double(std::max<std::size_t>(1, files.size() - 1)));
      t.gens.push_back({files[i], static_cast<std::int64_t>(i), i == 0 ? 0 : at});
    }
    plan.tenants.push_back(std::move(t));
    pt::serve::TraceSpec ts;
    ts.model = name;
    ts.mean_interarrival = 0.25;
    ts.end = plan.ticks;
    ts.deadline = kWindowTicks;
    ts.input = input;
    ts.seed = seed * 31 + specs.size() + 1;
    specs.push_back(ts);
  };
  auto save = [&](pt::graph::Network& net, const std::string& name) {
    const std::string file = (work / name).string();
    pt::ckpt::Checkpoint::capture(net).save(file);
    return file;
  };
  const std::string final_file = save(*s.net, "final.bin");
  double dense_inf = 0;
  if (w.chain > 0) {
    std::vector<std::string> files;
    for (std::size_t g = 0; g < s.chain.size(); ++g) {
      files.push_back(save(s.chain[g], "chain-" + std::to_string(g) + ".bin"));
    }
    add_tenant("resnet20", files);
    add_tenant("second", {final_file});
    dense_inf = pt::cost::FlopsModel(s.chain.front(), input).inference_flops();
  } else {
    std::vector<std::string> files{save(*s.dense, "dense.bin")};
    if (w.train.keep_checkpoints > 0) {
      for (const auto& g : pt::ckpt::list_generations((work / "ckpt").string())) {
        files.push_back(g.path);
      }
    }
    files.push_back(final_file);
    add_tenant("model", files);
    dense_inf = pt::cost::FlopsModel(*s.dense, input).inference_flops();
  }
  plan.trace = pt::serve::synthesize_trace(specs);
  plan.flops_per_tick = dense_inf * double(kMaxBatch) / 8.0;
  return plan;
}

int run_workload(const Args& args) {
  const Workload w = workload_by_name(args.workload);
  const fs::path work = fs::path(args.work) / ("run-" + w.name + "-" + std::to_string(args.seed));
  fs::remove_all(work);
  fs::create_directories(work);
  if (args.trace) {
    tracer().enable(w.name + "/seed" + std::to_string(args.seed) + "/trace");
  }
  CheckList checks;
  Json raw = Json::object();
  raw["workload"] = Json(w.name);
  raw["seed"] = Json(static_cast<std::int64_t>(args.seed));
  raw["trace"] = Json(args.trace);
  Json threads = Json::object();
  threads["train"] = Json(kThreads);
  threads["serve"] = Json(kThreads);
  threads["replicas"] = Json(w.train.replicas);
  raw["threads"] = std::move(threads);

  // --- set-up, repeated; the last one is used. Each sample is the mean of a
  // block of set-ups, 0.06-0.3 s long, so one short stall moves it little. ---
  constexpr int kSetupSamples = 11, kSetupsPerSample = 8;
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupSamples; ++rep) {
    Scoped sp("workload.setup");
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSetupsPerSample; ++i) {
      s.trainer.reset();  // it refers to the dataset and network replaced next
      s = set_up(w, args.seed, work);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()) / kSetupsPerSample);
  }
  raw["setup_s"] = array_of(setup_s);
  const pt::Shape input = sample_shape(s.ds->spec());

  // --- train ---
  if (args.trace) {
    pt::telemetry::MetricsRegistry::global().reset();
    pt::telemetry::set_enabled(true);
    s.net->set_profiling(true);
  }
  pt::core::TrainResult result;
  double train_s = 0;
  {
    Scoped sp("core.run");
    const Clock::time_point t0 = Clock::now();
    result = s.trainer->run();
    train_s = seconds_between(t0, Clock::now());
  }
  s.net->set_profiling(false);
  pt::telemetry::set_enabled(false);
  std::vector<double> epoch_s;
  std::int64_t steps = 0;
  bool flops_monotone = true;
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const auto& st = result.epochs[e];
    epoch_s.push_back(st.wall_seconds);
    steps += (s.ds->train_size() + st.batch_size - 1) / st.batch_size;
    if (e > 0 && st.flops_per_sample_train > result.epochs[e - 1].flops_per_sample_train) {
      flops_monotone = false;
    }
  }
  const double dense_flops = train_flops(*s.dense, input);
  const double final_flops = train_flops(*s.net, input);
  Json train = Json::object();
  train["run_s"] = Json(train_s);
  train["samples"] = Json(static_cast<std::int64_t>(result.epochs.size()) * s.ds->train_size());
  train["steps"] = Json(steps);
  train["epoch_s"] = array_of(epoch_s);
  train["final_test_acc"] = Json(result.final_test_acc);
  train["final_train_flops_frac"] = Json(final_flops / dense_flops);
  raw["train"] = std::move(train);

  std::int64_t fatal = 0;
  for (const auto& ev : s.trainer->recovery_report().events) {
    if (ev.severity == pt::robust::Severity::kFatal) ++fatal;
  }
  checks.add("train.no_fatal_health_event", fatal == 0,
             std::to_string(fatal) + " fatal events");
  checks.add("train.flops_non_increasing", flops_monotone,
             "per-epoch training FLOPs/sample");
  const std::int64_t heals =
      s.trainer->integrity_monitor() ? s.trainer->integrity_monitor()->heals() : 0;
  checks.add("robust.heals_zero", heals == 0, std::to_string(heals) + " heals");

  // --- dense-vs-final step timing, interleaved on one batch and context ---
  pt::data::DataLoader loader(*s.ds, args.seed + 1);
  loader.begin_epoch();
  const pt::data::Batch batch = loader.next(w.train.batch);
  std::vector<double> dense_ms, final_ms;
  {
    pt::exec::ExecContext ctx(kThreads);
    StepRig dense_rig(*s.dense, w.train), final_rig(*s.net, w.train);
    dense_rig.step(ctx, batch);
    final_rig.step(ctx, batch);
    const int pairs = 25;
    for (int i = 0; i < pairs; ++i) {
      for (int side = 0; side < 2; ++side) {
        StepRig& rig = ((i + side) % 2 == 0) ? dense_rig : final_rig;
        Scoped sp("core.step");
        const Clock::time_point t0 = Clock::now();
        rig.step(ctx, batch);
        ((&rig == &dense_rig) ? dense_ms : final_ms)
            .push_back(1e3 * seconds_between(t0, Clock::now()));
      }
    }
  }
  Json step_ms = Json::object();
  step_ms["dense"] = array_of(dense_ms);
  step_ms["final"] = array_of(final_ms);
  raw["step_ms"] = std::move(step_ms);

  // --- one-step bitwise check: 1 thread vs N threads ---
  {
    const int n = std::max(2, kThreads);
    pt::exec::ExecContext one(1), many(n);
    StepRig a(*s.net, w.train), b(*s.net, w.train);
    a.step(one, batch);
    b.step(many, batch);
    const auto pa = flat_params(a.net()), pb = flat_params(b.net());
    const bool same = pa.size() == pb.size() &&
                      std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)) == 0;
    checks.add("train.one_step_bitwise_1_vs_" + std::to_string(n) + "_threads", same,
               std::to_string(pa.size()) + " parameters compared");
  }

  // --- serve ---
  const ServePlan plan = make_plan(w, s, work, args.seed);

  std::vector<double> rps, window_ms;
  std::int64_t served_requests = 0, shed = 0, dropped = 0, wrong = 0;
  SwapFaults swaps;
  std::int64_t planned_swaps = 0;
  for (const Tenant& t : plan.tenants) planned_swaps += static_cast<std::int64_t>(t.gens.size());
  pt::serve::ServeReport first;
  {
    // A serve budget of its own, so the serve metrics rest on the same
    // amount of wall time whatever the training phase took.
    pt::exec::ExecContext ctx(kThreads);
    const int min_replays = 10;
    const Clock::time_point serve_begin = Clock::now();
    for (int rep = 0;; ++rep) {
      if (args.trace) pt::telemetry::set_enabled(true);
      ServeRun run;
      {
        Scoped sp("serve.run");
        run = serve_once(plan, work, ctx, true);
      }
      pt::telemetry::set_enabled(false);
      rps.push_back(double(run.report.completed) / run.wall_s);
      window_ms.insert(window_ms.end(), run.window_ms.begin(), run.window_ms.end());
      served_requests += run.report.requests;
      shed += run.report.shed;
      dropped += run.report.dropped;
      const SwapFaults f = swap_faults(plan, run.report);
      swaps.out_of_plan += f.out_of_plan;
      swaps.quarantined += f.quarantined;
      swaps.rollbacks += f.rollbacks;
      if (rep == 0) {
        wrong += verify_serve(plan, run, args.seed, ctx, checks);
        first = std::move(run.report);
      }
      const double elapsed = seconds_between(serve_begin, Clock::now());
      if (rep + 1 >= min_replays && elapsed >= args.seconds) break;
      if (rep + 1 >= 200) break;
    }
  }
  const std::string replays = " over " + std::to_string(rps.size()) + " replays";
  checks.add("serve.every_generation_swapped_in_order", swaps.out_of_plan == 0,
             std::to_string(swaps.out_of_plan) + " tenant replays off the plan of " +
                 std::to_string(planned_swaps) + " swaps per replay" + replays);
  checks.add("serve.no_quarantine_no_rollback", swaps.quarantined + swaps.rollbacks == 0,
             std::to_string(swaps.quarantined) + " quarantined, " +
                 std::to_string(swaps.rollbacks) + " rollbacks" + replays);
  Json serve = Json::object();
  serve["rps"] = array_of(rps);
  serve["window_ms"] = array_of(window_ms);
  serve["requests"] = Json(served_requests);
  serve["shed"] = Json(shed);
  serve["dropped"] = Json(dropped);
  serve["batches"] = Json(first.batches);
  serve["mean_batch_size"] = Json(first.mean_batch_size);
  raw["serve"] = std::move(serve);

  // --- layer probes ---
  if (args.trace) {
    LayerMetrics lm;
    Scoped probes("probe");
    pt::exec::ExecContext ctx(kThreads);
    pt::graph::Network* models[2] = {s.dense.get(), s.net.get()};
    {
      double flops[3] = {0, 0, 0};
      for (auto* m : models) probe_tensor(*m, input, ctx, 20, flops);
      const double reps = 2 * 20;
      lm.set("tensor.gemm_nn.gflops", flops[0] / tracer().total("tensor.gemm_nn").first / 1e9, "tensor.gemm_nn");
      lm.set("tensor.gemm_nt.gflops", flops[1] / tracer().total("tensor.gemm_nt").first / 1e9, "tensor.gemm_nt");
      lm.set("tensor.gemm_tn.gflops", flops[2] / tracer().total("tensor.gemm_tn").first / 1e9, "tensor.gemm_tn");
      lm.set("tensor.im2col.ms", 1e3 * tracer().total("tensor.im2col").first / reps, "tensor.im2col");
      lm.set("tensor.col2im.ms", 1e3 * tracer().total("tensor.col2im").first / reps, "tensor.col2im");
    }
    {
      NnTotals nn;
      double tasks = 0, allocs = 0, high_water = 0;
      for (auto* m : models) {
        probe_steps(*m, *s.ds, w.train.batch, args.seed, ctx, 6, nn, tasks, allocs, high_water);
      }
      const double st = double(nn.steps);
      const char* kinds[4] = {"conv", "bn", "act", "other"};
      for (int k = 0; k < 3; ++k) {
        lm.set(std::string("nn.") + kinds[k] + ".fwd_ms", 1e3 * nn.kind_fwd[k] / st, "graph.forward");
        lm.set(std::string("nn.") + kinds[k] + ".bwd_ms", 1e3 * nn.kind_bwd[k] / st, "graph.backward");
      }
      lm.set("nn.other.ms", 1e3 * (nn.kind_fwd[3] + nn.kind_bwd[3]) / st, "graph.forward");
      lm.set("nn.conv.fwd_gflops", nn.conv_fwd_flops / nn.kind_fwd[0] / 1e9, "graph.forward");
      lm.set("nn.conv.bwd_gflops", nn.conv_bwd_flops / nn.kind_bwd[0] / 1e9, "graph.backward");
      const double gf = tracer().total("graph.forward").first;
      const double gb = tracer().total("graph.backward").first;
      lm.set("graph.fwd_ms", 1e3 * gf / st, "graph.forward");
      lm.set("graph.bwd_ms", 1e3 * gb / st, "graph.backward");
      lm.set("graph.profile_coverage", nn.profiled / (gf + gb), "graph.forward");
      lm.set("exec.pool_tasks_per_step", tasks / st);
      lm.set("exec.heap_allocs_per_step", allocs / st);
      lm.set("exec.workspace_high_water_mb", high_water);
      lm.set("optim.sgd_ms", tracer().mean_ms("optim.sgd"), "optim.sgd");
      lm.set("data.batch_wait_ms", tracer().mean_ms("data.next"), "data.next");
    }
    {
      // prune: surgery on a seeded 25%-narrowed copy of the dense model.
      pt::Rng rng(args.seed + 0x9e);
      for (int r = 0; r < 3; ++r) {
        pt::graph::Network g = clone(*s.dense);
        zero_channels(g, 0.25, rng);
        Scoped sp("prune.reconfigure");
        pt::prune::Reconfigurer(g, 1e-4f).reconfigure();
      }
      lm.set("prune.reconfigure_ms", tracer().mean_ms("prune.reconfigure"), "prune.reconfigure");
    }
    {
      // core: a 2-epoch run of the final model with checkpoint, eval and
      // reconfiguration every epoch, read back from the trainer's spans.
      TrainSpec t = w.train;
      t.epochs = 2;
      pt::core::TrainConfig cfg = train_config(t);
      cfg.reconfig_interval = 1;
      cfg.eval_interval = 1;
      cfg.checkpoint_dir = (work / "core-probe").string();
      fs::create_directories(cfg.checkpoint_dir);
      pt::graph::Network g = clone(*s.net);
      pt::telemetry::MetricsRegistry::global().reset();
      pt::telemetry::set_enabled(true);
      {
        Scoped sp("core.probe_run");
        pt::core::PruneTrainer(g, *s.ds, cfg).run();
      }
      pt::telemetry::set_enabled(false);
      std::map<std::string, std::pair<double, double>> per;  // leaf -> (s, n)
      for (const auto& [path, st] : pt::telemetry::MetricsRegistry::global().spans()) {
        const std::string leaf = path.substr(path.rfind('/') + 1);
        per[leaf].first += st.total_seconds;
        per[leaf].second += double(st.count);
      }
      auto mean_s = [&](const std::string& leaf) {
        const auto& p = per[leaf];
        return p.second > 0 ? p.first / p.second : 0.0;
      };
      lm.set("core.eval_s", mean_s("eval"), "core.probe_run");
      lm.set("core.checkpoint_s", mean_s("checkpoint"), "core.probe_run");
      lm.set("core.reconfigure_s", mean_s("reconfigure"), "core.probe_run");
    }
    {
      // ckpt + robust on the final model.
      const std::string file = (work / "probe.bin").string();
      for (int r = 0; r < 5; ++r) {
        pt::ckpt::Checkpoint img;
        { Scoped sp("ckpt.save"); pt::ckpt::Checkpoint::capture(*s.net).save(file); }
        { Scoped sp("ckpt.load"); img = pt::ckpt::Checkpoint::load(file); }
        { Scoped sp("ckpt.restore"); pt::graph::Network g = img.restore_network(); }
        { Scoped sp("robust.digest"); pt::robust::compute_state_digest(*s.net, ctx); }
        pt::robust::CheckpointScrubber scrubber;
        scrubber.note_saved(file, 0);
        scrubber.note_saved(plan.tenants.front().gens.front().file, 1);
        { Scoped sp("robust.scrub"); scrubber.scrub(ctx); }
      }
      lm.set("ckpt.save_ms", tracer().mean_ms("ckpt.save"), "ckpt.save");
      lm.set("ckpt.load_ms", tracer().mean_ms("ckpt.load"), "ckpt.load");
      lm.set("ckpt.restore_ms", tracer().mean_ms("ckpt.restore"), "ckpt.restore");
      lm.set("ckpt.bytes", double(fs::file_size(file)));
      lm.set("robust.scrub_ms", tracer().mean_ms("robust.scrub"), "robust.scrub");
      lm.set("robust.digest_ms", tracer().mean_ms("robust.digest"), "robust.digest");
      lm.set("robust.heals", double(heals));
    }
    {
      // dist: the workload's codec (dense for single-device workloads) on
      // a cluster of max(2, replicas) clones of each model.
      TrainSpec t = w.train;
      t.replicas = std::max<std::int64_t>(2, t.replicas);
      double wire = 0, payload = 0;
      std::int64_t exchanges = 0;
      for (auto* m : models) {
        StepRig rig(*m, t);
        rig.step(ctx, batch);
        for (int r = 0; r < 4; ++r) {
          Scoped sp("dist.step");
          rig.step(ctx, batch);
        }
        std::vector<pt::graph::Network> reps;
        for (std::int64_t r = 0; r < t.replicas; ++r) reps.push_back(clone(*m));
        std::vector<pt::graph::Network*> nets;
        pt::nn::SoftmaxCrossEntropy loss;
        for (auto& n : reps) {
          pt::Tensor out = n.forward(ctx, batch.images, true);
          loss.forward(out, batch.labels);
          n.zero_grad();
          n.backward(ctx, loss.backward());
          nets.push_back(&n);
        }
        std::unique_ptr<pt::dist::GradientCodec> codec =
            pt::dist::CodecRegistry::global().create(t.codec);
        codec->bind(reps.front(), static_cast<int>(t.replicas));
        const std::vector<double> weights(reps.size(), 1.0);
        for (int r = 0; r < 4; ++r) {
          pt::dist::ExchangeStats st;
          {
            Scoped sp("dist.exchange");
            st = pt::dist::exchange_gradients(*codec, nets, weights, ctx);
          }
          wire += st.wire_bytes * double(t.replicas);
          payload += st.dense_bytes * double(t.replicas);
          ++exchanges;
        }
        const auto params = reps.front().params();
        for (int r = 0; r < 4; ++r) {
          for (std::size_t i = 0; i < params.size(); ++i) {
            const auto* p = params[i];
            pt::dist::WireTensor wt;
            {
              Scoped sp("dist.encode");
              wt = codec->encode(0, i, p->grad.data(), p->grad.numel(), ctx);
            }
            std::vector<float> outbuf(static_cast<std::size_t>(p->grad.numel()));
            Scoped sp("dist.decode");
            codec->decode(wt, i, outbuf.data(), ctx);
          }
        }
      }
      const double per_exchange_calls = 2.0 * 4.0;  // models x repetitions
      lm.set("dist.step_ms", tracer().mean_ms("dist.step"), "dist.step");
      lm.set("dist.exchange_ms", tracer().mean_ms("dist.exchange"), "dist.exchange");
      lm.set("dist.encode_ms", 1e3 * tracer().total("dist.encode").first / per_exchange_calls, "dist.encode");
      lm.set("dist.decode_ms", 1e3 * tracer().total("dist.decode").first / per_exchange_calls, "dist.decode");
      lm.set("dist.wire_bytes_per_step", wire / double(exchanges));
      lm.set("dist.payload_bytes_per_step", payload / double(exchanges));
    }
    {
      // serve: registry poll and a max_batch forward per published generation.
      double fwd_flops = 0;
      for (const Tenant& t : plan.tenants) {
        for (const Generation& g : t.gens) {
          const fs::path dir = work / "poll-probe";
          fs::remove_all(dir);
          fs::create_directories(dir);
          fs::copy_file(g.file, dir / "ckpt-epoch-0.bin");
          pt::serve::RegistryConfig rc;
          rc.max_batch = kMaxBatch;
          rc.flops_per_tick = plan.flops_per_tick;
          pt::serve::ModelRegistry reg(rc);
          pt::serve::LeaseTable leases;
          reg.add_model(t.name, dir.string(), input);
          { Scoped sp("serve.poll"); reg.poll(ctx, leases); }
          auto version = leases.acquire(t.name);
          pt::Tensor x({kMaxBatch, input[0], input[1], input[2]});
          for (std::int64_t i = 0; i < x.numel(); ++i) x.data()[i] = 0.01f * float(i % 97);
          for (int r = 0; r < 5; ++r) {
            Scoped sp("serve.forward");
            version->net.forward(ctx, x, false);
            fwd_flops += version->inference_flops * double(kMaxBatch);
          }
        }
      }
      lm.set("serve.poll_ms", tracer().mean_ms("serve.poll"), "serve.poll");
      lm.set("serve.forward_ms", tracer().mean_ms("serve.forward"), "serve.forward");
      lm.set("serve.forward_gflops", fwd_flops / tracer().total("serve.forward").first / 1e9, "serve.forward");
      lm.set("serve.batches", double(first.batches));
      lm.set("serve.mean_batch_size", first.mean_batch_size);
      lm.set("serve.shed", double(shed));
    }
    raw["layers"] = std::move(lm.values);
    raw["layer_spans"] = std::move(lm.spans);
  }

  raw["peak_rss_mb"] = Json(peak_rss_mb());
  const std::int64_t attempted = steps + served_requests + static_cast<std::int64_t>(checks.items.size());
  raw["attempted"] = Json(attempted);
  raw["failed"] = Json(checks.failed + shed + dropped + wrong + swaps.total());
  raw["checks"] = std::move(checks.items);
  if (args.trace) {
    Json self = Json::object();
    for (const auto& [name, sec] : tracer().self_seconds()) self[name] = Json(sec);
    raw["self_s"] = std::move(self);
    const fs::path tf = fs::path(args.work) / ("trace-" + w.name + "-" + std::to_string(args.seed) + ".json");
    tracer().write(tf);
    raw["trace_file"] = Json(tf.string());
  }
  fs::remove_all(work);
  const std::string text = raw.dump();
  if (args.out.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream(args.out) << text << "\n";
  }
  return 0;
}

/// --selftest serve-probes: the window probes are no-op schedule() actions,
/// so a replay with them must produce bitwise the same responses as one
/// without them.
int run_selftest(const Args& args) {
  if (args.selftest != "serve-probes") {
    throw std::invalid_argument("unknown selftest '" + args.selftest + "'");
  }
  const Workload w = workload_by_name("serve_swap");
  const fs::path work = fs::path(args.work) / "selftest-serve-probes";
  fs::remove_all(work);
  fs::create_directories(work);
  Setup s = set_up(w, args.seed, work);
  const ServePlan plan = make_plan(w, s, work, args.seed);
  pt::exec::ExecContext ctx(2);
  const ServeRun plain = serve_once(plan, work, ctx, false);
  const ServeRun probed = serve_once(plan, work, ctx, true);
  fs::remove_all(work);
  const auto& a = plain.report.responses;
  const auto& b = probed.report.responses;
  std::int64_t differ = a.size() == b.size() ? 0 : 1;
  for (std::size_t i = 0; differ == 0 && i < a.size(); ++i) {
    const bool same =
        a[i].request_id == b[i].request_id && a[i].shed == b[i].shed &&
        a[i].generation == b[i].generation && a[i].batch_id == b[i].batch_id &&
        a[i].completion == b[i].completion && a[i].argmax == b[i].argmax &&
        a[i].logits.numel() == b[i].logits.numel() &&
        std::memcmp(a[i].logits.data(), b[i].logits.data(),
                    sizeof(float) * static_cast<std::size_t>(a[i].logits.numel())) == 0;
    if (!same) ++differ;
  }
  const bool ok = differ == 0 && !a.empty() && !probed.window_ms.empty() &&
                  plain.window_ms.empty();
  std::cout << "selftest serve-probes: " << (ok ? "ok" : "FAILED") << " ("
            << a.size() << " responses, " << probed.window_ms.size()
            << " windows)\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.selftest.empty()) return run_selftest(args);
    if (args.workload.empty()) throw std::invalid_argument("--workload is required");
    return run_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
