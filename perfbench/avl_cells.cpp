// avl_elision: the paper's §6 AVL set (xeon, key range 8192, 20/20/60
// insert/remove/find), closed loop at 1, 18 and 36 simulated threads over
// Lock, TLE, RW-TLE, FG-TLE(256), FG-TLE(8192) and RHNOrec, each critical
// section called through SyncMethod::execute.
#include <memory>

#include "bench_util/setbench.h"
#include "cells.h"
#include "ds/avl.h"
#include "runtime/method.h"
#include "sim/env.h"
#include "sim/rng.h"

namespace perfbench {

using rtle::runtime::ThreadCtx;
using rtle::runtime::TxContext;

namespace {

constexpr std::uint64_t kKeyRange = 8192;
constexpr std::uint32_t kInsertPct = 20;
constexpr std::uint32_t kRemovePct = 20;
constexpr double kDurationMs = 0.125;
// Independent input draws per cell per repetition (see README: the cells'
// simulated results swing with heap layout, so every figure averages draws).
constexpr std::uint32_t kEpisodes = 4;
constexpr std::uint32_t kThreadCounts[] = {1, 18, 36};
constexpr const char* kMethods[] = {"Lock",        "TLE",          "RW-TLE",
                                    "FG-TLE(256)", "FG-TLE(8192)", "RHNOrec"};
// Per-thread op stream length (a power of two; a thread that exhausts its
// stream wraps around to the start).
constexpr std::size_t kStreamLen = 2048;

enum class AvlKind : std::uint8_t { kInsert, kRemove, kFind };
struct AvlOp {
  std::uint64_t key;
  AvlKind kind;
};

struct AvlInputs {
  std::vector<std::uint64_t> prefill;
  std::vector<std::vector<AvlOp>> streams;  // one per thread (max count)
};

AvlInputs generate(std::uint64_t seed) {
  AvlInputs in;
  rtle::sim::Rng pre(seed * 0x2545f4914f6cdd1dULL + 1);
  for (std::uint64_t k = 0; k < kKeyRange; ++k) {
    if ((pre.next() & 1) != 0) in.prefill.push_back(k);
  }
  in.streams.resize(36);
  for (std::uint32_t t = 0; t < 36; ++t) {
    rtle::sim::Rng rng(seed * 1000003 + t * 7919 + 11);
    auto& s = in.streams[t];
    s.resize(kStreamLen);
    for (AvlOp& op : s) {
      op.key = rng.below(kKeyRange);
      const std::uint64_t r = rng.below(100);
      op.kind = r < kInsertPct                ? AvlKind::kInsert
                : r < kInsertPct + kRemovePct ? AvlKind::kRemove
                                              : AvlKind::kFind;
    }
  }
  return in;
}

CellResult run_cell(const AvlInputs& in, const rtle::runtime::MethodSpec& spec,
                    std::uint32_t threads, std::uint64_t seed,
                    std::uint32_t episode, std::uint16_t cell_id,
                    const RunOpts& opts) {
  CellResult res;
  res.label = spec.name + "/t" + std::to_string(threads);
  res.episode = episode;
  res.sim_ms = kDurationMs;
  const std::uint64_t h0 = host_ns();
  const LayoutPad pad(opts.layout_salt, cell_id);

  const auto mc = rtle::sim::MachineConfig::xeon();
  rtle::SimScope sim(mc);
  rtle::ds::AvlSet set(kKeyRange + 64ULL * threads + 1024, threads);
  std::unique_ptr<rtle::runtime::SyncMethod> method = spec.make();
  method->prepare(threads);
  for (std::uint64_t k : in.prefill) set.insert_meta(k);
  std::vector<std::unique_ptr<ThreadCtx>> ths;
  for (std::uint32_t t = 0; t < threads; ++t) {
    ths.push_back(std::make_unique<ThreadCtx>(t, seed * 7919 + t));
  }
  const std::uint64_t t_end =
      sim.sched.epoch() +
      static_cast<std::uint64_t>(kDurationMs * mc.cycles_per_ms());
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  res.latency.reserve(threads * kStreamLen);
  SpanRecorder* rec = opts.rec;
  if (rec != nullptr) rec->begin_cell(cell_id);

  for (std::uint32_t t = 0; t < threads; ++t) {
    sim.sched.spawn(
        [&, t] {
          ThreadCtx& th = *ths[t];
          const std::vector<AvlOp>& stream = in.streams[t];
          auto& sched = rtle::cur_sched();
          for (std::uint64_t i = 0; sched.now() < t_end; ++i) {
            const AvlOp op = stream[i & (kStreamLen - 1)];
            const std::uint64_t req =
                (std::uint64_t{cell_id} << 48) | (std::uint64_t{t} << 32) | i;
            const std::uint64_t issue = sched.now();
            SpanScope rq(rec, t, SpanName::kRequest, req, issue);
            set.reserve_nodes(th, 4);
            bool changed = false;
            auto cs = [&](TxContext& ctx) {
              SpanScope body(rec, t, SpanName::kBody, req);
              switch (op.kind) {
                case AvlKind::kInsert: changed = set.insert(ctx, op.key); break;
                case AvlKind::kRemove: changed = set.remove(ctx, op.key); break;
                case AvlKind::kFind: set.contains(ctx, op.key); break;
              }
            };
            {
              SpanScope ex(rec, t, SpanName::kExecute, req);
              method->execute(th, cs);
            }
            if (changed) {
              (op.kind == AvlKind::kInsert ? inserted : removed) += 1;
            }
            res.latency.push_back(sched.now() - issue);
          }
        },
        t);
  }
  const std::uint64_t h1 = host_ns();
  sim.sched.run();
  const std::uint64_t h2 = host_ns();

  res.setup_s = static_cast<double>(h1 - h0) * 1e-9;
  res.sim_s = static_cast<double>(h2 - h1) * 1e-9;
  res.stats = method->stats();
  res.ops = res.stats.ops;
  res.attempted = res.ops;
  // Correctness gate: the set's final size is the prefill plus successful
  // inserts minus successful removes, and the tree is a valid AVL tree.
  if (set.size_meta() != in.prefill.size() + inserted - removed ||
      !set.invariants_ok()) {
    res.wrong += 1;
  }
  res.fingerprint = fingerprint_of(res);
  const std::uint64_t sz = set.size_meta();
  res.fingerprint = fnv(res.fingerprint, &sz, sizeof sz);
  return res;
}

class AvlElision final : public Workload {
 public:
  explicit AvlElision(std::uint64_t seed) {
    const std::uint64_t g0 = host_ns();
    for (const char* m : kMethods) {
      specs_.push_back(rtle::bench::method_by_name(m));
    }
    for (std::uint32_t e = 0; e < kEpisodes; ++e) {
      seeds_.push_back(episode_seed(seed, e));
      inputs_.push_back(generate(seeds_.back()));
      for (std::uint32_t t : kThreadCounts) {
        for (std::size_t m = 0; m < specs_.size(); ++m) {
          cells_.push_back({e, t, m});
        }
      }
    }
    gen_s = static_cast<double>(host_ns() - g0) * 1e-9;
  }

  std::size_t cells() const override { return cells_.size(); }

  CellResult run(std::size_t i, const RunOpts& opts) const override {
    const Cell& c = cells_[i];
    return run_cell(inputs_[c.episode], specs_[c.method], c.threads,
                    seeds_[c.episode], c.episode,
                    static_cast<std::uint16_t>(i), opts);
  }

 private:
  struct Cell {
    std::uint32_t episode;
    std::uint32_t threads;
    std::size_t method;
  };
  std::vector<rtle::runtime::MethodSpec> specs_;
  std::vector<std::uint64_t> seeds_;
  std::vector<AvlInputs> inputs_;
  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_avl_elision(std::uint64_t seed) {
  return std::make_unique<AvlElision>(seed);
}

}  // namespace perfbench
