// The two OLTP workloads over a sharded oltp::Store (xeon, 8 shards, 18
// simulated threads, Zipf theta 0.8 over 4096 bank keys):
//   oltp_mix      closed loop, cells TLE, SUX-TLE, FG-TLE(256), Silo-OCC
//                 (its traced run also runs every cell under an armed
//                 check::CheckSession, see RunOpts::check);
//   oltp_open_slo open loop (Poisson arrivals) on TLE guards behind an armed
//                 admit::Controller, over a fixed rate ladder plus one
//                 flash-crowd cell, acting on its verdicts (shed, defer,
//                 method switch).
//
// Every write shape keeps the bank sum: transfers debit one key and credit
// another, range transactions erase + re-insert one entry debited by one
// and credit another, and single-key writes store 0 into a separate
// "status" key range that is prefilled with 0. So Store::sum_meta equals
// the prefilled total after every cell.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "admit/controller.h"
#include "bench_util/setbench.h"
#include "cells.h"
#include "check/session.h"
#include "mem/shim.h"
#include "oltp/store.h"
#include "oltp/workload.h"
#include "sim/env.h"
#include "sim/rng.h"

namespace perfbench {

using rtle::oltp::Store;
using rtle::runtime::ThreadCtx;

namespace {

constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kThreads = 18;
constexpr std::uint64_t kBankKeys = 4096;  // status keys: [kBankKeys, 2x)
constexpr double kZipfTheta = 0.8;
constexpr std::uint64_t kInitialBalance = 1000;
// Shape generators as in the oltp::run_workload engine: 2-4 keys per
// multi-key op, geometric scan lengths (continue with probability
// 1 - 1/mean), capped at 256 keys.
constexpr std::uint64_t kMultiMin = 2;
constexpr std::uint64_t kMultiMax = 4;
constexpr std::uint64_t kMaxScanLen = 256;
constexpr std::uint32_t kScanLenMean = 16;
constexpr std::size_t kStreamLen = 4096;  // closed-loop ops per thread (wraps)

constexpr double kMixMs = 0.75;
constexpr std::uint32_t kClosedEpisodes = 4;
constexpr double kOpenMs = 2.0;
constexpr const char* kMixMethods[] = {"TLE", "SUX-TLE", "FG-TLE(256)",
                                       "Silo-OCC"};

// Operation mix, percent. The class shares and the scan-length mean are the
// oltp_skew figure's 15%-range column (same machine, shards, threads and
// key space): 65 point reads, 15 range ops, 10 multi-key transfers, 10
// single-key writes. No figure holds all six shapes, so two classes are
// split: range ops 3:1 into scans and range transactions (oltp_range's
// 30:10), and point reads into get and multi_get with multi_get taking the
// transfers' 10 (reads and writes weigh the same on the cross-shard paths).
constexpr std::uint32_t kGetPct = 55;
constexpr std::uint32_t kMultiGetPct = 10;
constexpr std::uint32_t kScanPct = 11;
constexpr std::uint32_t kMultiPct = 10;
constexpr std::uint32_t kRangeTxPct = 4;  // remainder (10%): single-key put

// Rate ladder (arrivals per simulated ms). Up to ~7k the TLE store serves
// every timeline within the SLO. Above it, conflict aborts can tip the
// controller into a switch to Lock, which collapses capacity: one timeline
// may or may not trigger it, so every rung runs kOpenEpisodes independent
// timelines. The rungs from 10k to 14k cover the knee, where half the
// timelines still meet the SLO; 28k is the overload rung, where capacity,
// not the offered rate, sets served throughput. Latency quantiles are read
// at the reference rate, the highest rung below the knee at which no
// timeline was seen to collapse. The flash crowd adds 7x the reference rate
// for the second quarter of a run.
const std::vector<double> kLadder = {5'000, 7'000, 10'000, 12'000, 14'000,
                                     28'000};
constexpr double kReferenceRate = 7'000;
constexpr std::uint32_t kOpenEpisodes = 10;
constexpr double kFlashMultiplier = 8.0;

enum class OpKind : std::uint8_t { kGet, kMultiGet, kScan, kMulti, kRangeTx, kPut };

struct OltpOp {
  std::array<std::uint64_t, 4> keys{};  // scan / range_tx: {lo, hi}
  std::uint8_t n = 0;
  OpKind kind = OpKind::kGet;
};

struct Arrival {
  std::uint64_t due = 0;  // offset from the run start, cycles
  OltpOp op;
};

OltpOp gen_op(rtle::sim::Rng& rng, const rtle::sim::ZipfRng& zipf) {
  OltpOp op;
  const std::uint64_t r = rng.below(100);
  auto range = [&] {
    const std::uint64_t lo = zipf.next(rng);
    std::uint64_t len = 1;
    while (len < kMaxScanLen && rng.below(100) < 100 - 100 / kScanLenMean) {
      ++len;
    }
    op.keys[0] = lo;
    op.keys[1] = std::min(kBankKeys - 1, lo + len - 1);
  };
  auto keyset = [&] {
    op.n = static_cast<std::uint8_t>(rng.range(kMultiMin, kMultiMax));
    for (std::uint8_t i = 0; i < op.n; ++i) op.keys[i] = zipf.next(rng);
  };
  if (r < kGetPct) {
    op.kind = OpKind::kGet;
    op.keys[0] = zipf.next(rng);
  } else if (r < kGetPct + kMultiGetPct) {
    op.kind = OpKind::kMultiGet;
    keyset();
  } else if (r < kGetPct + kMultiGetPct + kScanPct) {
    op.kind = OpKind::kScan;
    range();
  } else if (r < kGetPct + kMultiGetPct + kScanPct + kMultiPct) {
    op.kind = OpKind::kMulti;
    keyset();
  } else if (r < kGetPct + kMultiGetPct + kScanPct + kMultiPct + kRangeTxPct) {
    op.kind = OpKind::kRangeTx;
    range();
  } else {
    op.kind = OpKind::kPut;
    op.keys[0] = kBankKeys + zipf.next(rng);
  }
  return op;
}

/// Quantized exponential deviate with the given mean (cycles), never 0.
std::uint64_t exp_cycles(rtle::sim::Rng& rng, double mean) {
  const double u =
      static_cast<double>((rng.next() >> 32) | 1) * (1.0 / 4294967296.0);
  const double v = -std::log(u) * mean;
  return v >= 1.0 ? static_cast<std::uint64_t>(v) : 1;
}

/// Poisson arrivals at `rate` per ms over [start, end) cycles.
void poisson(std::vector<Arrival>& out, rtle::sim::Rng& rng,
             const rtle::sim::ZipfRng& zipf, double rate, double cycles_per_ms,
             std::uint64_t start, std::uint64_t end) {
  const double mean = cycles_per_ms / rate;
  for (std::uint64_t t = start + exp_cycles(rng, mean); t < end;
       t += exp_cycles(rng, mean)) {
    out.push_back({t, gen_op(rng, zipf)});
  }
}

/// Open-loop timeline: Poisson at `rate`, plus (flash) an extra stream at
/// (kFlashMultiplier-1)x rate during [D/4, D/2).
std::vector<Arrival> timeline(std::uint64_t seed, double rate, bool flash,
                              const rtle::sim::ZipfRng& zipf) {
  const double cpm = rtle::sim::MachineConfig::xeon().cycles_per_ms();
  const auto end = static_cast<std::uint64_t>(kOpenMs * cpm);
  rtle::sim::Rng rng(seed * 6271 + static_cast<std::uint64_t>(rate) + flash);
  std::vector<Arrival> out;
  poisson(out, rng, zipf, rate, cpm, 0, end);
  if (flash) {
    std::vector<Arrival> extra;
    poisson(extra, rng, zipf, rate * (kFlashMultiplier - 1.0), cpm, end / 4,
            end / 2);
    std::vector<Arrival> merged(out.size() + extra.size());
    std::merge(out.begin(), out.end(), extra.begin(), extra.end(),
               merged.begin(),
               [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
    out = std::move(merged);
  }
  return out;
}

std::vector<std::vector<OltpOp>> streams(std::uint64_t seed,
                                         const rtle::sim::ZipfRng& zipf) {
  std::vector<std::vector<OltpOp>> s(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    rtle::sim::Rng rng(seed * 1000003 + t * 7919 + 23);
    s[t].reserve(kStreamLen);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      s[t].push_back(gen_op(rng, zipf));
    }
  }
  return s;
}

/// One operation through the store's public entry points, with its span
/// and output checks. Returns the number of wrong results (0 or 1).
std::uint64_t run_op(Store& st, ThreadCtx& th, const OltpOp& op,
                     SpanRecorder* rec, std::uint32_t tid, std::uint64_t req) {
  switch (op.kind) {
    case OpKind::kGet: {
      std::uint64_t v = 0;
      bool found = false;
      {
        SpanScope s(rec, tid, SpanName::kGet, req);
        found = st.get(th, op.keys[0], v);
      }
      return found ? 0 : 1;  // bank keys are never absent
    }
    case OpKind::kMultiGet: {
      std::array<std::uint64_t, 4> vals{};
      SpanScope s(rec, tid, SpanName::kMultiGet, req);
      st.multi_get(th, op.keys.data(), op.n, vals.data());
      return 0;
    }
    case OpKind::kScan: {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      {
        SpanScope s(rec, tid, SpanName::kScan, req);
        st.scan(th, op.keys[0], op.keys[1], 0, out);
      }
      // Bank keys are dense and always present: the scan must return
      // exactly lo..hi, ascending.
      if (out.size() != op.keys[1] - op.keys[0] + 1) return 1;
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].first != op.keys[0] + i) return 1;
      }
      return 0;
    }
    case OpKind::kMulti: {
      const std::uint8_t n = op.n;
      auto body = [&](Store::MultiTx& tx) {
        SpanScope b(rec, tid, SpanName::kBody, req);
        const std::uint64_t v0 = tx.read(op.keys[0]);
        tx.write(op.keys[0], v0 - 1);
        for (std::uint8_t i = 1; i + 1 < n; ++i) tx.read(op.keys[i]);
        const std::uint64_t vn = tx.read(op.keys[n - 1]);
        tx.write(op.keys[n - 1], vn + 1);
      };
      SpanScope s(rec, tid, SpanName::kMulti, req);
      st.multi(th, op.keys.data(), n, body);
      return 0;
    }
    case OpKind::kRangeTx: {
      std::size_t seen = 0;
      auto body = [&](Store::MultiTx& tx, const Store::RangeEntries& es) {
        SpanScope b(rec, tid, SpanName::kBody, req);
        seen = es.size();
        if (es.size() >= 2) {
          const std::uint64_t k0 = es.front().first;
          const std::uint64_t v0 = es.front().second;
          tx.erase(k0);
          tx.write(k0, v0 - 1);
          tx.write(es.back().first, es.back().second + 1);
        } else if (es.size() == 1) {
          tx.write(es.front().first, es.front().second);
        }
      };
      {
        SpanScope s(rec, tid, SpanName::kRangeTx, req);
        st.range_tx(th, op.keys[0], op.keys[1], 0, /*max_writes=*/3, body);
      }
      return seen == op.keys[1] - op.keys[0] + 1 ? 0 : 1;
    }
    case OpKind::kPut: {
      SpanScope s(rec, tid, SpanName::kPut, req);
      st.put(th, op.keys[0], 0);
      return 0;
    }
  }
  return 0;
}

rtle::runtime::MethodStats store_stats(Store& st) {
  rtle::runtime::MethodStats t;
  for (std::uint32_t s = 0; s < st.shards(); ++s) {
    rtle::oltp::accumulate(t, st.method(s).stats());
  }
  rtle::oltp::accumulate(t, st.retired_stats());
  return t;
}

/// What a cell runs: a closed loop over per-thread streams, or an open loop
/// over an arrival timeline behind the admission controller.
struct CellPlan {
  const rtle::runtime::MethodSpec* spec = nullptr;
  std::string label;
  double sim_ms = 0.0;
  const std::vector<std::vector<OltpOp>>* streams = nullptr;
  const std::vector<Arrival>* arrivals = nullptr;
  double offered_per_ms = 0.0;
  bool traced = true;  ///< record spans when the run is traced
  std::uint32_t episode = 0;
  std::uint64_t seed = 0;  ///< the episode's input seed
};

struct Switcher {
  rtle::runtime::MethodSpec light;
  rtle::runtime::MethodSpec conflict;
};

CellResult run_cell(const CellPlan& plan, std::uint16_t cell_id,
                    const Switcher& sw, const RunOpts& opts) {
  CellResult res;
  res.label = plan.label;
  res.episode = plan.episode;
  res.sim_ms = plan.sim_ms;
  res.guards = kShards;
  res.open_loop = plan.arrivals != nullptr;
  res.offered_per_ms = plan.offered_per_ms;
  const std::uint64_t h0 = host_ns();
  const LayoutPad pad(opts.layout_salt, cell_id);

  std::optional<rtle::check::CheckSession> chk;
  if (opts.check) chk.emplace(rtle::check::CheckConfig{});
  const auto mc = rtle::sim::MachineConfig::xeon();
  rtle::SimScope sim(mc);
  rtle::oltp::StoreConfig sc;
  sc.shards = kShards;
  sc.buckets_per_shard = 2 * kBankKeys / kShards;
  sc.max_nodes_per_shard = 2 * kBankKeys + 64ULL * kThreads + 64;
  sc.max_threads = kThreads;
  Store st(sc, *plan.spec);
  for (std::uint64_t k = 0; k < kBankKeys; ++k) {
    st.prefill_meta(k, kInitialBalance);
    st.prefill_meta(kBankKeys + k, 0);
  }
  std::vector<std::unique_ptr<ThreadCtx>> ths;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    ths.push_back(std::make_unique<ThreadCtx>(t, plan.seed * 7919 + t));
  }
  const std::uint64_t t_start = sim.sched.epoch();
  const std::uint64_t t_end =
      t_start + static_cast<std::uint64_t>(plan.sim_ms * mc.cycles_per_ms());
  SpanRecorder* rec = plan.traced ? opts.rec : nullptr;
  if (rec != nullptr) rec->begin_cell(cell_id);
  const std::size_t expect =
      res.open_loop ? plan.arrivals->size() : kThreads * kStreamLen;
  res.latency.reserve(expect);
  if (res.open_loop) res.queue_delay.reserve(expect);

  // Admission control (open loop only): the controller sees every arrival
  // and completion, and at each window close a sample of the stats deltas.
  std::optional<rtle::admit::Controller> ctrl;
  rtle::runtime::MethodStats win_base;
  rtle::oltp::CrossStats cross_base;
  if (res.open_loop) {
    rtle::admit::Config ac;
    ac.slo_p99_cycles = kSloCycles;
    ac.interval_cycles = 4 * kSloCycles;
    ctrl.emplace(ac);
    ctrl->start(t_start);
  }
  auto maybe_close_window = [&](std::uint32_t tid, std::uint64_t now) {
    if (!ctrl->window_due(now)) return;
    SpanScope s(rec, tid, SpanName::kAdmitWindow, 0);
    const rtle::runtime::MethodStats cur = store_stats(st);
    const rtle::oltp::CrossStats& xc = st.cross_stats();
    auto delta = [&](rtle::htm::AbortCause c) {
      const auto i = static_cast<std::size_t>(c);
      return (cur.abort_cause[i] - win_base.abort_cause[i]) +
             (xc.abort_cause[i] - cross_base.abort_cause[i]);
    };
    rtle::admit::WindowSample ws;
    ws.ops = (cur.ops - win_base.ops) + (xc.commits - cross_base.commits);
    ws.aborts_conflict = delta(rtle::htm::AbortCause::kConflict);
    ws.aborts_capacity = delta(rtle::htm::AbortCause::kCapacity) +
                         delta(rtle::htm::AbortCause::kHtmUnavailable);
    ws.aborts_lock_busy = delta(rtle::htm::AbortCause::kLockBusy);
    ws.aborts_other = (cur.total_aborts() - win_base.total_aborts()) +
                      (xc.aborts - cross_base.aborts) - ws.aborts_conflict -
                      ws.aborts_capacity - ws.aborts_lock_busy;
    ws.aborts_cc = (cur.cc_validation_aborts - win_base.cc_validation_aborts) +
                   (cur.cc_wounds - win_base.cc_wounds);
    ws.commit_lock = (cur.commit_lock - win_base.commit_lock) +
                     (xc.lock_commits - cross_base.lock_commits);
    win_base = cur;
    cross_base = xc;
    const rtle::admit::WindowVerdict v = ctrl->close_window(ws, now);
    if (!v.switch_method) return;
    // Regime → method, as the oltp_burst figure maps them: speculate when
    // light, take the plain lock when aborts say speculation is wasted.
    const rtle::runtime::MethodSpec* target = nullptr;
    if (v.regime == rtle::admit::Regime::kLight) target = &sw.light;
    if (v.regime == rtle::admit::Regime::kConflict ||
        v.regime == rtle::admit::Regime::kCapacity) {
      target = &sw.conflict;
    }
    if (target == nullptr || target->name == st.method(0).name()) return;
    for (std::uint32_t s = 0; s < st.shards(); ++s) {
      st.switch_method(s, *target, static_cast<std::uint16_t>(v.regime));
    }
    ctrl->confirm_switch();
    res.switches += 1;
  };

  for (std::uint32_t t = 0; t < kThreads; ++t) {
    sim.sched.spawn(
        [&, t] {
          ThreadCtx& th = *ths[t];
          auto& sched = rtle::cur_sched();
          auto req_id = [&](std::uint64_t i) {
            return (std::uint64_t{cell_id} << 48) | (std::uint64_t{t} << 32) |
                   i;
          };
          if (!res.open_loop) {
            const std::vector<OltpOp>& stream = (*plan.streams)[t];
            for (std::uint64_t i = 0; sched.now() < t_end; ++i) {
              const std::uint64_t issue = sched.now();
              SpanScope rq(rec, t, SpanName::kRequest, req_id(i), issue);
              res.wrong += run_op(st, th, stream[i & (kStreamLen - 1)], rec, t,
                                  req_id(i));
              res.attempted += 1;
              res.latency.push_back(sched.now() - issue);
            }
            return;
          }
          const std::vector<Arrival>& arr = *plan.arrivals;
          for (std::size_t j = t; j < arr.size(); j += kThreads) {
            const std::uint64_t due = t_start + arr[j].due;
            if (sched.now() < due) rtle::mem::compute(due - sched.now());
            maybe_close_window(t, sched.now());
            SpanScope rq(rec, t, SpanName::kRequest, req_id(j), due);
            res.attempted += 1;
            const std::uint64_t now = sched.now();
            rtle::admit::Decision d;
            {
              SpanScope s(rec, t, SpanName::kAdmitArrival, req_id(j));
              d = ctrl->on_arrival(0, now - due, now);
            }
            if (d.verdict == rtle::admit::Verdict::kShed) {
              res.shed += 1;
              continue;
            }
            if (d.verdict == rtle::admit::Verdict::kDefer) {
              res.deferred += 1;
              if (d.defer_cycles > 0) rtle::mem::compute(d.defer_cycles);
            }
            res.queue_delay.push_back(sched.now() - due);
            res.wrong += run_op(st, th, arr[j].op, rec, t, req_id(j));
            const std::uint64_t done = sched.now();
            res.latency.push_back(done - due);
            SpanScope s(rec, t, SpanName::kAdmitComplete, req_id(j));
            ctrl->on_complete(0, done - due, done);
          }
        },
        t);
  }
  const std::uint64_t h1 = host_ns();
  sim.sched.run();
  const std::uint64_t h2 = host_ns();

  res.setup_s = static_cast<double>(h1 - h0) * 1e-9;
  res.sim_s = static_cast<double>(h2 - h1) * 1e-9;
  res.stats = store_stats(st);
  res.cross = st.cross_stats();
  res.ops = res.latency.size();
  // Correctness gate: every write shape preserves the bank sum.
  if (st.sum_meta() != kBankKeys * kInitialBalance) res.wrong += 1;
  if (chk.has_value()) res.reports = chk->report_count();
  if (res.open_loop) {
    // Backlog: arrivals at the end of the run still wait longer than half
    // the SLO before their service starts.
    const std::size_t n = res.queue_delay.size();
    if (n >= 10) {
      std::vector<std::uint64_t> tail(res.queue_delay.end() - n / 10,
                                      res.queue_delay.end());
      std::nth_element(tail.begin(), tail.begin() + tail.size() / 2,
                       tail.end());
      res.backlog_growing = tail[tail.size() / 2] > kSloCycles / 2;
    }
  }
  res.fingerprint = fingerprint_of(res);
  const std::uint64_t sum = st.sum_meta();
  res.fingerprint = fnv(res.fingerprint, &sum, sizeof sum);
  res.fingerprint = fnv(res.fingerprint, &res.switches, sizeof res.switches);
  return res;
}

class Oltp final : public Workload {
 public:
  Oltp(const std::string& workload, std::uint64_t seed)
      : sw_{rtle::bench::method_by_name("TLE"),
            rtle::bench::method_by_name("Lock")} {
    const std::uint64_t g0 = host_ns();
    const rtle::sim::ZipfRng zipf(kBankKeys, kZipfTheta);
    if (workload == "oltp_open_slo") {
      for (std::uint32_t e = 0; e < kOpenEpisodes; ++e) {
        for (double r : kLadder) {
          timelines_.push_back(timeline(episode_seed(seed, e), r, false, zipf));
        }
        timelines_.push_back(
            timeline(episode_seed(seed, e), kReferenceRate, true, zipf));
      }
      for (std::size_t i = 0; i < timelines_.size(); ++i) {
        CellPlan p;
        p.spec = &sw_.light;
        const std::size_t rung = i % (kLadder.size() + 1);
        const bool flash = rung == kLadder.size();
        const double rate = flash ? kReferenceRate : kLadder[rung];
        p.episode = static_cast<std::uint32_t>(i / (kLadder.size() + 1));
        p.label = std::string(flash ? "TLE/flash" : "TLE") + "/r" +
                  std::to_string(static_cast<int>(rate));
        p.seed = episode_seed(seed, p.episode);
        p.sim_ms = kOpenMs;
        p.arrivals = &timelines_[i];
        p.offered_per_ms = flash ? 0.0 : rate;
        // Spans of every episode would run to millions; the first is traced.
        p.traced = p.episode == 0;
        plans_.push_back(p);
      }
    } else {
      for (const char* m : kMixMethods) {
        specs_.push_back(rtle::bench::method_by_name(m));
      }
      for (std::uint32_t e = 0; e < kClosedEpisodes; ++e) {
        streams_.push_back(streams(episode_seed(seed, e), zipf));
      }
      for (std::uint32_t e = 0; e < kClosedEpisodes; ++e) {
        for (const auto& spec : specs_) {
          CellPlan p;
          p.spec = &spec;
          p.label = spec.name + "/t18";
          p.episode = e;
          p.seed = episode_seed(seed, e);
          p.sim_ms = kMixMs;
          p.streams = &streams_[e];
          plans_.push_back(p);
        }
      }
    }
    gen_s = static_cast<double>(host_ns() - g0) * 1e-9;
  }

  std::size_t cells() const override { return plans_.size(); }

  CellResult run(std::size_t i, const RunOpts& opts) const override {
    return run_cell(plans_[i], static_cast<std::uint16_t>(i), sw_, opts);
  }

 private:
  // Filled once in the constructor; plans_ point into the other members.
  Switcher sw_;
  std::vector<rtle::runtime::MethodSpec> specs_;
  std::vector<std::vector<std::vector<OltpOp>>> streams_;
  std::vector<std::vector<Arrival>> timelines_;
  std::vector<CellPlan> plans_;
};

}  // namespace

double open_slo_reference_rate() { return kReferenceRate; }

std::unique_ptr<Workload> make_oltp(const std::string& workload,
                                    std::uint64_t seed) {
  return std::make_unique<Oltp>(workload, seed);
}

}  // namespace perfbench
