// The repository benchmark (see README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 repeats the workload's cells, on fresh inputs each repetition,
// until --seconds have passed and reports the end-to-end metrics (mostly
// medians over the repetitions; see README.md). --trace 1 runs the host
// calibration loops, then each cell untraced, untraced in a forked child
// and traced, and reports the per-layer metrics. The last line of stdout is one JSON object; the exit
// code is non-zero when any correctness gate failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "cells.h"
#include "oltp/workload.h"
#include "sim/config.h"
#include "util/flat_hash.h"

namespace perfbench {

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fingerprint_of(const CellResult& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(h, &c.stats, sizeof c.stats);
  h = fnv(h, &c.cross, sizeof c.cross);
  for (std::uint64_t v : {c.ops, c.attempted, c.shed, c.deferred, c.wrong}) {
    h = fnv(h, &v, sizeof v);
  }
  for (std::uint64_t v : c.latency) h = fnv(h, &v, sizeof v);
  return h;
}

namespace {

// Spans of the largest traced run (avl_elision) with headroom; reserved up
// front so recording never allocates while cells are set up.
constexpr std::size_t kSpanReserve = 2'000'000;

// Longest --seconds accepted. A run ends within one repetition (under 10 s)
// of --seconds, so this keeps it inside run.py's 175 s run timeout.
constexpr double kMaxSeconds = 150;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<avl_elision|oltp_mix|oltp_open_slo> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > kMaxSeconds) {
        usage("bad --seconds");
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("bad --trace");
      }
      a.trace = v[0] == '1';
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "avl_elision" && a.workload != "oltp_mix" &&
      a.workload != "oltp_open_slo") {
    usage("unknown --workload");
  }
  return a;
}

/// One repetition: the inputs and every cell run once.
struct RepResult {
  double gen_s = 0.0;
  std::vector<CellResult> cells;
};

std::unique_ptr<Workload> make_workload(const Args& a, std::uint64_t seed) {
  return a.workload == "avl_elision" ? make_avl_elision(seed)
                                     : make_oltp(a.workload, seed);
}

/// Input seed of repetition `r`: every repetition draws fresh inputs, so
/// the median over repetitions averages independent draws.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t r) {
  return r == 0 ? seed : rtle::util::mix64(seed * 0x100000001b3ULL + r);
}

RepResult run_rep(const Args& a, std::uint64_t seed, const RunOpts& opts) {
  const std::unique_ptr<Workload> w = make_workload(a, seed);
  RepResult rep;
  rep.gen_s = w->gen_s;
  for (std::size_t i = 0; i < w->cells(); ++i) rep.cells.push_back(w->run(i, opts));
  return rep;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact quantile (nearest rank) of `v`, which it sorts.
double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

double cycles_per_ms() { return rtle::sim::MachineConfig::xeon().cycles_per_ms(); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// --- end-to-end metrics of one repetition -----------------------------------

struct EndToEnd {
  double tput = 0, p50 = 0, p99 = 0, p999 = 0, slo_rate = 0;
  std::uint64_t latency_samples = 0;
  double success = 0, host_s = 0, setup_s = 0;
  double ops = 0;  ///< committed simulated ops
  double flash_p99 = 0;  ///< open loop only
};

/// Closed loop, per cell (a method × thread count, its episodes pooled):
/// committed ops and ops that met the SLO per simulated ms, and op latency
/// quantiles (issue to completion); each figure is the geometric mean over
/// the cells.
void closed_loop_figures(const RepResult& rep, EndToEnd& e) {
  std::map<std::string, std::vector<const CellResult*>> cells;
  for (const CellResult& c : rep.cells) cells[c.label].push_back(&c);
  double lt = 0, ls = 0, l50 = 0, l99 = 0, l999 = 0;
  for (const auto& [label, episodes] : cells) {
    std::vector<std::uint64_t> lat;
    double ms = 0, ops = 0;
    for (const CellResult* c : episodes) {
      lat.insert(lat.end(), c->latency.begin(), c->latency.end());
      ms += c->sim_ms;
      ops += static_cast<double>(c->ops);
    }
    const auto ok = static_cast<double>(std::count_if(
        lat.begin(), lat.end(), [](std::uint64_t v) { return v <= kSloCycles; }));
    lt += std::log(std::max(1.0, ops) / ms);
    ls += std::log(std::max(1.0, ok) / ms);
    l50 += std::log(std::max(1.0, quantile(lat, 0.50)));
    l99 += std::log(std::max(1.0, quantile(lat, 0.99)));
    l999 += std::log(std::max(1.0, quantile(lat, 0.999)));
    e.latency_samples = e.latency_samples == 0
                            ? lat.size()
                            : std::min<std::uint64_t>(e.latency_samples, lat.size());
  }
  const double n = static_cast<double>(cells.size());
  e.tput = std::exp(lt / n);
  e.slo_rate = std::exp(ls / n);
  e.p50 = std::exp(l50 / n);
  e.p99 = std::exp(l99 / n);
  e.p999 = std::exp(l999 / n);
}

/// Open loop. Latency: sojourn quantiles of served arrivals at the
/// reference rate, medians over the episodes; the flash cell's p99 alike.
/// Throughput: served ops per ms on the overload rung (the top one), pooled
/// over its episodes, so capacity sets it rather than the offered rate.
/// SLO rate: an episode holds the SLO when its p99 over all arrivals (a shed
/// arrival is a miss) meets the SLO with no growing backlog. The figure is
/// the rate at which half the episodes hold it, interpolated linearly
/// between the rungs around the crossing (all episodes hold it at rate 0);
/// the top rung when no rung falls below half.
void open_loop_figures(const RepResult& rep, EndToEnd& e) {
  std::map<double, std::vector<const CellResult*>> rungs;
  std::vector<double> flash_p99;
  for (const CellResult& c : rep.cells) {
    if (c.offered_per_ms > 0) {
      rungs[c.offered_per_ms].push_back(&c);
    } else {
      std::vector<std::uint64_t> l = c.latency;
      flash_p99.push_back(quantile(l, 0.99));
    }
  }
  e.flash_p99 = median(flash_p99);
  std::vector<double> p50, p99, p999;
  for (const CellResult* c : rungs[open_slo_reference_rate()]) {
    std::vector<std::uint64_t> l = c->latency;
    p50.push_back(quantile(l, 0.50));
    p99.push_back(quantile(l, 0.99));
    p999.push_back(quantile(l, 0.999));
    e.latency_samples += l.size();
  }
  e.p50 = median(p50);
  e.p99 = median(p99);
  e.p999 = median(p999);
  double ops = 0, ms = 0;
  for (const CellResult* c : rungs.rbegin()->second) {
    ops += static_cast<double>(c->ops);
    ms += c->sim_ms;
  }
  e.tput = ops / ms;
  double prev_rate = 0, prev_held = 1;
  e.slo_rate = rungs.rbegin()->first;
  for (const auto& [rate, episodes] : rungs) {
    std::size_t held = 0;
    for (const CellResult* c : episodes) {
      std::vector<std::uint64_t> all = c->latency;
      all.insert(all.end(), c->shed, ~std::uint64_t{0});
      held += quantile(all, 0.99) <= kSloCycles && !c->backlog_growing ? 1 : 0;
    }
    const double frac =
        static_cast<double>(held) / static_cast<double>(episodes.size());
    if (frac < 0.5) {
      e.slo_rate = prev_rate +
                   (rate - prev_rate) * (prev_held - 0.5) / (prev_held - frac);
      break;
    }
    prev_rate = rate;
    prev_held = frac;
  }
}

EndToEnd end_to_end(const RepResult& rep) {
  EndToEnd e;
  std::uint64_t attempted = 0, failed = 0;
  for (const CellResult& c : rep.cells) {
    attempted += c.attempted;
    failed += c.shed + c.wrong + c.reports;
    e.ops += static_cast<double>(c.ops);
    e.host_s += c.sim_s;
    e.setup_s += c.setup_s;
  }
  e.setup_s += rep.gen_s;
  e.success = attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0;
  if (!rep.cells.empty() && rep.cells[0].open_loop) {
    open_loop_figures(rep, e);
  } else {
    closed_loop_figures(rep, e);
  }
  return e;
}

// --- per-layer metrics of the traced repetition ------------------------------

std::vector<Metric> per_layer(const RepResult& traced,
                              const RepResult& untraced,
                              const RepResult& under_check,
                              const std::vector<Span>& spans,
                              const HostCalibration& cal,
                              std::uint32_t divergent) {
  rtle::runtime::MethodStats st;
  rtle::oltp::CrossStats x;
  std::uint64_t ops = 0, attempted = 0, shed = 0, deferred = 0, switches = 0;
  double sim_ms = 0, guard_cycles = 0, setup = traced.gen_s, sim_s = 0;
  std::vector<std::uint64_t> qdelay;
  for (const CellResult& c : traced.cells) {
    rtle::oltp::accumulate(st, c.stats);
    for (std::size_t k = 0; k < c.cross.abort_cause.size(); ++k) {
      st.abort_cause[k] += c.cross.abort_cause[k];  // cross aborts by cause
    }
    x.commits += c.cross.commits;
    x.htm_commits += c.cross.htm_commits;
    x.lock_commits += c.cross.lock_commits;
    x.aborts += c.cross.aborts;
    ops += c.ops;
    attempted += c.attempted;
    shed += c.shed;
    deferred += c.deferred;
    switches += c.switches;
    sim_ms += c.sim_ms;
    guard_cycles += c.sim_ms * cycles_per_ms() * c.guards;
    setup += c.setup_s;
    sim_s += c.sim_s;
    qdelay.insert(qdelay.end(), c.queue_delay.begin(), c.queue_delay.end());
  }
  auto ratio = [](double n, double d) { return d > 0 ? n / d : 0.0; };
  const double fops = static_cast<double>(ops);

  // Span-derived simulated numbers. A "call" is a span whose children are
  // body runs (execute, multi, range_tx); its last body run committed, the
  // earlier ones were wasted attempts.
  const std::size_t n = spans.size();
  std::vector<std::uint32_t> last_body(n, Span::kNoParent);
  std::vector<std::uint64_t> wasted(n, 0);
  std::vector<std::uint32_t> runs(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.name != SpanName::kBody || s.parent == Span::kNoParent) continue;
    const std::uint32_t p = s.parent;
    if (last_body[p] != Span::kNoParent) {
      const Span& prev = spans[last_body[p]];
      wasted[p] += prev.sim_end - prev.sim_start;
    }
    last_body[p] = i;
    runs[p] += 1;
  }
  std::map<SpanName, std::vector<std::uint64_t>> dur;
  std::vector<std::uint64_t> committed_body;
  double calls = 0, body_runs = 0, call_cycles = 0, wasted_cycles = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    dur[s.name].push_back(s.sim_end - s.sim_start);
    if (runs[i] == 0) continue;
    calls += 1;
    body_runs += runs[i];
    call_cycles += static_cast<double>(s.sim_end - s.sim_start);
    wasted_cycles += static_cast<double>(wasted[i]);
    const Span& b = spans[last_body[i]];
    committed_body.push_back(b.sim_end - b.sim_start);
  }
  auto q = [&](SpanName nm, double p) { return quantile(dur[nm], p); };

  const double htm_commits = st.commit_fast_htm + st.commit_slow_htm +
                             st.rhn_htm_fast + st.rhn_htm_slow +
                             st.commit_stm_htm + x.htm_commits;
  const double stm_tx = st.commit_stm_ro + st.commit_stm_htm + st.commit_stm_lock;
  auto cause = [&](rtle::htm::AbortCause c) {
    return ratio(st.abort_cause[static_cast<std::size_t>(c)], fops);
  };
  const double untraced_host = end_to_end(untraced).host_s;
  const double traced_host = end_to_end(traced).host_s;
  // Checker cost: host time the armed CheckSession adds per simulated op.
  std::uint64_t reports = 0;
  double check_ns = 0.0;
  if (!under_check.cells.empty()) {
    std::uint64_t untraced_ops = 0;
    for (const CellResult& c : untraced.cells) untraced_ops += c.ops;
    for (const CellResult& c : under_check.cells) reports += c.reports;
    check_ns = (end_to_end(under_check).host_s - untraced_host) * 1e9 /
               static_cast<double>(untraced_ops);
  }

  std::vector<Metric> m = {
      {"sim.fiber_switch_ns", cal.fiber_switch_ns, "ns"},
      {"sim.advance_ns", cal.advance_ns, "ns"},
      {"sim.run_host_frac", ratio(sim_s, sim_s + setup), "frac"},
      {"sim.layout_divergent_cells", static_cast<double>(divergent), "count"},
      {"mem.plain_load_ns", cal.plain_load_ns, "ns"},
      {"mem.plain_store_ns", cal.plain_store_ns, "ns"},
      {"htm.round_trip_ns", cal.htm_round_trip_ns, "ns"},
      {"htm.commit_ratio",
       ratio(htm_commits, htm_commits + st.aborts_fast + st.aborts_slow + x.aborts),
       "frac"},
      {"htm.abort_conflict_per_op", cause(rtle::htm::AbortCause::kConflict), "1/op"},
      {"htm.abort_capacity_per_op", cause(rtle::htm::AbortCause::kCapacity), "1/op"},
      {"htm.abort_explicit_per_op", cause(rtle::htm::AbortCause::kExplicit), "1/op"},
      {"htm.abort_lock_busy_per_op", cause(rtle::htm::AbortCause::kLockBusy), "1/op"},
      {"runtime.fast_frac", ratio(st.commit_fast_htm, st.ops), "frac"},
      {"runtime.slow_frac", ratio(st.commit_slow_htm, st.ops), "frac"},
      {"runtime.lock_frac", ratio(st.commit_lock, st.ops), "frac"},
      {"runtime.execute_cycles_p50", q(SpanName::kExecute, 0.50), "cycles"},
      {"runtime.execute_cycles_p99", q(SpanName::kExecute, 0.99), "cycles"},
      {"runtime.body_runs_per_call", ratio(body_runs, calls), "count"},
      {"runtime.wasted_cycles_frac", ratio(wasted_cycles, call_cycles), "frac"},
      {"tle.slow_htm_while_locked_per_ms", ratio(st.slow_htm_while_locked, sim_ms),
       "1/ms"},
      {"tle.lock_held_frac_per_guard", ratio(st.cycles_under_lock, guard_cycles),
       "frac"},
      {"stm.validations_per_tx", ratio(st.validations, stm_tx), "count"},
      {"stm.commit_lock_frac", ratio(st.commit_stm_lock, stm_tx), "frac"},
      {"sync.lock_acq_per_op", ratio(st.lock_acquisitions, fops), "1/op"},
      {"sync.sux_shared_acq_per_op", ratio(st.sux_shared_acquisitions, fops), "1/op"},
      {"sync.sux_upgrades_per_op", ratio(st.sux_upgrades, fops), "1/op"},
      {"cc.validation_aborts_per_op", ratio(st.cc_validation_aborts, fops), "1/op"},
      {"cc.wounds_per_op", ratio(st.cc_wounds, fops), "1/op"},
      {"cc.ts_extensions_per_op", ratio(st.cc_ts_extensions, fops), "1/op"},
      {"ds.body_cycles_p50", quantile(committed_body, 0.50), "cycles"},
      {"idx.scan_fallback_frac", ratio(st.idx_phantom_aborts, st.idx_scans), "frac"},
  };
  const std::pair<const char*, SpanName> store_ops[] = {
      {"get", SpanName::kGet},           {"put", SpanName::kPut},
      {"multi", SpanName::kMulti},       {"multi_get", SpanName::kMultiGet},
      {"scan", SpanName::kScan},         {"range_tx", SpanName::kRangeTx}};
  for (const auto& [nm, sn] : store_ops) {
    const std::string base = std::string("oltp.") + nm;
    m.push_back({base + "_cycles_p50", q(sn, 0.50), "cycles"});
    m.push_back({base + "_cycles_p99", q(sn, 0.99), "cycles"});
    m.push_back({base + "_calls", static_cast<double>(dur[sn].size()), "count"});
  }
  m.push_back({"oltp.cross_fallback_frac", ratio(x.lock_commits, x.commits), "frac"});
  m.push_back({"admit.shed_frac", ratio(shed, attempted), "frac"});
  m.push_back({"admit.defer_frac", ratio(deferred, attempted), "frac"});
  m.push_back({"admit.queue_delay_p99_cycles", quantile(qdelay, 0.99), "cycles"});
  m.push_back({"admit.flash_p99_cycles", end_to_end(traced).flash_p99, "cycles"});
  m.push_back({"admit.switches", static_cast<double>(switches), "count"});
  m.push_back({"admit.on_arrival_ns", cal.admit_on_arrival_ns, "ns"});
  m.push_back({"check.host_ns_per_sim_op", check_ns, "ns"});
  m.push_back({"check.reports", static_cast<double>(reports), "count"});
  m.push_back({"tracing.overhead_s", traced_host - untraced_host, "s"});
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_cells(const RepResult& rep) {
  std::printf("%-22s %12s %10s %10s %8s %8s %4s %9s\n", "cell", "ops/sim_ms",
              "p50_cyc", "p99_cyc", "shed", "wrong", "sw", "host_ms");
  for (const CellResult& c : rep.cells) {
    std::vector<std::uint64_t> lat = c.latency;
    const double p50 = quantile(lat, 0.5);
    const double p99 = quantile(lat, 0.99);
    const std::string name = c.label + "/e" + std::to_string(c.episode);
    std::printf("%-22s %12.1f %10.0f %10.0f %8llu %8llu %4llu %9.1f\n",
                name.c_str(), c.ops / c.sim_ms, p50, p99,
                static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.wrong + c.reports),
                static_cast<unsigned long long>(c.switches), c.sim_s * 1e3);
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v, ms[i].unit);
  }
  std::printf("}}\n");
}

std::uint64_t failures(const RepResult& rep) {
  std::uint64_t f = 0;
  for (const CellResult& c : rep.cells) f += c.wrong + c.reports;
  return f;
}

std::uint64_t attempts(const RepResult& rep) {
  std::uint64_t n = 0;
  for (const CellResult& c : rep.cells) n += c.attempted;
  return n;
}

int run_untraced(const Args& a) {
  const std::uint64_t t0 = host_ns();
  std::vector<EndToEnd> es;
  std::uint64_t attempted = 0, failed = 0;
  double rss_mb = 0.0;
  RepResult last;
  // At least three repetitions, so every reported figure is a median; stop
  // when one more would overrun --seconds by more than half a repetition.
  auto elapsed = [&] { return static_cast<double>(host_ns() - t0) * 1e-9; };
  while (es.size() < 3 ||
         elapsed() * (1.0 + 0.5 / static_cast<double>(es.size())) < a.seconds) {
    RunOpts opts;
    opts.layout_salt = es.size();
    last = run_rep(a, rep_seed(a.seed, es.size()), opts);
    if (es.empty()) rss_mb = peak_rss_mb();
    es.push_back(end_to_end(last));
    attempted += attempts(last);
    failed += failures(last);
  }
  print_cells(last);
  auto med = [&](double EndToEnd::*f) {
    std::vector<double> v;
    for (const EndToEnd& e : es) v.push_back(e.*f);
    return median(v);
  };
  // Simulator speed over the whole run, not a median of per-repetition
  // ratios: the ops of one repetition move with heap layout, and the
  // aggregate averages that out.
  double ops = 0, host_s = 0;
  for (const EndToEnd& e : es) {
    ops += e.ops;
    host_s += e.host_s;
  }
  const std::vector<Metric> ms = {
      {"sim_tput_ops_per_ms", med(&EndToEnd::tput), "ops/ms"},
      {"sim_p50_cycles", med(&EndToEnd::p50), "cycles"},
      {"sim_p99_cycles", med(&EndToEnd::p99), "cycles"},
      {"sim_p999_cycles", med(&EndToEnd::p999), "cycles"},
      {"sim_slo_rate_per_ms", med(&EndToEnd::slo_rate), "1/ms"},
      {"success_frac", med(&EndToEnd::success), "frac"},
      {"host_s", med(&EndToEnd::host_s), "s"},
      {"sim_ops_per_host_s", ops / host_s, "ops/s"},
      {"setup_s", med(&EndToEnd::setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  std::printf("repetitions=%zu latency samples (closed loop: fewest in a cell; "
              "open loop: at the reference rate)=%llu\n",
              es.size(),
              static_cast<unsigned long long>(es.back().latency_samples));
  if (es.back().flash_p99 > 0) {
    std::printf("flash-crowd p99 (served, median over episodes): %.0f cycles\n",
                med(&EndToEnd::flash_p99));
  }
  for (const Metric& m : ms) {
    std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_json(failed == 0, attempted, failed, ms);
  return failed == 0 ? 0 : 1;
}

/// Fingerprint of cell `i` run in a forked child, which starts from this
/// process's exact heap state; nullopt if the child failed.
std::optional<std::uint64_t> fingerprint_in_child(const Workload& w,
                                                  std::size_t i,
                                                  const RunOpts& opts) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::uint64_t fp = w.run(i, opts).fingerprint;
    const bool ok = write(fds[1], &fp, sizeof fp) == sizeof fp;
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::uint64_t fp = 0;
  const bool got = pid > 0 && read(fds[0], &fp, sizeof fp) == sizeof fp;
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return fp;
}

int run_traced(const Args& a) {
  const HostCalibration cal = calibrate();
  SpanRecorder rec(kSpanReserve);
  RunOpts topts;
  topts.rec = &rec;
  // oltp_mix also runs every cell under an armed CheckSession: the checker
  // charges no simulated cycles, so the host time it adds is its cost.
  RunOpts checked;
  checked.check = true;
  const bool check = a.workload == "oltp_mix";
  RepResult under_check;
  const std::unique_ptr<Workload> w = make_workload(a, a.seed);
  // Per cell: an untraced execution here; an untraced execution in a forked
  // child, which starts from the heap state the traced execution then starts
  // from here. Heap layout is the only thing that differs between the first
  // two, so a cell whose results differ there is layout-divergent. The traced
  // execution must reproduce the child's exactly, in every cell.
  RepResult untraced, traced;
  untraced.gen_s = traced.gen_s = w->gen_s;
  std::uint32_t divergent = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < w->cells(); ++i) {
    if (check) under_check.cells.push_back(w->run(i, checked));
    untraced.cells.push_back(w->run(i, RunOpts{}));
    const std::optional<std::uint64_t> child = fingerprint_in_child(*w, i, RunOpts{});
    traced.cells.push_back(w->run(i, topts));
    const CellResult& t = traced.cells.back();
    const std::string name = t.label + "/e" + std::to_string(t.episode);
    if (child && *child != untraced.cells.back().fingerprint) {
      divergent += 1;
      std::printf("layout-divergent cell: %s\n", name.c_str());
    }
    if (!child || *child != t.fingerprint) {
      mismatched += 1;
      std::printf("TRACED RUN CHANGED A SIMULATED RESULT: %s\n", name.c_str());
    }
  }
  print_cells(traced);
  const std::string path =
      a.out + "/spans-" + a.workload + ".tsv";
  if (!rec.write_tsv(path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
  } else {
    std::printf("spans: %zu written to %s\n", rec.spans().size(), path.c_str());
  }
  const std::vector<Metric> ms =
      per_layer(traced, untraced, under_check, rec.spans(), cal, divergent);
  for (const Metric& m : ms) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  const std::uint64_t failed = failures(untraced) + failures(traced) +
                               failures(under_check) + mismatched;
  const std::uint64_t attempted =
      attempts(untraced) + attempts(traced) + attempts(under_check);
  print_json(failed == 0, attempted, failed, ms);
  return failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  return a.trace ? perfbench::run_traced(a) : perfbench::run_untraced(a);
}
