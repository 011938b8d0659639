// Host-cost calibration loops. A fiber switch inside a span bills other
// fibers' work to it, so per-call host costs cannot come from the traced
// run's spans; they come from these single-fiber loops over the same public
// calls instead. Each loop warms up, then times several batches and keeps
// the median batch.
#include "calibrate.h"

#include <algorithm>
#include <vector>

#include "admit/controller.h"
#include "bench.h"
#include "htm/htm.h"
#include "mem/shim.h"
#include "sim/env.h"
#include "sim/fiber.h"

namespace perfbench {

namespace {

constexpr int kBatches = 7;

/// Median over kBatches of ns per iteration of `batch(iters)`, after one
/// untimed warm-up batch.
template <typename F>
double median_ns(std::uint64_t iters, F&& batch) {
  batch(iters);
  std::vector<double> v;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = host_ns();
    batch(iters);
    v.push_back(static_cast<double>(host_ns() - t0) / static_cast<double>(iters));
  }
  std::nth_element(v.begin(), v.begin() + kBatches / 2, v.end());
  return v[kBatches / 2];
}

/// Run `body` inside one simulated thread of a fresh machine.
template <typename F>
void in_fiber(F&& body) {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  sim.sched.spawn([&] { body(sim); }, 0);
  sim.sched.run();
}

}  // namespace

HostCalibration calibrate() {
  HostCalibration c;
  alignas(64) static std::uint64_t words[64];

  // Fiber round trip (main → fiber → main); reported per switch.
  {
    rtle::sim::Context main_ctx;
    bool stop = false;
    rtle::sim::Fiber* fp = nullptr;
    rtle::sim::Fiber fiber([&] {
      while (!stop) fp->switch_to(main_ctx);
    });
    fp = &fiber;
    fiber.return_to = &main_ctx;
    c.fiber_switch_ns = median_ns(200'000, [&](std::uint64_t n) {
                          for (std::uint64_t i = 0; i < n; ++i) {
                            fiber.switch_from(main_ctx);
                          }
                        }) /
                        2.0;
    stop = true;
    fiber.switch_from(main_ctx);
  }

  // Scheduler::advance with 4 runnable fibers interleaving; only run() is
  // timed, not building the machine.
  {
    constexpr std::uint64_t kPerFiber = 25'000;
    std::vector<double> v;
    for (int b = 0; b <= kBatches; ++b) {
      rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
      for (std::uint32_t t = 0; t < 4; ++t) {
        sim.sched.spawn(
            [] {
              for (std::uint64_t i = 0; i < kPerFiber; ++i) {
                rtle::cur_sched().advance(10);
              }
            },
            t);
      }
      const std::uint64_t t0 = host_ns();
      sim.sched.run();
      if (b > 0) {  // batch 0 is the warm-up
        v.push_back(static_cast<double>(host_ns() - t0) / (4 * kPerFiber));
      }
    }
    std::nth_element(v.begin(), v.begin() + kBatches / 2, v.end());
    c.advance_ns = v[kBatches / 2];
  }

  in_fiber([&](rtle::SimScope&) {
    std::uint64_t sink = 0;
    c.plain_load_ns = median_ns(200'000, [&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        sink += rtle::mem::plain_load(&words[(i & 7) * 8]);
      }
    });
    c.plain_store_ns = median_ns(200'000, [&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        rtle::mem::plain_store(&words[(i & 7) * 8], i);
      }
    });
    words[1] = sink;
  });

  // HTM round trip: begin + one transactional load + commit. Spurious
  // aborts are part of the emulation's price and stay in the loop.
  in_fiber([&](rtle::SimScope& sim) {
    rtle::htm::Tx tx(0);
    std::uint64_t sink = 0;
    c.htm_round_trip_ns = median_ns(50'000, [&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        try {
          sim.htm.begin(tx);
          sink += sim.htm.tx_load(tx, &words[(i & 7) * 8]);
          sim.htm.commit(tx);
        } catch (const rtle::htm::HtmAbort&) {
        }
      }
    });
    words[2] = sink;
  });

  // Admission decision for one arrival (an open controller with an SLO).
  in_fiber([&](rtle::SimScope&) {
    rtle::admit::Config ac;
    ac.slo_p99_cycles = 50'000;
    ac.interval_cycles = ~std::uint64_t{0} / 4;  // one window: never closes
    rtle::admit::Controller ctrl(ac);
    ctrl.start(0);
    std::uint64_t now = 0;
    std::uint64_t admitted = 0;
    c.admit_on_arrival_ns = median_ns(200'000, [&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        now += 100;
        admitted += ctrl.on_arrival(0, i & 1023, now).verdict ==
                    rtle::admit::Verdict::kAdmit;
      }
    });
    words[3] = admitted;
  });
  return c;
}

}  // namespace perfbench
