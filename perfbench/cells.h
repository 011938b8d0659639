// The workloads: each generates its inputs from a seed and runs its cells
// (one simulated machine per cell run) through the library's public APIs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {

struct RunOpts {
  SpanRecorder* rec = nullptr;  ///< non-null: the traced run
  bool check = false;           ///< OLTP cells: arm a check::CheckSession
  std::uint64_t layout_salt = 0;  ///< see LayoutPad
};

/// One workload: the inputs generated from the seed, and its cells. Each
/// run() builds a fresh simulated machine for the cell and runs it once.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual std::size_t cells() const = 0;
  virtual CellResult run(std::size_t cell, const RunOpts& opts) const = 0;

  double gen_s = 0.0;  ///< host: generating the seed's inputs
};

/// p99 sojourn SLO of the OLTP workloads, simulated cycles (as in the
/// oltp_capacity figure: ~22 us on the 2.3 GHz xeon model).
inline constexpr std::uint64_t kSloCycles = 50'000;

std::unique_ptr<Workload> make_avl_elision(std::uint64_t seed);
/// workload: "oltp_mix" or "oltp_open_slo".
std::unique_ptr<Workload> make_oltp(const std::string& workload,
                                    std::uint64_t seed);

/// Reference rate of oltp_open_slo (arrivals per simulated ms): the rung
/// its latency quantiles are read at.
double open_slo_reference_rate();

/// Input seed of episode `e` of a run with seed `seed`.
inline std::uint64_t episode_seed(std::uint64_t seed, std::uint32_t e) {
  return seed * 0x9e3779b97f4a7c15ULL + e * 0x632be59bd9b4e019ULL + 1;
}

/// FNV-1a over raw bytes, for cell fingerprints.
std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n);
/// Fingerprint of the simulated outcome common to every cell.
std::uint64_t fingerprint_of(const CellResult& c);

}  // namespace perfbench
