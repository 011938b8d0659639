// Shared types of the repository benchmark (see README.md in this
// directory): the in-memory span recorder of the traced run, layout
// padding, and cell results.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "oltp/store.h"
#include "runtime/stats.h"

namespace perfbench {

inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- spans -----------------------------------------------------------------

/// Span names: one per layer boundary the benchmark's own code wraps.
enum class SpanName : std::uint8_t {
  kRequest,        ///< one operation, issue (closed) or due time (open) to done
  kExecute,        ///< SyncMethod::execute
  kBody,           ///< one run of a critical-section / MultiBody / RangeBody
  kGet,            ///< Store::get
  kPut,            ///< Store::put
  kMulti,          ///< Store::multi
  kMultiGet,       ///< Store::multi_get
  kScan,           ///< Store::scan
  kRangeTx,        ///< Store::range_tx
  kAdmitArrival,   ///< Controller::on_arrival
  kAdmitComplete,  ///< Controller::on_complete
  kAdmitWindow,    ///< Controller::close_window (+ any method switch)
};
const char* to_string(SpanName n);

struct Span {
  std::uint64_t request = 0;  ///< request id shared by a request's spans
  std::uint64_t sim_start = 0;
  std::uint64_t sim_end = 0;
  std::uint64_t host_start = 0;  ///< ns since the recorder was made
  std::uint64_t host_end = 0;
  std::uint32_t parent = kNoParent;
  std::uint16_t cell = 0;
  SpanName name = SpanName::kRequest;
  static constexpr std::uint32_t kNoParent = ~0u;
};

/// In-memory span store. Fibers interleave, so each simulated thread keeps
/// its own stack of open spans; a span's parent is the innermost open span
/// of the same thread. Simulated stamps come from Scheduler::now(), which
/// costs no simulated cycles, so recording never changes the schedule.
class SpanRecorder {
 public:
  /// Simulated threads per cell the recorder keeps span stacks for.
  static constexpr std::uint32_t kMaxThreads = 64;

  explicit SpanRecorder(std::size_t reserve);

  void begin_cell(std::uint16_t cell);
  std::uint32_t open(std::uint32_t tid, SpanName name, std::uint64_t request,
                     std::uint64_t sim_start);
  void close(std::uint32_t tid, std::uint32_t idx);

  const std::vector<Span>& spans() const { return spans_; }
  /// Write every span (with its self time) as TSV. False on I/O failure.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<std::uint32_t>> stacks_;
  std::uint64_t host_epoch_;  ///< host stamps are ns since construction
  std::uint16_t cell_ = 0;
};

/// RAII span: closes on scope exit, including unwinding from an HTM abort
/// thrown through a critical-section body. A null recorder records nothing.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, std::uint32_t tid, SpanName name,
            std::uint64_t request);
  SpanScope(SpanRecorder* rec, std::uint32_t tid, SpanName name,
            std::uint64_t request, std::uint64_t sim_start);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t tid_;
  std::uint32_t idx_ = 0;
};

// --- layout sampling ---------------------------------------------------------

/// Shifts where the next cell's data lands: maps 1..64 pages (untouched) and
/// allocates a 16..4096-byte block, both sized from `salt` and `cell`, and
/// frees them when the cell is done. Simulated line identity derives from
/// heap addresses, so results swing with layout; repetitions pass different
/// salts so that a run samples many layouts instead of repeating one.
class LayoutPad {
 public:
  LayoutPad(std::uint64_t salt, std::uint64_t cell);
  ~LayoutPad();
  LayoutPad(const LayoutPad&) = delete;
  LayoutPad& operator=(const LayoutPad&) = delete;

 private:
  void* pages_ = nullptr;
  std::size_t page_bytes_ = 0;
  void* block_ = nullptr;
};

// --- cell results ------------------------------------------------------------

/// Everything one cell (one method × one thread count or rate) produced.
struct CellResult {
  std::string label;  ///< method/threads or rate; episodes share it
  std::uint32_t episode = 0;
  double sim_ms = 0.0;
  std::uint64_t ops = 0;        ///< committed operations
  std::uint64_t attempted = 0;  ///< operations issued (incl. shed arrivals)
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t wrong = 0;    ///< failed correctness gates
  std::uint64_t reports = 0;  ///< checker reports
  std::uint32_t guards = 1;   ///< lock guards (1, or the store's shards)
  double setup_s = 0.0;       ///< host: SimScope, methods, prefill, inputs
  double sim_s = 0.0;         ///< host: Scheduler::run
  /// Simulated latency of each served op (cycles): issue → done in a closed
  /// loop, due time → done in an open loop.
  std::vector<std::uint64_t> latency;
  /// Open loop: queueing delay (start − due) of each served arrival.
  std::vector<std::uint64_t> queue_delay;
  bool open_loop = false;
  double offered_per_ms = 0.0;  ///< open loop: ladder rate
  bool backlog_growing = false;
  std::uint64_t switches = 0;
  rtle::runtime::MethodStats stats;  ///< summed over guards (and retired ones)
  rtle::oltp::CrossStats cross;
  /// Hash of the simulated outcome; equal hashes = identical simulation.
  std::uint64_t fingerprint = 0;
};

}  // namespace perfbench
