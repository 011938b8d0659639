#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "sim/env.h"
#include "util/flat_hash.h"

namespace perfbench {

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kRequest: return "request";
    case SpanName::kExecute: return "runtime.execute";
    case SpanName::kBody: return "body";
    case SpanName::kGet: return "oltp.get";
    case SpanName::kPut: return "oltp.put";
    case SpanName::kMulti: return "oltp.multi";
    case SpanName::kMultiGet: return "oltp.multi_get";
    case SpanName::kScan: return "oltp.scan";
    case SpanName::kRangeTx: return "oltp.range_tx";
    case SpanName::kAdmitArrival: return "admit.on_arrival";
    case SpanName::kAdmitComplete: return "admit.on_complete";
    case SpanName::kAdmitWindow: return "admit.close_window";
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t reserve)
    : stacks_(kMaxThreads), host_epoch_(host_ns()) {
  spans_.reserve(reserve);
  for (auto& s : stacks_) s.reserve(8);
}

void SpanRecorder::begin_cell(std::uint16_t cell) {
  cell_ = cell;
  for (auto& s : stacks_) s.clear();
}

std::uint32_t SpanRecorder::open(std::uint32_t tid, SpanName name,
                                 std::uint64_t request,
                                 std::uint64_t sim_start) {
  Span s;
  s.request = request;
  s.sim_start = sim_start;
  s.host_start = host_ns() - host_epoch_;
  s.cell = cell_;
  s.name = name;
  auto& stack = stacks_[tid];
  s.parent = stack.empty() ? Span::kNoParent : stack.back();
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack.push_back(idx);
  return idx;
}

void SpanRecorder::close(std::uint32_t tid, std::uint32_t idx) {
  Span& s = spans_[idx];
  s.sim_end = rtle::cur_sched().now();
  s.host_end = host_ns() - host_epoch_;
  stacks_[tid].pop_back();
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::vector<std::uint64_t> child_sim(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != Span::kNoParent) {
      child_sim[s.parent] += s.sim_end - s.sim_start;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tcell\trequest\tname\tparent\tsim_start\tsim_end\t"
               "sim_self\thost_start_ns\thost_end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.sim_end - s.sim_start;
    std::fprintf(f, "%zu\t%u\t%llu\t%s\t%lld\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                 i, s.cell, static_cast<unsigned long long>(s.request),
                 to_string(s.name),
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.sim_start),
                 static_cast<unsigned long long>(s.sim_end),
                 static_cast<unsigned long long>(dur - child_sim[i]),
                 static_cast<unsigned long long>(s.host_start),
                 static_cast<unsigned long long>(s.host_end));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(SpanRecorder* rec, std::uint32_t tid, SpanName name,
                     std::uint64_t request)
    : SpanScope(rec, tid, name, request,
                rec != nullptr ? rtle::cur_sched().now() : 0) {}

SpanScope::SpanScope(SpanRecorder* rec, std::uint32_t tid, SpanName name,
                     std::uint64_t request, std::uint64_t sim_start)
    : rec_(rec), tid_(tid) {
  if (rec_ != nullptr) idx_ = rec_->open(tid, name, request, sim_start);
}

SpanScope::~SpanScope() {
  if (rec_ != nullptr) rec_->close(tid_, idx_);
}

LayoutPad::LayoutPad(std::uint64_t salt, std::uint64_t cell) {
  const std::uint64_t h = rtle::util::mix64(salt * 0x9e3779b97f4a7c15ULL + cell);
  page_bytes_ = (1 + h % 64) * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  pages_ = mmap(nullptr, page_bytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages_ == MAP_FAILED) pages_ = nullptr;
  block_ = std::malloc(16 * (1 + (h >> 8) % 256));
}

LayoutPad::~LayoutPad() {
  std::free(block_);
  if (pages_ != nullptr) munmap(pages_, page_bytes_);
}

}  // namespace perfbench
