// Bounded admission control for the serve frontend.
//
// The frontend's defense against unbounded growth: every request must
// reserve a slot here before it may enter the worker pool's queue, and the
// reservation is held until the request's final outcome. Depth therefore
// counts queued + in-service requests, and the pool's internal task queue
// can never grow past the admission capacity. A full controller rejects
// instead of blocking — load-shedding with a metric, never a hidden
// buffer — which is what keeps an overloaded frontend's latency bounded
// (the clients that are admitted are served promptly; the rest learn
// immediately).
//
// Lock-free: a reservation is one compare-and-swap on the depth, so depth
// never exceeds capacity, and the counters are monotonic atomics. Neither
// the submitting thread (TryAdmit) nor a finishing worker (Release) ever
// waits for the other here.

#ifndef WEBCC_SRC_SERVE_ADMISSION_H_
#define WEBCC_SRC_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/util/check.h"

namespace webcc {

class AdmissionController {
 public:
  // `capacity` is the maximum simultaneous admitted (queued + running)
  // requests; clamped to at least 1.
  explicit AdmissionController(size_t capacity);

  // Reserves one slot. Returns false — and counts a shed — when the
  // controller is at capacity. Thread-safe.
  [[nodiscard]] bool TryAdmit();

  // Releases a previously admitted slot at the request's final outcome.
  // Thread-safe.
  void Release();

  struct Counters {
    uint64_t offered = 0;   // TryAdmit calls
    uint64_t admitted = 0;  // successful reservations
    uint64_t shed = 0;      // rejected at capacity
    size_t depth = 0;       // currently held slots
    size_t depth_peak = 0;  // high-water mark (never exceeds capacity)
    size_t capacity = 0;
  };
  // Each field is read atomically; taken while requests are in flight the
  // fields may be a few operations apart, exact once they quiesce.
  [[nodiscard]] Counters counters() const;

 private:
  const size_t capacity_;
  // The reservation itself; the submitting thread and the workers both
  // write it, so it sits on its own cache line, away from the counters
  // only the submitting side bumps.
  alignas(64) std::atomic<size_t> depth_{0};
  alignas(64) std::atomic<size_t> depth_peak_{0};
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace webcc

#endif  // WEBCC_SRC_SERVE_ADMISSION_H_
