#include "src/serve/admission.h"

#include <algorithm>

namespace webcc {

AdmissionController::AdmissionController(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

// Every access is relaxed: a reservation guards no data of its own (the
// pool's queue hands the request over), so only each counter's own
// atomicity matters.
bool AdmissionController::TryAdmit() {
  offered_.fetch_add(1, std::memory_order_relaxed);
  size_t depth = depth_.load(std::memory_order_relaxed);
  do {
    if (depth >= capacity_) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } while (!depth_.compare_exchange_weak(depth, depth + 1, std::memory_order_relaxed));
  admitted_.fetch_add(1, std::memory_order_relaxed);
  const size_t reserved = depth + 1;
  size_t peak = depth_peak_.load(std::memory_order_relaxed);
  while (peak < reserved &&
         !depth_peak_.compare_exchange_weak(peak, reserved, std::memory_order_relaxed)) {
  }
  return true;
}

void AdmissionController::Release() {
  size_t depth = depth_.load(std::memory_order_relaxed);
  do {
    WEBCC_CHECK(depth > 0) << "AdmissionController::Release without a matching TryAdmit";
  } while (!depth_.compare_exchange_weak(depth, depth - 1, std::memory_order_relaxed));
}

AdmissionController::Counters AdmissionController::counters() const {
  Counters out;
  out.offered = offered_.load(std::memory_order_relaxed);
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.depth = depth_.load(std::memory_order_relaxed);
  out.depth_peak = depth_peak_.load(std::memory_order_relaxed);
  out.capacity = capacity_;
  return out;
}

}  // namespace webcc
