// The simulation engine: a clock plus an event queue plus a run loop.
//
// Components (origin server mutators, workload drivers, retry timers)
// schedule callbacks; Run() executes them in timestamp order, advancing the
// clock monotonically. The engine is single-threaded by design — web cache
// consistency is a logical-time problem, and determinism is worth more here
// than parallelism.

#ifndef WEBCC_SRC_SIM_ENGINE_H_
#define WEBCC_SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>

#include "src/sim/event_queue.h"
#include "src/util/sim_time.h"

namespace webcc {

class SimEngine {
 public:
  using Callback = EventQueue::Callback;

  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // Current simulated time. Starts at the epoch and never goes backwards.
  SimTime Now() const { return now_; }

  // Schedules `fn` at the absolute time `at`. Scheduling in the past is a
  // logic error; such events are clamped to Now() and fire next, and the
  // clamped_events counter records the anomaly so tests can assert on it.
  EventHandle ScheduleAt(SimTime at, Callback fn);

  // Schedules `fn` after a relative delay (negative delays clamp to 0).
  EventHandle ScheduleAfter(SimDuration delay, Callback fn);

  // Runs events until the queue empties. Returns the number executed.
  uint64_t Run();

  // Runs events with time <= deadline; afterwards Now() == max(deadline,
  // Now()) even if the queue emptied earlier, so post-run bookkeeping sees a
  // consistent end-of-experiment clock.
  uint64_t RunUntil(SimTime deadline) {
    if (queue_.empty()) {  // the common case: a replay with nothing scheduled
      now_ = deadline < now_ ? now_ : deadline;
      return 0;
    }
    return RunDueEvents(deadline);
  }

  // Executes exactly one event if one is pending. Returns whether it did.
  bool Step();

  // Diagnostics.
  uint64_t events_executed() const { return events_executed_; }
  uint64_t events_scheduled() const { return queue_.total_scheduled(); }
  uint64_t clamped_events() const { return clamped_events_; }
  size_t pending_events() const { return queue_.pending(); }

 private:
  uint64_t RunDueEvents(SimTime deadline);

  EventQueue queue_;
  SimTime now_ = SimTime::Epoch();
  uint64_t events_executed_ = 0;
  uint64_t clamped_events_ = 0;
};

}  // namespace webcc

#endif  // WEBCC_SRC_SIM_ENGINE_H_
