#include "src/sim/engine.h"

#include <algorithm>

namespace webcc {

EventHandle SimEngine::ScheduleAt(SimTime at, Callback fn) {
  if (at < now_) {
    at = now_;
    ++clamped_events_;
  }
  return queue_.Schedule(at, std::move(fn));
}

EventHandle SimEngine::ScheduleAfter(SimDuration delay, Callback fn) {
  if (delay < SimDuration(0)) {
    delay = SimDuration(0);
  }
  return queue_.Schedule(now_ + delay, std::move(fn));
}

bool SimEngine::Step() {
  auto fired = queue_.PopNext();
  if (!fired) {
    return false;
  }
  now_ = std::max(now_, fired->time);
  ++events_executed_;
  fired->fn();
  return true;
}

uint64_t SimEngine::Run() {
  uint64_t n = 0;
  while (Step()) {
    ++n;
  }
  return n;
}

uint64_t SimEngine::RunDueEvents(SimTime deadline) {
  uint64_t n = 0;
  while (true) {
    auto next = queue_.PeekTime();
    if (!next || *next > deadline) {
      break;
    }
    Step();
    ++n;
  }
  now_ = std::max(now_, deadline);
  return n;
}

}  // namespace webcc
