#include "xmlq/base/limits.h"

#include <algorithm>
#include <string>

namespace xmlq {

ResourceGuard::ResourceGuard(const QueryLimits& limits)
    : limits_(limits), armed_(!limits.Unlimited()) {
  if (!armed_) return;
  next_poll_ = 1;
  if (limits_.deadline_micros != 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(limits_.deadline_micros);
  }
}

bool ResourceGuard::Poll() const {
  if (!status_.ok()) return true;  // sticky
  if (!armed_) return false;
  if (limits_.max_steps != 0 && steps_ > limits_.max_steps) {
    return Trip(Status::ResourceExhausted(
        "step budget of " + std::to_string(limits_.max_steps) +
        " exhausted after " + std::to_string(steps_) + " steps"));
  }
  if (limits_.cancel != nullptr &&
      limits_.cancel->load(std::memory_order_relaxed)) {
    return Trip(Status::Cancelled("query cancelled by caller"));
  }
  if (limits_.cancel_token != nullptr && limits_.cancel_token->cancelled()) {
    return Trip(Status::Cancelled("query cancelled by caller"));
  }
  if (limits_.deadline_micros != 0 &&
      std::chrono::steady_clock::now() >= deadline_) {
    return Trip(Status::ResourceExhausted(
        "deadline of " + std::to_string(limits_.deadline_micros) +
        "us exceeded"));
  }
  // Schedule the next slow poll: one stride out, but never past the step
  // budget (so a small max_steps trips exactly, not a stride late).
  uint64_t stride = kPollStride;
  if (limits_.max_steps != 0) {
    stride = std::min(stride, limits_.max_steps - steps_ + 1);
  }
  next_poll_ = steps_ + stride;
  return false;
}

Status ResourceGuard::ChargeMemory(uint64_t bytes) const {
  memory_bytes_ += bytes;
  if (armed_ && limits_.max_memory_bytes != 0 &&
      memory_bytes_ > limits_.max_memory_bytes && status_.ok()) {
    Trip(Status::ResourceExhausted(
        "memory budget of " + std::to_string(limits_.max_memory_bytes) +
        " bytes exhausted (" + std::to_string(memory_bytes_) +
        " bytes charged)"));
  }
  return status_;
}

bool ResourceGuard::Trip(Status status) const {
  status_ = std::move(status);
  next_poll_ = 0;  // every subsequent Tick trips immediately
  return true;
}

}  // namespace xmlq
