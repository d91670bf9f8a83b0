// Admission control for the serving path — overload protection.
//
// A flash crowd must not be allowed to queue unboundedly at the client agent:
// every queued request then blows the interactivity deadline at once, which
// is the worst possible failure mode for an interactive browser. Instead the
// client agent sheds load explicitly — "tiered caches plus explicit load
// management at the serving tier" — and the client retries with backoff, by
// which time prestaging has usually localized the data. The agent is the only
// tier that admits: the server agent's generator never refuses a DVS miss
// (paper sections 3.4 and 3.6).
//
// Three independent mechanisms, each off by default so legacy behaviour is
// bit-identical until a config turns them on:
//
//   * bounded queue — at most `max_queue` requests in service at once; the
//     rest are shed with an explicit kShedQueueFull (never silently queued);
//   * per-client fair-share token buckets — each requester key owns a
//     bucket refilled on the *virtual* clock, so one hot session drains its
//     own bucket and is shed with kShedNoTokens while everyone else keeps
//     being served;
//   * deadline triage — the caller passes its predicted completion time
//     (from the policy-engine latency estimator) and the client's
//     time-to-need; a request predicted to finish after it is needed is
//     shed immediately with kShedDeadline rather than served late.
//
// Boundary semantics matter for the tests: a queue at exactly max_queue
// sheds, and a predicted completion exactly *at* the deadline is admitted —
// only strictly-late requests are hopeless.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/time.hpp"

namespace lon::streaming {

struct AdmissionConfig {
  bool enabled = false;        ///< master switch (off = legacy: admit everything)
  std::size_t max_queue = 0;   ///< concurrent requests in service (0 = unbounded)
  double tokens_per_sec = 0.0; ///< per-requester refill rate (0 = no buckets)
  double token_burst = 8.0;    ///< bucket capacity (initial balance)
  bool deadline_triage = true; ///< shed predicted deadline misses
};

enum class AdmissionDecision {
  kAdmit,
  kShedQueueFull,  ///< the bounded queue is at capacity
  kShedNoTokens,   ///< the requester's fair-share bucket is empty
  kShedDeadline,   ///< predicted completion is after the time-to-need
};

[[nodiscard]] const char* to_string(AdmissionDecision decision);

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  /// Decides one request. `queue_depth` counts requests already in service,
  /// `estimated_completion` is the predicted service latency (0 = no
  /// prediction available, which skips triage) and `time_to_need` is how
  /// long the requester can wait (0 = no deadline). Checks run cheapest
  /// first, and a request shed by the queue or the deadline does not burn a
  /// token — the requester is not charged for work that was never started.
  AdmissionDecision admit(std::uint64_t requester, SimTime now, std::size_t queue_depth,
                          SimDuration estimated_completion, SimDuration time_to_need);

  /// Current balance of a requester's bucket after refilling to `now` (for
  /// tests and introspection).
  [[nodiscard]] double tokens(std::uint64_t requester, SimTime now);

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    SimTime last_refill = 0;
  };

  /// Credits the bucket for the virtual time elapsed since its last refill,
  /// capped at the burst capacity. New requesters start with a full bucket.
  Bucket& refill(std::uint64_t requester, SimTime now);

  AdmissionConfig config_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
};

}  // namespace lon::streaming
