// Phi-accrual-style failure detection (Hayashibara et al.).
//
// Instead of counting consecutive missed replies, the accrual detector keeps
// a sliding window of observed heartbeat inter-arrival times and emits a
// *continuous* suspicion level:
//
//   phi(t) = -log10( P(no arrival within t) )
//          = 0.434294 * (now - lastArrival) / mean      (exponential model)
//
// Failure is declared when phi crosses `failPhi`; recovery when phi falls
// back under `recoverPhi` *and* a streak of timely replies has arrived
// (hysteresis -- the two thresholds plus the streak are what keep a jittery
// target from flapping the verdict). Because the mean adapts to the observed
// arrival process, a gray target whose replies are merely late stretches the
// estimated mean and stops looking suspicious -- exactly the adaptive
// suppression first-miss counting lacks. The detector implements the
// FailureDetector interface, so the hybrid/AS/PS coordinators consume it
// unchanged through HaParams::detectorFactory.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "cluster/machine.hpp"
#include "common/types.hpp"
#include "detect/detector.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"
#include "trace/event.hpp"

namespace streamha {

class AccrualDetector : public FailureDetector {
 public:
  struct Params {
    SimDuration interval = 100 * kMillisecond;  ///< Ping period.
    double failPhi = 2.0;      ///< Suspicion level that declares failure.
    double recoverPhi = 0.5;   ///< Suspicion level a recovery requires.
    int recoverStreak = 2;     ///< Timely replies to clear a declaration.
    std::size_t historySize = 32;  ///< Inter-arrival samples retained.
    /// Floor on the estimated mean inter-arrival (0 = use `interval`): keeps
    /// a long quiet-but-healthy stretch from making phi explode on the first
    /// late reply.
    SimDuration minMean = 0;
    double replyWorkUs = 50.0;  ///< CPU work for one reply on the target.
    std::size_t pingBytes = 64;
    std::size_t replyBytes = 64;
  };

  using Callbacks = FailureDetector::Callbacks;

  AccrualDetector(Simulator& sim, Network& net, Machine& monitor,
                  Machine& target, Params params, Callbacks callbacks);
  AccrualDetector(const AccrualDetector&) = delete;
  AccrualDetector& operator=(const AccrualDetector&) = delete;

  void start() override;
  void stop() override;
  void retarget(Machine& newTarget) override;
  MachineId targetId() const override { return target_->id(); }
  bool failed() const override { return failed_; }

  /// Current suspicion level (recomputed against sim.now()).
  double suspicion() const;
  /// Current estimated mean inter-arrival (after the floor).
  double meanInterArrivalUs() const;

  std::uint64_t pingsSent() const { return pings_sent_; }
  std::uint64_t repliesReceived() const { return replies_received_; }
  std::uint64_t failuresDeclared() const { return failures_declared_; }
  std::uint64_t recoveriesDeclared() const { return recoveries_declared_; }
  /// kSuspicionCrossed events, counted whether or not the run is traced.
  std::uint64_t suspicionCrossings() const { return suspicion_crossings_; }

  const Params& params() const { return params_; }

 private:
  void tick();
  void onReply(std::uint64_t seq);
  void noteArrival(SimTime at);
  double phiAt(SimTime now) const;
  void recordEvent(TraceEventType type, std::uint64_t value,
                   std::uint64_t aux = 0);

  Simulator& sim_;
  Network& net_;
  Machine& monitor_;
  Machine* target_;
  Params params_;
  Callbacks callbacks_;
  PeriodicTimer timer_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t epoch_ = 0;  ///< Bumped on retarget; stale replies dropped.
  std::map<std::uint64_t, SimTime> outstanding_;  ///< seq -> sent time.
  std::deque<double> history_;  ///< Inter-arrival samples (micros).
  double history_sum_ = 0.0;
  SimTime last_arrival_ = kTimeNever;
  int timely_streak_ = 0;  ///< Consecutive replies within one interval.
  bool failed_ = false;

  std::uint64_t pings_sent_ = 0;
  std::uint64_t replies_received_ = 0;
  std::uint64_t failures_declared_ = 0;
  std::uint64_t recoveries_declared_ = 0;
  std::uint64_t suspicion_crossings_ = 0;
};

}  // namespace streamha
