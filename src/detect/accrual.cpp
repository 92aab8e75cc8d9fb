#include "detect/accrual.hpp"

#include <algorithm>
#include <cmath>

#include "trace/recorder.hpp"

namespace streamha {

namespace {
// 1/ln(10): phi = -log10(exp(-t/mean)) = t / (mean * ln 10).
constexpr double kLog10E = 0.4342944819032518;
}  // namespace

AccrualDetector::AccrualDetector(Simulator& sim, Network& net,
                                 Machine& monitor, Machine& target,
                                 Params params, Callbacks callbacks)
    : sim_(sim),
      net_(net),
      monitor_(monitor),
      target_(&target),
      params_(params),
      callbacks_(std::move(callbacks)),
      timer_(sim, params.interval, [this] { tick(); }) {}

void AccrualDetector::start() {
  // Anchor the arrival clock: silence from the very first ping accrues
  // suspicion against this instant instead of reading as "no data".
  last_arrival_ = sim_.now();
  timer_.start();
}

void AccrualDetector::stop() { timer_.stop(); }

void AccrualDetector::retarget(Machine& newTarget) {
  target_ = &newTarget;
  ++epoch_;
  outstanding_.clear();
  history_.clear();
  history_sum_ = 0.0;
  last_arrival_ = sim_.now();
  timely_streak_ = 0;
  failed_ = false;
}

double AccrualDetector::meanInterArrivalUs() const {
  const double floor = static_cast<double>(
      params_.minMean != 0 ? params_.minMean : params_.interval);
  if (history_.empty()) return floor;
  return std::max(floor,
                  history_sum_ / static_cast<double>(history_.size()));
}

double AccrualDetector::phiAt(SimTime now) const {
  if (last_arrival_ == kTimeNever || now <= last_arrival_) return 0.0;
  const double elapsed = static_cast<double>(now - last_arrival_);
  return kLog10E * elapsed / meanInterArrivalUs();
}

double AccrualDetector::suspicion() const { return phiAt(sim_.now()); }

void AccrualDetector::recordEvent(TraceEventType type, std::uint64_t value,
                                  std::uint64_t aux) {
  TraceRecorder* trace = net_.trace();
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.type = type;
  ev.at = sim_.now();
  ev.machine = target_->id();
  ev.peer = monitor_.id();
  ev.value = value;
  ev.aux = aux;
  trace->record(ev);
}

void AccrualDetector::tick() {
  // A crashed monitor neither pings nor declares anything.
  if (!monitor_.isUp()) return;

  const double phi = phiAt(sim_.now());
  if (!failed_ && phi >= params_.failPhi) {
    failed_ = true;
    timely_streak_ = 0;
    ++failures_declared_;
    ++suspicion_crossings_;
    const auto milliPhi = static_cast<std::uint64_t>(phi * 1000.0);
    recordEvent(TraceEventType::kSuspicionCrossed, milliPhi, 0);
    recordEvent(TraceEventType::kFailureConfirmed, milliPhi);
    if (callbacks_.onFailure) callbacks_.onFailure(sim_.now());
  }

  // Forget pings that will never be answered (crashed target): only the
  // recent window matters for timeliness classification.
  while (outstanding_.size() > 2 * params_.historySize) {
    outstanding_.erase(outstanding_.begin());
  }

  // Send the next ping.
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t epoch = epoch_;
  outstanding_[seq] = sim_.now();
  ++pings_sent_;
  Machine* target = target_;
  const MachineId monitorId = monitor_.id();
  const MachineId targetId = target_->id();
  net_.send(monitorId, targetId, MsgKind::kHeartbeatPing, params_.pingBytes, 0,
            [this, seq, epoch, target, monitorId, targetId] {
              // Runs on the target: the reply is control work subject to the
              // machine's scheduling-latency model (a parked reply is exactly
              // the late arrival the accrual history is built to absorb).
              target->submitControl(
                  params_.replyWorkUs, [this, seq, epoch, monitorId, targetId] {
                    net_.send(targetId, monitorId, MsgKind::kHeartbeatReply,
                              params_.replyBytes, 0, [this, seq, epoch] {
                                if (epoch != epoch_) return;
                                onReply(seq);
                              });
                  });
            });
}

void AccrualDetector::noteArrival(SimTime at) {
  if (last_arrival_ != kTimeNever && at > last_arrival_) {
    history_.push_back(static_cast<double>(at - last_arrival_));
    history_sum_ += history_.back();
    while (history_.size() > params_.historySize) {
      history_sum_ -= history_.front();
      history_.pop_front();
    }
  }
  last_arrival_ = at;
}

void AccrualDetector::onReply(std::uint64_t seq) {
  ++replies_received_;
  const SimTime now = sim_.now();
  bool timely = false;
  const auto it = outstanding_.find(seq);
  if (it != outstanding_.end()) {
    timely = now - it->second <= params_.interval;
    outstanding_.erase(it);
  }
  timely_streak_ = timely ? timely_streak_ + 1 : 0;
  noteArrival(now);

  if (failed_ && timely_streak_ >= params_.recoverStreak &&
      phiAt(now) <= params_.recoverPhi) {
    failed_ = false;
    ++recoveries_declared_;
    ++suspicion_crossings_;
    const auto milliPhi = static_cast<std::uint64_t>(phiAt(now) * 1000.0);
    recordEvent(TraceEventType::kSuspicionCrossed, milliPhi, 1);
    recordEvent(TraceEventType::kFailureCleared, milliPhi,
                static_cast<std::uint64_t>(timely_streak_));
    if (callbacks_.onRecovery) callbacks_.onRecovery(now);
  }
}

}  // namespace streamha
