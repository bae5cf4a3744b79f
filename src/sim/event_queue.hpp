// Minimal discrete-event core used by device- and protocol-level sims.
//
// The Sirius data-plane simulator is slot-synchronous (see sirius_sim.hpp)
// because everything there happens on slot boundaries; this event queue
// serves the pieces that are not slot-aligned (fluid ESN baseline, device
// experiments, examples).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "ckpt/io.hpp"
#include "common/time.hpp"

namespace sirius::sim {

/// A time-ordered queue of callbacks. Ties are broken by insertion order,
/// so same-time events run deterministically FIFO.
class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `h` at absolute time `at`. Scheduling into the past is an
  /// invariant violation (SIRIUS_INVARIANT, enforced — not just a comment);
  /// in kCollect mode the event is defensively clamped to now().
  void schedule_at(Time at, Handler h);
  /// Schedules `h` at now() + delay.
  void schedule_in(Time delay, Handler h) { schedule_at(now_ + delay, h); }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Runs the next event; returns false if none remain. Time never moves
  /// backwards (audited).
  bool step();

  /// Runs until the queue is empty or `until` is passed. Returns the
  /// number of events executed. On return now() == min(until, time of the
  /// first unexecuted event), and when the queue drained before a finite
  /// horizon now() advances to `until`, so a subsequent schedule_in() is
  /// anchored at the horizon rather than at the last executed event.
  std::int64_t run_until(Time until = Time::infinity());

  /// Checkpointable — with a restriction: handlers are arbitrary closures
  /// and cannot travel through a file, so only a *drained* queue (the state
  /// between experiment phases, and the only state the slot-synchronous
  /// checkpoints ever see) can be serialized. serialize() on a non-empty
  /// queue is an error the reader reports on restore.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Handler h;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
};

}  // namespace sirius::sim
