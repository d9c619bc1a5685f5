// One round of a workload: build the overlay and load the initial
// subscriptions (set-up), then play the seeded open-loop schedule of
// publication bundles and subscription revisions (the measured phase).
// Every round of a run replays the same inputs on a fresh overlay.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "oracle.h"
#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload.h"

namespace perfbench {

/// Wall-clock seconds since an arbitrary origin (steady clock).
double wall_seconds();

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Traffic and work counters, snapshotted around the played schedule.
struct Counters {
  std::uint64_t data_bytes = 0;   ///< publish + deliver message bytes
  std::uint64_t data_msgs = 0;    ///< publish + deliver wire messages
  std::uint64_t data_units = 0;   ///< events those messages carried
  std::uint64_t ctrl_bytes = 0;   ///< subscribe + unsubscribe bytes, all hops
  std::uint64_t net_msgs = 0;     ///< every wire message
  std::uint64_t sim_steps = 0;    ///< simulator events executed
  std::uint64_t scored = 0;       ///< Broker::Stats::scored_matches

  Counters operator-(const Counters& o) const;
};

class Round {
 public:
  /// `log_capacity` bounds the deliveries a round can log (the oracle's
  /// allowed pairs); it is reserved before the clock starts.
  Round(const Workload& w, std::size_t log_capacity);
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  /// Builds the overlay, connects every client, subscribes the initial
  /// load and runs the simulator until its queue is empty. Returns the
  /// wall seconds that took.
  double setup();

  /// Puts the played schedule on the simulator's queue, starting one
  /// second of sim time after set-up ended. Not timed.
  void schedule();

  /// Untraced play: Simulator::run_until bundle interval by bundle
  /// interval, then to quiescence. Fills bundle_wall_ms and returns the
  /// wall seconds of the whole schedule.
  double play();

  /// Counters now (call before and after a play).
  Counters counters() const;

  reef::sim::Simulator& sim() { return sim_; }
  reef::sim::Network& net() { return net_; }
  reef::pubsub::Overlay& overlay() { return *overlay_; }
  /// Where the proxy publisher is attached.
  reef::pubsub::Broker& ingress() { return overlay_->broker(0); }

  std::vector<Delivery> log;            ///< one entry per handler call
  bool logging = true;                  ///< false: count deliveries only
  std::size_t delivered = 0;            ///< handler calls
  std::vector<double> bundle_wall_ms;   ///< per bundle interval (play)
  std::vector<std::uint32_t> bad_ids;   ///< subs whose id was not the ledger's

 private:
  void subscribe(std::uint32_t sub, reef::pubsub::Filter filter,
                 reef::pubsub::ScoringSpec scoring);

  const Workload& w_;
  reef::sim::Simulator sim_;
  reef::sim::Network net_;
  std::optional<reef::pubsub::Overlay> overlay_;
  std::vector<std::unique_ptr<reef::pubsub::Client>> clients_;
  std::unique_ptr<reef::pubsub::Client> publisher_;
  reef::sim::Time base_ = 0;
};

}  // namespace perfbench
