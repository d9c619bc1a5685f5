// Outside-in per-layer tracing for the end-to-end overlay benchmark.
//
// Nothing here reaches inside the library: spans are wall-clock timings of
// calls into each layer's public functions, kept in memory and reduced to
// the per-layer metrics when the run ends.
//   - The played schedule is stepped one simulator event at a time; each
//     step is attributed to the node whose Network::messages_received
//     grew (a broker), to a client when a delivery reached a handler, or to
//     a broker whose Broker::stats() wire-message counters moved without a
//     receipt (its flush timer). Broker receipts split into publish and
//     control steps by which stats counter moved.
//   - The workload's publication bundles are replayed through the ingress
//     broker's live RoutingTable (match_batch, match_batch_scored) and its
//     matcher's match_batch; all const calls.
//   - The workload's subscription-op stream is replayed through a
//     standalone RoutingTable: client_subscribe / client_unsubscribe, then
//     refresh for each neighbor.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "round.h"
#include "workload.h"

namespace perfbench {

/// Subscription ops replayed through the standalone table.
inline constexpr std::size_t kOpReplay = 200;

/// Per-step spans gathered over traced plays.
struct StepSpans {
  std::vector<double> publish_us;   ///< broker steps that received events
  std::vector<double> control_us;   ///< broker steps that received sub ops
  std::vector<double> flush_us;     ///< broker flush-timer steps
  std::vector<double> client_us;    ///< client delivery steps
  double broker_s = 0;              ///< every broker step
  double client_s = 0;              ///< every client step
  std::uint64_t plays = 0;
};

/// Plays the scheduled round one Simulator::step at a time, attributing
/// and timing each step. Returns the wall seconds of the whole play.
double play_traced(Round& round, StepSpans& spans);

/// Replays the workload through the layers' public functions (see the
/// file comment) and adds the routing_table / matcher / scoring metrics.
/// `round` must have finished its play.
void replay_layers(const Workload& w, Round& round,
                   std::map<std::string, double>& metrics);

}  // namespace perfbench
