#include "trace.h"

#include <span>

#include "pubsub/routing_table.h"

namespace perfbench {

namespace rp = reef::pubsub;

namespace {

/// Wire messages a broker has sent on the data plane.
std::uint64_t data_msgs_sent(const rp::Broker::Stats& s) {
  return s.pub_msgs_sent + s.deliver_msgs_sent;
}

}  // namespace

double play_traced(Round& round, StepSpans& spans) {
  rp::Overlay& overlay = round.overlay();
  reef::sim::Simulator& sim = round.sim();
  const reef::sim::Network& net = round.net();
  const std::size_t brokers = overlay.size();
  std::vector<reef::sim::NodeId> ids(brokers);
  std::vector<std::uint64_t> received(brokers);
  std::vector<rp::Broker::Stats> stats(brokers);
  for (std::size_t b = 0; b < brokers; ++b) {
    ids[b] = overlay.broker(b).id();
    received[b] = net.messages_received(ids[b]);
    stats[b] = overlay.broker(b).stats();
  }

  const double start = wall_seconds();
  for (;;) {
    const std::size_t log_before = round.log.size();
    const double t0 = wall_seconds();
    if (!sim.step()) break;
    const double us = (wall_seconds() - t0) * 1e6;

    std::size_t who = brokers;
    for (std::size_t b = 0; b < brokers && who == brokers; ++b) {
      if (net.messages_received(ids[b]) != received[b]) who = b;
    }
    if (who != brokers) {
      const rp::Broker::Stats now = overlay.broker(who).stats();
      if (now.pubs_received != stats[who].pubs_received) {
        spans.publish_us.push_back(us);
      } else if (now.subs_received != stats[who].subs_received) {
        spans.control_us.push_back(us);
      }
      spans.broker_s += us * 1e-6;
      received[who] = net.messages_received(ids[who]);
      stats[who] = now;
      continue;
    }
    if (round.log.size() != log_before) {
      spans.client_us.push_back(us);
      spans.client_s += us * 1e-6;
      continue;
    }
    // No receipt at a broker and no delivery: a broker flush timer if some
    // broker's data-plane send counters moved, else a publisher or
    // subscriber action.
    for (std::size_t b = 0; b < brokers; ++b) {
      const rp::Broker::Stats now = overlay.broker(b).stats();
      if (data_msgs_sent(now) != data_msgs_sent(stats[b])) {
        spans.flush_us.push_back(us);
        spans.broker_s += us * 1e-6;
        stats[b] = now;
        break;
      }
    }
  }
  ++spans.plays;
  return wall_seconds() - start;
}

void replay_layers(const Workload& w, Round& round,
                   std::map<std::string, double>& metrics) {
  const double events = static_cast<double>(w.events.size());

  // --- bundles through the ingress broker's live table -----------------------
  const rp::RoutingTable& table = round.ingress().routing_table();
  std::vector<std::span<const rp::Event>> bundles;
  for (const Bundle& b : w.bundles) {
    bundles.emplace_back(w.events.data() + b.first, b.count);
  }
  std::vector<std::vector<rp::RoutingTable::Destination>> dests;
  std::vector<std::vector<rp::RoutingTable::ScoredDestination>> scored;
  std::vector<std::vector<rp::SubscriptionId>> hits;
  double dest_count = 0;
  double hit_count = 0;
  for (const auto& bundle : bundles) {
    table.match_batch(bundle, dests);
    for (const auto& d : dests) dest_count += static_cast<double>(d.size());
    table.matcher().match_batch(bundle, hits);
    for (const auto& h : hits) hit_count += static_cast<double>(h.size());
  }
  std::vector<double> boolean_s, scored_s, matcher_s;
  const double deadline = wall_seconds() + 2.0;
  for (int rep = 0; rep < 400 && (rep < 5 || wall_seconds() < deadline); ++rep) {
    double t0 = wall_seconds();
    for (const auto& bundle : bundles) table.match_batch(bundle, dests);
    boolean_s.push_back(wall_seconds() - t0);
    t0 = wall_seconds();
    for (const auto& bundle : bundles) table.match_batch_scored(bundle, scored);
    scored_s.push_back(wall_seconds() - t0);
    t0 = wall_seconds();
    for (const auto& bundle : bundles) {
      table.matcher().match_batch(bundle, hits);
    }
    matcher_s.push_back(wall_seconds() - t0);
  }
  const double boolean_ns = quantile(boolean_s, 0.5) / events * 1e9;
  metrics["routing_table.match_batch_ns_per_event"] = boolean_ns;
  metrics["routing_table.destinations_per_event"] = dest_count / events;
  metrics["matcher.match_batch_ns_per_event"] =
      quantile(matcher_s, 0.5) / events * 1e9;
  metrics["matcher.hits_per_event"] = hit_count / events;
  metrics["scoring.ns_per_event"] =
      quantile(scored_s, 0.5) / events * 1e9 - boolean_ns;

  // --- the subscription-op stream through a standalone table ----------------
  rp::RoutingTable::Config config;
  config.engine = w.shape.engine;
  config.worker_threads = 0;
  rp::RoutingTable standalone(config);
  const auto neighbors =
      static_cast<rp::RoutingTable::IfaceId>(round.ingress().neighbor_count());
  const rp::RoutingTable::IfaceId client_base = 1000;
  for (rp::RoutingTable::IfaceId n = 0; n < neighbors; ++n) {
    standalone.add_broker_iface(n);
  }
  for (std::size_t s = 0; s < w.initial_subs; ++s) {
    standalone.client_subscribe(client_base + w.subs[s].client,
                                w.subs[s].local, w.filters[s], w.scorings[s]);
  }
  for (rp::RoutingTable::IfaceId n = 0; n < neighbors; ++n) {
    (void)standalone.refresh(n);
  }
  std::vector<double> op_us, refresh_us;
  double diff_entries = 0;
  const std::size_t replayed = std::min<std::size_t>(w.ops.size(), kOpReplay);
  for (std::size_t o = 0; o < replayed; ++o) {
    const Op& op = w.ops[o];
    const LedgerSub& sub = w.subs[op.sub];
    rp::Filter filter = w.filters[op.sub];
    rp::ScoringSpec scoring = w.scorings[op.sub];
    double t0 = wall_seconds();
    if (op.subscribe) {
      standalone.client_subscribe(client_base + sub.client, sub.local,
                                  std::move(filter), std::move(scoring));
    } else {
      standalone.client_unsubscribe(client_base + sub.client, sub.local);
    }
    op_us.push_back((wall_seconds() - t0) * 1e6);
    for (rp::RoutingTable::IfaceId n = 0; n < neighbors; ++n) {
      t0 = wall_seconds();
      const rp::RoutingTable::Diff diff = standalone.refresh(n);
      refresh_us.push_back((wall_seconds() - t0) * 1e6);
      diff_entries +=
          static_cast<double>(diff.subscribe.size() + diff.unsubscribe.size());
    }
  }
  double forwarded = 0;
  for (rp::RoutingTable::IfaceId n = 0; n < neighbors; ++n) {
    forwarded += static_cast<double>(standalone.forwarded_size(n));
  }
  metrics["routing_table.client_op_us_p50"] = quantile(op_us, 0.5);
  metrics["routing_table.refresh_us_p50"] = quantile(refresh_us, 0.5);
  metrics["routing_table.refresh_us_p99"] = quantile(refresh_us, 0.99);
  metrics["routing_table.refresh_diff_entries"] =
      refresh_us.empty() ? 0.0
                         : diff_entries / static_cast<double>(refresh_us.size());
  metrics["routing_table.forwarded_per_stored"] =
      forwarded / static_cast<double>(neighbors) /
      static_cast<double>(standalone.size());
}

}  // namespace perfbench
