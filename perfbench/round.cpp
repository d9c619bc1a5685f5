#include "round.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

namespace perfbench {

namespace rp = reef::pubsub;
namespace rs = reef::sim;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.data_bytes = data_bytes - o.data_bytes;
  d.data_msgs = data_msgs - o.data_msgs;
  d.data_units = data_units - o.data_units;
  d.ctrl_bytes = ctrl_bytes - o.ctrl_bytes;
  d.net_msgs = net_msgs - o.net_msgs;
  d.sim_steps = sim_steps - o.sim_steps;
  d.scored = scored - o.scored;
  return d;
}

namespace {

rs::Network::Config network_config(const Workload& w) {
  rs::Network::Config config;
  config.default_latency = 20 * rs::kMillisecond;
  config.jitter_fraction = 0.25;
  config.seed = w.seed ^ 0x5eed5eed5eedULL;
  return config;
}

}  // namespace

Round::Round(const Workload& w, std::size_t log_capacity)
    : w_(w), net_(sim_, network_config(w)) {
  log.reserve(log_capacity);
}

void Round::subscribe(std::uint32_t sub, rp::Filter filter,
                      rp::ScoringSpec scoring) {
  rp::Client& client = *clients_[w_.subs[sub].client];
  const rp::SubscriptionId id = client.subscribe_scored(
      std::move(filter), std::move(scoring),
      [this, sub](const rp::Event& event, rp::SubscriptionId, double) {
        ++delivered;
        if (!logging) return;
        // The proxy numbers its events 1, 2, ... in publish order, which
        // is item order.
        const bool ours = (event.id() >> 32) == publisher_->id();
        const auto item = ours ? static_cast<std::uint32_t>(
                                     (event.id() & 0xffffffffULL) - 1)
                               : UINT32_MAX;
        log.push_back({item, sub, sim_.now() - base_});
      });
  if ((id & 0xffffffffULL) != w_.subs[sub].local) bad_ids.push_back(sub);
}

double Round::setup() {
  // Inputs are copied before the clock starts; set-up is the overlay's
  // construction and the initial subscription load.
  std::vector<rp::Filter> filters(
      w_.filters.begin(),
      w_.filters.begin() + static_cast<std::ptrdiff_t>(w_.initial_subs));
  std::vector<rp::ScoringSpec> scorings(
      w_.scorings.begin(),
      w_.scorings.begin() + static_cast<std::ptrdiff_t>(w_.initial_subs));
  std::vector<std::string> names;
  for (std::size_t c = 0; c < w_.shape.clients; ++c) {
    names.push_back("user" + std::to_string(c));
  }

  const double start = wall_seconds();
  rp::Broker::Config config;
  config.matcher_engine = w_.shape.engine;
  config.scoring_enabled = w_.shape.scoring;
  config.worker_threads = 0;
  overlay_.emplace(rp::Overlay::tree(sim_, net_, w_.shape.brokers,
                                     w_.shape.fanout, config));
  clients_.reserve(w_.shape.clients);
  for (std::size_t c = 0; c < w_.shape.clients; ++c) {
    clients_.push_back(
        std::make_unique<rp::Client>(sim_, net_, std::move(names[c])));
    clients_.back()->connect(overlay_->broker(c % w_.shape.brokers));
  }
  publisher_ = std::make_unique<rp::Client>(sim_, net_, "proxy");
  publisher_->connect(ingress());
  for (std::uint32_t s = 0; s < w_.initial_subs; ++s) {
    if (s == w_.settled_subs) sim_.run();
    subscribe(s, std::move(filters[s]), std::move(scorings[s]));
  }
  sim_.run();
  return wall_seconds() - start;
}

void Round::schedule() {
  base_ = sim_.now() + rs::kSecond;
  for (const Op& op : w_.ops) {
    if (op.subscribe) {
      sim_.at(base_ + op.at,
              [this, sub = op.sub, filter = w_.filters[op.sub],
               scoring = w_.scorings[op.sub]]() mutable {
                subscribe(sub, std::move(filter), std::move(scoring));
              });
    } else {
      const LedgerSub& sub = w_.subs[op.sub];
      rp::Client* client = clients_[sub.client].get();
      const rp::SubscriptionId id =
          (static_cast<std::uint64_t>(client->id()) << 32) | sub.local;
      sim_.at(base_ + op.at, [client, id] { client->unsubscribe(id); });
    }
  }
  for (const Bundle& bundle : w_.bundles) {
    std::vector<rp::Event> events(
        w_.events.begin() + bundle.first,
        w_.events.begin() + bundle.first + bundle.count);
    sim_.at(base_ + bundle.at, [this, events = std::move(events)]() mutable {
      publisher_->publish_batch(std::move(events));
    });
  }
}

double Round::play() {
  bundle_wall_ms.clear();
  const double start = wall_seconds();
  for (const Bundle& bundle : w_.bundles) {
    const double t0 = wall_seconds();
    sim_.run_until(base_ + bundle.at + w_.shape.bundle_interval - 1);
    bundle_wall_ms.push_back((wall_seconds() - t0) * 1e3);
  }
  sim_.run();
  return wall_seconds() - start;
}

Counters Round::counters() const {
  Counters c;
  const auto& bytes = net_.bytes_by_type();
  const auto& msgs = net_.messages_by_type();
  const auto& units = net_.units_by_type();
  for (const std::string_view type :
       {rp::kTypePublish, rp::kTypePublishBatch, rp::kTypeDeliver,
        rp::kTypeDeliverBatch}) {
    c.data_bytes += bytes.get(std::string(type));
    c.data_msgs += msgs.get(std::string(type));
    c.data_units += units.get(std::string(type));
  }
  for (const std::string_view type :
       {rp::kTypeSubscribe, rp::kTypeUnsubscribe, rp::kTypeClientSubscribe,
        rp::kTypeClientUnsubscribe}) {
    c.ctrl_bytes += bytes.get(std::string(type));
  }
  c.net_msgs = net_.total_messages();
  c.sim_steps = sim_.executed();
  for (std::size_t b = 0; b < overlay_->size(); ++b) {
    const rp::Broker::Stats stats = overlay_->broker(b).stats();
    c.scored += stats.scored_matches;
  }
  return c;
}

}  // namespace perfbench
