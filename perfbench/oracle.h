// Independent delivery oracle for the end-to-end overlay benchmark.
//
// The expectation is built from the generator's ledger and its own
// predicate (spec_matches), never from Filter::matches or an engine. A
// subscription is *stable* for a publication when it was live and unchanged
// for longer than the settle window on both sides of the publish time;
// deliveries to stable subscriptions must equal the ledger's exactly
// (unscored) or satisfy the top-k properties (scored). A delivery outside
// any subscription's matching, live window, or a duplicate, is an error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// One delivery as a client handler saw it.
struct Delivery {
  std::uint32_t item = 0;  ///< index into Workload::items
  std::uint32_t sub = 0;   ///< ledger index
  Time at = 0;             ///< sim time of delivery
};

/// A subscription that may be delivered an item: its spec matches and its
/// life overlaps the item's publish time within the settle window.
struct Allowed {
  std::uint32_t sub = 0;
  bool stable = false;     ///< must be delivered (unscored) / counted (top-k)
  friend bool operator<(const Allowed& a, const Allowed& b) {
    return a.sub < b.sub;
  }
};

struct Expectation {
  Time settle = 0;
  std::vector<Time> item_time;                 ///< publish time per item
  std::vector<std::uint32_t> item_bundle;      ///< bundle per item
  std::vector<std::vector<Allowed>> allowed;   ///< per item, sorted by sub
  std::size_t allowed_pairs = 0;               ///< bound on deliveries
};

/// Builds the expectation for `w`; publish times are schedule-relative.
Expectation expect(const Workload& w, Time settle);

struct CheckResult {
  std::uint64_t attempted = 0;   ///< items + ops
  std::uint64_t failed = 0;      ///< failed items + failed ops
  std::uint64_t failed_items = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> errors;  ///< the first few, for the log
};

/// Checks one round's deliveries, sorting `log` in place. `bad_subscribe_ids`
/// lists ledger subs whose subscribe returned an id other than the ledger's;
/// their ops fail.
CheckResult check(const Workload& w, const Expectation& e,
                  std::vector<Delivery>& log,
                  const std::vector<std::uint32_t>& bad_subscribe_ids = {});

/// Smoke self-test: corrupts `e` (one dropped expected delivery, one extra
/// expected delivery) and `log` (one duplicated delivery) in turn and
/// returns an empty string when the check flags each, else what it missed.
std::string self_test(const Workload& w, const Expectation& e,
                      const std::vector<Delivery>& log);

}  // namespace perfbench
