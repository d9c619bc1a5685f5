// Seeded workload generation for the end-to-end overlay benchmark.
//
// Every input the overlay sees is generated here, from the seed, before any
// timing starts: the subscriptions each client holds, the publication
// bundles the proxy publisher sends, and the recommender's subscription
// revisions. Subscriptions and publications exist twice: once in the
// benchmark's own representation (SubSpec / Item), which the oracle
// evaluates with its own predicate code, and once as the library's Filter /
// Event values handed to the program.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/event.h"
#include "pubsub/filter.h"
#include "pubsub/scoring.h"
#include "sim/time.h"

namespace perfbench {

using reef::sim::Time;

/// xoshiro256** seeded through splitmix64. The benchmark's own generator,
/// so its inputs do not move when the library's random streams change.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_[4];
};

/// Zipf(s) weights 1 / (rank + 1)^s of ranks 0..n-1 (unnormalised).
std::vector<double> zipf_weights(std::size_t n, double s);

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One publication, in the benchmark's own representation.
struct Item {
  bool shop = false;          ///< stream = "shop" (else "feed")
  int feed = -1;              ///< feed index; stream = "feed" only
  int category = -1;          ///< category index; stream = "shop" only
  std::int64_t price = 0;     ///< stream = "shop" only
  std::string title;
};

/// One subscription, in the benchmark's own representation: the
/// conjunction of every predicate that is set.
struct SubSpec {
  bool any_feed = false;          ///< stream = "feed"
  int feed = -1;                  ///< feed = url(feed)
  std::vector<int> categories;    ///< category in {...}
  bool has_price = false;         ///< price_lo <= price <= price_hi
  std::int64_t price_lo = 0;
  std::int64_t price_hi = 0;
  std::string title_contains;     ///< title contains this
  std::string title_prefix;       ///< title starts with this
  /// Scored delivery: a bm25 ScoringSpec over the title with this top_k
  /// (0 = unscored subscription).
  std::uint32_t top_k = 0;
  std::vector<std::pair<std::string, double>> query;
};

/// The oracle's predicate: does `spec` match `item`? Written against the
/// benchmark's own representation; never calls Filter::matches.
bool spec_matches(const SubSpec& spec, const Item& item);

reef::pubsub::Filter to_filter(const SubSpec& spec);
reef::pubsub::ScoringSpec to_scoring(const SubSpec& spec);
reef::pubsub::Event to_event(const Item& item);

inline constexpr Time kForever = INT64_MAX;

/// One subscription's life, as the generator's ledger records it. Times
/// are sim times relative to the start of the played schedule; the
/// initial load is born at kInitial.
inline constexpr Time kInitial = INT64_MIN / 2;
struct LedgerSub {
  SubSpec spec;
  std::uint32_t client = 0;   ///< subscriber client slot
  std::uint32_t local = 0;    ///< the client's n-th subscribe (1-based)
  Time born = kInitial;
  Time retired = kForever;
};

/// A client subscription op of the played schedule.
struct Op {
  Time at = 0;
  bool subscribe = true;
  std::uint32_t sub = 0;      ///< ledger index
};

/// A poll-cycle bundle: items [first, first + count) published together.
struct Bundle {
  Time at = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Sizes and knobs of one workload.
struct Shape {
  std::string engine;
  bool scoring = false;
  std::size_t brokers = 7;
  std::size_t fanout = 2;
  std::size_t clients = 0;        ///< subscriber clients
  std::size_t bundles = 0;
  std::size_t bundle_size = 0;
  Time bundle_interval = 0;
  std::size_t revisions = 0;      ///< each is an unsubscribe + a subscribe
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  Shape shape;
  std::vector<Item> items;        ///< publication order
  std::vector<Bundle> bundles;    ///< by time
  std::vector<LedgerSub> subs;    ///< ledger; the initial load comes first
  std::size_t initial_subs = 0;
  /// Set-up subscribes the first `settled_subs` of the initial load and
  /// runs the overlay to quiescence before it subscribes the rest.
  std::size_t settled_subs = 0;
  std::vector<Op> ops;            ///< by time
  Time duration = 0;              ///< schedule length (last bundle + 1)

  // Program inputs, built once from the above.
  std::vector<reef::pubsub::Filter> filters;         ///< parallel to subs
  std::vector<reef::pubsub::ScoringSpec> scorings;   ///< parallel to subs
  std::vector<reef::pubsub::Event> events;           ///< parallel to items
};

/// Names of the workloads, in the order the benchmark defines them.
const std::vector<std::string>& workload_names();

/// Generates workload `name` from `seed`; `smoke` selects a size that runs
/// in well under a second. Throws std::invalid_argument on an unknown name.
Workload generate(const std::string& name, std::uint64_t seed, bool smoke);

}  // namespace perfbench
