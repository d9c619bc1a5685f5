#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pubsub/constraint.h"

namespace perfbench {

namespace rp = reef::pubsub;

// --- generator ---------------------------------------------------------------

Rng::Rng(std::uint64_t seed) {
  for (std::uint64_t& word : s_) {
    seed += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    word = z ^ (z >> 31);
  }
}

std::uint64_t Rng::next() {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::vector<double> zipf_weights(std::size_t n, double s) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return weights;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(zipf_weights(n, s)) {
  double total = 0;
  for (double& c : cdf_) c = total += c;
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

// --- the two representations -------------------------------------------------

namespace {

const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> words = {
      "news",    "update",  "market",  "launch",  "review", "price",
      "report",  "guide",   "release", "deal",    "video",  "photo",
      "energy",  "science", "travel",  "health",  "sport",  "music",
      "policy",  "design",  "data",    "cloud",   "garden", "recipe"};
  return words;
}

std::string feed_url(int feed) {
  return "http://feed" + std::to_string(feed) + ".example/rss.xml";
}

std::string category_name(int category) {
  return "cat" + std::to_string(category);
}

}  // namespace

bool spec_matches(const SubSpec& spec, const Item& item) {
  if (spec.any_feed && item.shop) return false;
  if (spec.feed >= 0 && (item.shop || item.feed != spec.feed)) return false;
  if (!spec.categories.empty()) {
    if (!item.shop) return false;
    if (std::find(spec.categories.begin(), spec.categories.end(),
                  item.category) == spec.categories.end()) {
      return false;
    }
  }
  if (spec.has_price) {
    if (!item.shop) return false;
    if (item.price < spec.price_lo || item.price > spec.price_hi) return false;
  }
  if (!spec.title_contains.empty() &&
      item.title.find(spec.title_contains) == std::string::npos) {
    return false;
  }
  if (!spec.title_prefix.empty() &&
      item.title.compare(0, spec.title_prefix.size(), spec.title_prefix) !=
          0) {
    return false;
  }
  return true;
}

rp::Filter to_filter(const SubSpec& spec) {
  rp::Filter filter;
  if (spec.any_feed || spec.feed >= 0) filter.and_(rp::eq("stream", "feed"));
  if (spec.feed >= 0) filter.and_(rp::eq("feed", feed_url(spec.feed)));
  if (!spec.categories.empty()) {
    std::vector<rp::Value> members;
    for (const int c : spec.categories) members.emplace_back(category_name(c));
    filter.and_(rp::in_("category", std::move(members)));
  }
  if (spec.has_price) {
    filter.and_(rp::ge("price", rp::Value(spec.price_lo)));
    filter.and_(rp::le("price", rp::Value(spec.price_hi)));
  }
  if (!spec.title_contains.empty()) {
    filter.and_(rp::contains("title", spec.title_contains));
  }
  if (!spec.title_prefix.empty()) {
    filter.and_(rp::prefix("title", spec.title_prefix));
  }
  return filter;
}

rp::ScoringSpec to_scoring(const SubSpec& spec) {
  rp::ScoringSpec scoring;
  if (spec.top_k == 0) return scoring;
  scoring.policy = rp::ScoringPolicy::kBm25;
  for (const auto& [term, weight] : spec.query) {
    scoring.query.push_back({term, weight});
  }
  scoring.text_attrs = {"title"};
  scoring.top_k = spec.top_k;
  scoring.min_score = 0.0;
  return scoring;
}

rp::Event to_event(const Item& item) {
  rp::Event event;
  if (item.shop) {
    event.with("stream", "shop")
        .with("category", category_name(item.category))
        .with("price", rp::Value(item.price));
  } else {
    event.with("stream", "feed").with("feed", feed_url(item.feed));
  }
  event.with("title", item.title);
  return event;
}

// --- workloads ---------------------------------------------------------------

namespace {

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Exact-count sampling: n draws over `weights` in which category k occurs
/// round(n * p_k) times (largest remainder), in seeded random order. The
/// seed picks which draw lands where, never how many there are, so the
/// work a workload carries does not drift from seed to seed.
std::vector<std::uint32_t> quota(std::size_t n,
                                 const std::vector<double>& weights,
                                 Rng& rng) {
  double total = 0;
  for (const double w : weights) total += w;
  std::vector<std::size_t> counts(weights.size());
  std::vector<std::pair<double, std::uint32_t>> remainders;
  std::size_t assigned = 0;
  for (std::uint32_t k = 0; k < weights.size(); ++k) {
    const double exact = static_cast<double>(n) * weights[k] / total;
    counts[k] = static_cast<std::size_t>(exact);
    assigned += counts[k];
    remainders.emplace_back(exact - static_cast<double>(counts[k]), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < n; ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  std::vector<std::uint32_t> draws;
  draws.reserve(n);
  for (std::uint32_t k = 0; k < counts.size(); ++k) {
    draws.insert(draws.end(), counts[k], k);
  }
  shuffle(draws, rng);
  return draws;
}

/// `count` titles of `length` words, the word frequencies fixed by quota.
std::vector<std::string> make_titles(std::size_t count, std::size_t length,
                                     Rng& rng) {
  const std::vector<std::uint32_t> words =
      quota(count * length, zipf_weights(vocabulary().size(), 0.8), rng);
  std::vector<std::string> titles(count);
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t w = 0; w < length; ++w) {
      if (w != 0) titles[t] += ' ';
      titles[t] += vocabulary()[words[t * length + w]];
    }
  }
  return titles;
}

/// A seeded relabelling 0..n-1 -> 0..n-1 (popularity rank -> feed id).
std::vector<int> permutation(std::size_t n, Rng& rng) {
  std::vector<int> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);
  shuffle(perm, rng);
  return perm;
}

/// The shared schedule builder: initial load, bundles, and revisions (each
/// revision retires one live subscription of a random client and gives it
/// a fresh one at the same instant).
struct Generator {
  Workload& w;
  Rng rng;
  std::vector<std::vector<std::uint32_t>> live;  // per client: ledger ids
  std::vector<std::uint32_t> next_local;

  Generator(Workload& workload, std::uint64_t stream)
      : w(workload), rng(workload.seed * 0x100000001b3ULL + stream) {
    live.resize(w.shape.clients);
    next_local.assign(w.shape.clients, 1);
  }

  std::uint32_t add_sub(std::uint32_t client, SubSpec spec, Time born) {
    LedgerSub sub;
    sub.spec = std::move(spec);
    sub.client = client;
    sub.local = next_local[client]++;
    sub.born = born;
    w.subs.push_back(std::move(sub));
    const auto id = static_cast<std::uint32_t>(w.subs.size() - 1);
    live[client].push_back(id);
    return id;
  }

  /// Cuts `items` into the shape's bundles, one per bundle interval.
  void bundles(std::vector<Item> items) {
    const Shape& s = w.shape;
    w.items = std::move(items);
    for (std::size_t b = 0; b < s.bundles; ++b) {
      Bundle bundle;
      bundle.at = static_cast<Time>(b) * s.bundle_interval;
      bundle.first = static_cast<std::uint32_t>(b * s.bundle_size);
      bundle.count = static_cast<std::uint32_t>(s.bundle_size);
      w.bundles.push_back(bundle);
    }
    w.duration = static_cast<Time>(s.bundles) * s.bundle_interval;
  }

  /// `pick_client` chooses who the recommender revises; `make_spec`
  /// proposes the replacement for a client. The client's oldest live
  /// subscription is the one replaced.
  template <typename PickClient, typename MakeSpec>
  void revisions(PickClient pick_client, MakeSpec make_spec) {
    std::vector<Time> times;
    for (std::size_t r = 0; r < w.shape.revisions; ++r) {
      // Whole milliseconds, off the bundle grid's exact instants.
      times.push_back(static_cast<Time>(rng.below(
                          static_cast<std::uint64_t>(w.duration / 1000))) *
                          1000 +
                      500);
    }
    std::sort(times.begin(), times.end());
    for (const Time at : times) {
      const std::uint32_t client = pick_client();
      auto& mine = live[client];
      const std::uint32_t old = mine.front();
      w.subs[old].retired = at;
      mine.erase(mine.begin());
      w.ops.push_back({at, false, old});
      const std::uint32_t fresh = add_sub(client, make_spec(client), at);
      w.ops.push_back({at, true, fresh});
    }
  }
};

/// The paper's sidebar shape: users auto-subscribed to a few Zipf-popular
/// feeds each, a handful of broad stream subscribers, poll-cycle bundles
/// from a proxy publisher, slow recommender churn.
void make_feed_fanout(Workload& w, bool smoke) {
  Shape& s = w.shape;
  s.engine = "anchor-index";
  s.brokers = smoke ? 3 : 7;
  s.clients = smoke ? 60 : 900;
  s.bundles = smoke ? 6 : 60;
  s.bundle_size = smoke ? 10 : 40;
  s.bundle_interval = 200 * reef::sim::kMillisecond;
  s.revisions = smoke ? 6 : 60;
  const std::size_t feeds = smoke ? 30 : 150;
  const std::size_t broad = smoke ? 2 : 6;
  const std::size_t per_user = 3;

  Generator g(w, 1);
  const std::vector<int> feed_of_rank = permutation(feeds, g.rng);
  const std::vector<double> popularity = zipf_weights(feeds, 1.0);
  // Per-user feeds: the rank quota sorted by rank and dealt round-robin
  // over a shuffled user order, so every user gets per_user distinct feeds
  // (no rank is held by more users than there are).
  const std::size_t users = s.clients - broad;
  std::vector<std::uint32_t> ranks = quota(users * per_user, popularity, g.rng);
  std::sort(ranks.begin(), ranks.end());
  std::vector<std::uint32_t> order(users);
  for (std::uint32_t u = 0; u < users; ++u) order[u] = u;
  shuffle(order, g.rng);
  std::vector<std::vector<int>> feeds_of(users);
  for (std::size_t j = 0; j < ranks.size(); ++j) {
    feeds_of[order[j % users]].push_back(feed_of_rank[ranks[j]]);
  }
  for (std::uint32_t c = 0; c < s.clients; ++c) {
    if (c < broad) {
      SubSpec spec;
      spec.any_feed = true;
      g.add_sub(c, spec, kInitial);
      continue;
    }
    for (const int feed : feeds_of[c - broad]) {
      SubSpec spec;
      spec.feed = feed;
      g.add_sub(c, spec, kInitial);
    }
  }
  w.initial_subs = w.subs.size();
  // The stream subscribers are in place before the recommender loads the
  // users, so how many per-feed filters travel up the tree before a broad
  // one covers them does not hang on the link jitter.
  w.settled_subs = broad;

  const std::size_t n = s.bundles * s.bundle_size;
  const std::vector<std::uint32_t> item_ranks = quota(n, popularity, g.rng);
  const std::vector<std::string> titles = make_titles(n, 6, g.rng);
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].feed = feed_of_rank[item_ranks[i]];
    items[i].title = titles[i];
  }
  g.bundles(std::move(items));

  // Replacement feeds come from a popularity quota too; a feed the user
  // already holds is skipped (and used for a later revision instead).
  std::vector<std::uint32_t> pool = quota(4 * s.revisions, popularity, g.rng);
  g.revisions(
      [&] {
        return static_cast<std::uint32_t>(broad + g.rng.below(users));
      },
      [&](std::uint32_t client) {
        for (std::size_t p = 0;; ++p) {
          SubSpec spec;
          spec.feed = feed_of_rank[pool[p % pool.size()]];
          bool held = false;
          for (const std::uint32_t id : g.live[client]) {
            held = held || w.subs[id].spec.feed == spec.feed;
          }
          if (!held) {
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(p % pool.size()));
            return spec;
          }
        }
      });
}

/// Content-based auto-subscriptions on a dense, high-overlap population:
/// the recommender draws each user's filter from a fixed catalogue of
/// content filters (Zipf popularity, so many users share one), and every
/// user has a bm25 ScoringSpec of their own with a small top_k.
void make_content_topk(Workload& w, bool smoke) {
  Shape& s = w.shape;
  s.engine = "bitset";
  s.scoring = true;
  s.brokers = smoke ? 3 : 7;
  s.clients = smoke ? 60 : 1500;
  s.bundles = smoke ? 6 : 40;
  s.bundle_size = smoke ? 12 : 48;
  s.bundle_interval = 200 * reef::sim::kMillisecond;
  s.revisions = smoke ? 6 : 80;
  const int categories = 16;
  const std::size_t catalogue_size = smoke ? 20 : 60;

  // The catalogue is part of the workload's definition, the same for every
  // seed: its filters set the match rates, and with them most of the work.
  Rng fixed(0xca7a1095);
  std::vector<SubSpec> catalogue;
  for (std::size_t f = 0; f < catalogue_size; ++f) {
    SubSpec spec;
    const std::size_t n = 3 + fixed.below(4);
    while (spec.categories.size() < n) {
      const int c = static_cast<int>(fixed.below(categories));
      if (std::find(spec.categories.begin(), spec.categories.end(), c) ==
          spec.categories.end()) {
        spec.categories.push_back(c);
      }
    }
    std::sort(spec.categories.begin(), spec.categories.end());
    spec.has_price = true;
    spec.price_lo = static_cast<std::int64_t>(fixed.below(500));
    spec.price_hi =
        spec.price_lo + 300 + static_cast<std::int64_t>(fixed.below(700));
    const double shape = fixed.unit();
    if (shape < 0.5) {
      spec.title_contains = vocabulary()[fixed.below(10)];
    } else if (shape < 0.8) {
      spec.title_prefix = vocabulary()[fixed.below(5)];
    }
    catalogue.push_back(std::move(spec));
  }

  Generator g(w, 2);
  const std::vector<double> popularity = zipf_weights(catalogue_size, 0.9);
  const Zipf words(vocabulary().size(), 0.8);
  // The user's own scoring: top_k in 1..3 and two or three query terms,
  // in exact proportions over the users.
  const auto personalise = [&](SubSpec spec, std::size_t j) {
    spec.top_k = 1 + static_cast<std::uint32_t>(j % 3);
    const std::size_t terms = 2 + (j / 3) % 2;
    for (std::size_t t = 0; t < terms; ++t) {
      spec.query.emplace_back(vocabulary()[words.sample(g.rng)],
                              0.5 + 0.25 * static_cast<double>(g.rng.below(7)));
    }
    return spec;
  };
  const std::vector<std::uint32_t> picks =
      quota(s.clients, popularity, g.rng);
  for (std::uint32_t c = 0; c < s.clients; ++c) {
    g.add_sub(c, personalise(catalogue[picks[c]], c), kInitial);
  }
  w.initial_subs = w.subs.size();

  const std::size_t n = s.bundles * s.bundle_size;
  const std::vector<std::uint32_t> cats = quota(
      n, std::vector<double>(static_cast<std::size_t>(categories), 1.0), g.rng);
  std::vector<std::int64_t> prices(n);
  for (std::size_t i = 0; i < n; ++i) {  // stratified over [0, 1000)
    prices[i] = static_cast<std::int64_t>(
        (static_cast<double>(i) + g.rng.unit()) * 1000.0 /
        static_cast<double>(n));
  }
  shuffle(prices, g.rng);
  const std::vector<std::string> titles = make_titles(n, 5, g.rng);
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].shop = true;
    items[i].category = static_cast<int>(cats[i]);
    items[i].price = prices[i];
    items[i].title = titles[i];
  }
  g.bundles(std::move(items));

  const std::vector<std::uint32_t> revised =
      quota(s.revisions, popularity, g.rng);
  std::size_t next = 0;
  g.revisions(
      [&] { return static_cast<std::uint32_t>(g.rng.below(s.clients)); },
      [&](std::uint32_t /*client*/) {
        const std::size_t j = next++;
        return personalise(catalogue[revised[j]], j);
      });
}

/// Continuous recommender revisions over mostly distinct, partly covering
/// feed filters, with a light publication stream.
void make_sub_churn(Workload& w, bool smoke) {
  Shape& s = w.shape;
  s.engine = "anchor-index";
  s.brokers = smoke ? 3 : 7;
  s.clients = smoke ? 20 : 64;
  s.bundles = smoke ? 6 : 30;
  s.bundle_size = smoke ? 4 : 32;
  s.bundle_interval = 200 * reef::sim::kMillisecond;
  s.revisions = smoke ? 20 : 150;
  const std::size_t feeds = smoke ? 40 : 1500;
  const std::size_t per_user = smoke ? 6 : 10;

  Generator g(w, 3);
  const std::vector<int> feed_of_rank = permutation(feeds, g.rng);
  const std::vector<double> popularity = zipf_weights(feeds, 0.8);
  // Filters: feed = f, and for 70% of them also title contains one of the
  // eight commonest title words (covered by the plain filter on the same
  // feed). Plain/narrow and the words are dealt evenly within each feed's
  // share, and the initial load is dealt round-robin over the users (so
  // over the brokers), so the deliveries a feed draws and where they land
  // do not swing with the seed.
  const auto make_pool = [&](std::size_t count) {
    std::vector<std::uint32_t> ranks = quota(count, popularity, g.rng);
    std::sort(ranks.begin(), ranks.end());
    std::vector<SubSpec> pool(count);
    for (std::size_t j = 0; j < count; ++j) {
      pool[j].feed = feed_of_rank[ranks[j]];
      if (j % 10 < 7) pool[j].title_contains = vocabulary()[j % 8];
    }
    return pool;
  };
  const std::vector<SubSpec> initial = make_pool(s.clients * per_user);
  for (std::size_t j = 0; j < initial.size(); ++j) {
    g.add_sub(static_cast<std::uint32_t>(j % s.clients), initial[j], kInitial);
  }
  w.initial_subs = w.subs.size();
  // Revisions visit the users round-robin in a seeded order; replacements
  // are taken from their pool with a fixed stride, so plain and narrow,
  // popular and rare alternate the same way under every seed.
  const std::vector<SubSpec> replacements = make_pool(s.revisions);
  std::vector<std::uint32_t> order(s.clients);
  for (std::uint32_t c = 0; c < s.clients; ++c) order[c] = c;
  shuffle(order, g.rng);
  std::size_t next = 0;

  const std::size_t n = s.bundles * s.bundle_size;
  const std::vector<std::uint32_t> item_ranks = quota(n, popularity, g.rng);
  const std::vector<std::string> titles = make_titles(n, 6, g.rng);
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].feed = feed_of_rank[item_ranks[i]];
    items[i].title = titles[i];
  }
  g.bundles(std::move(items));
  g.revisions([&] { return order[next % order.size()]; },
              [&](std::uint32_t /*client*/) {
                return replacements[(next++ * 37) % replacements.size()];
              });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"feed_fanout", "content_topk",
                                                 "sub_churn"};
  return names;
}

Workload generate(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "feed_fanout") {
    make_feed_fanout(w, smoke);
  } else if (name == "content_topk") {
    make_content_topk(w, smoke);
  } else if (name == "sub_churn") {
    make_sub_churn(w, smoke);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.filters.reserve(w.subs.size());
  w.scorings.reserve(w.subs.size());
  for (const LedgerSub& sub : w.subs) {
    w.filters.push_back(to_filter(sub.spec));
    w.scorings.push_back(to_scoring(sub.spec));
  }
  w.events.reserve(w.items.size());
  for (const Item& item : w.items) w.events.push_back(to_event(item));
  return w;
}

}  // namespace perfbench
