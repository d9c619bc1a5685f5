#include "oracle.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

bool live_near(const LedgerSub& s, Time t, Time settle) {
  const bool after_birth = s.born == kInitial || t > s.born - settle;
  const bool before_retire = s.retired == kForever || t < s.retired + settle;
  return after_birth && before_retire;
}

bool stable_at(const LedgerSub& s, Time t, Time settle) {
  const bool settled_in = s.born == kInitial || s.born + settle <= t;
  const bool settled_out = s.retired == kForever || t + settle <= s.retired;
  return settled_in && settled_out;
}

const Allowed* find_allowed(const std::vector<Allowed>& list,
                            std::uint32_t sub) {
  const auto it = std::lower_bound(list.begin(), list.end(), Allowed{sub});
  return it != list.end() && it->sub == sub ? &*it : nullptr;
}

}  // namespace

Expectation expect(const Workload& w, Time settle) {
  Expectation e;
  e.settle = settle;
  e.item_time.resize(w.items.size());
  e.item_bundle.resize(w.items.size());
  for (std::uint32_t b = 0; b < w.bundles.size(); ++b) {
    const Bundle& bundle = w.bundles[b];
    for (std::uint32_t i = bundle.first; i < bundle.first + bundle.count; ++i) {
      e.item_time[i] = bundle.at;
      e.item_bundle[i] = b;
    }
  }
  e.allowed.resize(w.items.size());
  for (std::uint32_t s = 0; s < w.subs.size(); ++s) {
    const LedgerSub& sub = w.subs[s];
    for (const Bundle& bundle : w.bundles) {
      if (!live_near(sub, bundle.at, settle)) continue;
      const bool stable = stable_at(sub, bundle.at, settle);
      for (std::uint32_t i = bundle.first; i < bundle.first + bundle.count;
           ++i) {
        if (spec_matches(sub.spec, w.items[i])) {
          e.allowed[i].push_back({s, stable});
          ++e.allowed_pairs;
        }
      }
    }
  }
  return e;
}

CheckResult check(const Workload& w, const Expectation& e,
                  std::vector<Delivery>& log,
                  const std::vector<std::uint32_t>& bad_subscribe_ids) {
  CheckResult r;
  r.attempted = w.items.size() + w.ops.size();
  std::vector<std::int64_t> subscribe_op(w.subs.size(), -1);
  std::vector<std::int64_t> unsubscribe_op(w.subs.size(), -1);
  for (std::size_t o = 0; o < w.ops.size(); ++o) {
    (w.ops[o].subscribe ? subscribe_op : unsubscribe_op)[w.ops[o].sub] =
        static_cast<std::int64_t>(o);
  }
  std::vector<char> item_failed(w.items.size(), 0);
  std::vector<char> op_failed(w.ops.size(), 0);
  std::uint64_t stray = 0;
  const auto error = [&](std::string message) {
    if (r.errors.size() < 8) r.errors.push_back(std::move(message));
  };
  const auto fail_op = [&](std::int64_t op) {
    if (op >= 0) op_failed[static_cast<std::size_t>(op)] = 1;
  };
  for (const std::uint32_t s : bad_subscribe_ids) {
    fail_op(subscribe_op[s]);
    error("sub " + std::to_string(s) + ": subscribe returned a foreign id");
  }

  std::sort(log.begin(), log.end(), [](const Delivery& a, const Delivery& b) {
    return std::tie(a.item, a.sub) < std::tie(b.item, b.sub);
  });
  // Per-delivery checks: known item, no duplicate, allowed by the ledger.
  // Scored subscriptions' delivered counts per (sub, bundle) are gathered
  // for the top-k properties below.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> scored_got;
  for (std::size_t k = 0; k < log.size(); ++k) {
    const Delivery& d = log[k];
    if (d.item >= w.items.size() || d.sub >= w.subs.size()) {
      ++stray;
      error("delivery of an unknown item or subscription");
      continue;
    }
    if (k > 0 && log[k - 1].item == d.item && log[k - 1].sub == d.sub) {
      item_failed[d.item] = 1;
      fail_op(subscribe_op[d.sub]);
      error("duplicate delivery of item " + std::to_string(d.item) +
            " to sub " + std::to_string(d.sub));
      continue;
    }
    const LedgerSub& sub = w.subs[d.sub];
    if (find_allowed(e.allowed[d.item], d.sub) == nullptr) {
      item_failed[d.item] = 1;
      const Time t = e.item_time[d.item];
      if (sub.retired != kForever && t >= sub.retired + e.settle) {
        fail_op(unsubscribe_op[d.sub]);
      } else {
        fail_op(subscribe_op[d.sub]);
      }
      error("item " + std::to_string(d.item) + " delivered to sub " +
            std::to_string(d.sub) + " that does not match or is not live");
      continue;
    }
    if (sub.spec.top_k > 0) ++scored_got[{d.sub, e.item_bundle[d.item]}];
  }

  // Completeness: every stable unscored match was delivered. Scored
  // expectations are tallied per (sub, bundle) instead.
  struct Window {
    std::uint32_t expected = 0;
    bool stable = false;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Window> scored_want;
  std::size_t cursor = 0;
  for (std::uint32_t i = 0; i < w.items.size(); ++i) {
    while (cursor < log.size() && log[cursor].item < i) ++cursor;
    std::size_t end = cursor;
    while (end < log.size() && log[end].item == i) ++end;
    for (const Allowed& a : e.allowed[i]) {
      const LedgerSub& sub = w.subs[a.sub];
      if (sub.spec.top_k > 0) {
        Window& win = scored_want[{a.sub, e.item_bundle[i]}];
        ++win.expected;
        win.stable = a.stable;
        continue;
      }
      if (!a.stable) continue;
      const bool got = std::binary_search(
          log.begin() + static_cast<std::ptrdiff_t>(cursor),
          log.begin() + static_cast<std::ptrdiff_t>(end), Delivery{i, a.sub, 0},
          [](const Delivery& x, const Delivery& y) { return x.sub < y.sub; });
      if (!got) {
        item_failed[i] = 1;
        fail_op(subscribe_op[a.sub]);
        error("item " + std::to_string(i) + " not delivered to stable sub " +
              std::to_string(a.sub));
      }
    }
  }

  // Top-k properties: delivered ⊆ expected is the allowed check above; a
  // stable subscription gets exactly min(top_k, expected) of each bundle
  // (min_score is 0), an unstable one at most top_k.
  const auto fail_window = [&](std::uint32_t s, std::uint32_t b) {
    const Bundle& bundle = w.bundles[b];
    for (std::uint32_t i = bundle.first; i < bundle.first + bundle.count; ++i) {
      if (find_allowed(e.allowed[i], s) != nullptr) item_failed[i] = 1;
    }
    fail_op(subscribe_op[s]);
  };
  for (const auto& [key, win] : scored_want) {
    const auto it = scored_got.find(key);
    const std::uint32_t got = it == scored_got.end() ? 0 : it->second;
    const std::uint32_t k = w.subs[key.first].spec.top_k;
    const bool ok = win.stable ? got == std::min(k, win.expected) : got <= k;
    if (!ok) {
      fail_window(key.first, key.second);
      error("sub " + std::to_string(key.first) + " bundle " +
            std::to_string(key.second) + ": " + std::to_string(got) +
            " delivered, " + std::to_string(win.expected) +
            " expected, top_k " + std::to_string(k));
    }
  }

  for (const char f : item_failed) r.failed_items += f != 0;
  for (const char f : op_failed) r.failed_ops += f != 0;
  r.failed = r.failed_items + r.failed_ops + stray;
  return r;
}

std::string self_test(const Workload& w, const Expectation& e,
                      const std::vector<Delivery>& log) {
  if (log.empty()) return "no deliveries to corrupt";
  std::string missed;
  const auto expect_flag = [&](const char* what, const Expectation& bad_e,
                               std::vector<Delivery> bad_log) {
    if (check(w, bad_e, bad_log).failed == 0) {
      missed += std::string(missed.empty() ? "" : "; ") + what;
    }
  };

  // 1. One expected delivery dropped from the expectation: the delivery
  //    that really happened must now be flagged.
  {
    Expectation bad = e;
    const Delivery& d = log.front();
    auto& list = bad.allowed[d.item];
    list.erase(std::lower_bound(list.begin(), list.end(), Allowed{d.sub}));
    expect_flag("dropped expected delivery", bad, log);
  }

  // 2. One extra expected delivery: a stable subscription that does not
  //    match an item is told it should get it. For a scored subscription
  //    the extra item must raise min(top_k, expected), so the window has
  //    to hold fewer than top_k expected items.
  {
    Expectation bad = e;
    bool planted = false;
    for (std::uint32_t b = 0; b < w.bundles.size() && !planted; ++b) {
      const Bundle& bundle = w.bundles[b];
      for (std::uint32_t s = 0; s < w.subs.size() && !planted; ++s) {
        const LedgerSub& sub = w.subs[s];
        if (!stable_at(sub, bundle.at, e.settle)) continue;
        std::uint32_t expected = 0;
        std::uint32_t outsider = bundle.first + bundle.count;
        for (std::uint32_t i = bundle.first; i < bundle.first + bundle.count;
             ++i) {
          if (find_allowed(e.allowed[i], s) != nullptr) {
            ++expected;
          } else if (outsider == bundle.first + bundle.count) {
            outsider = i;
          }
        }
        if (outsider == bundle.first + bundle.count) continue;
        if (sub.spec.top_k > 0 && expected >= sub.spec.top_k) continue;
        auto& list = bad.allowed[outsider];
        list.insert(std::upper_bound(list.begin(), list.end(), Allowed{s}),
                    Allowed{s, true});
        planted = true;
      }
    }
    if (!planted) {
      missed += std::string(missed.empty() ? "" : "; ") +
                "no place for an extra expected delivery";
    } else {
      expect_flag("extra expected delivery", bad, log);
    }
  }

  // 3. One duplicated delivery.
  {
    std::vector<Delivery> bad = log;
    bad.push_back(log.front());
    expect_flag("duplicate delivery", e, std::move(bad));
  }

  // 4. One wrong delivery: an item handed to a subscription that does not
  //    match it.
  {
    std::vector<Delivery> bad = log;
    bool planted = false;
    for (std::uint32_t i = 0; i < w.items.size() && !planted; ++i) {
      for (std::uint32_t s = 0; s < w.subs.size() && !planted; ++s) {
        if (spec_matches(w.subs[s].spec, w.items[i])) continue;
        bad.push_back({i, s, e.item_time[i]});
        planted = true;
      }
    }
    expect_flag("wrong delivery", e, std::move(bad));
  }
  return missed;
}

}  // namespace perfbench
