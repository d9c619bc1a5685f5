// End-to-end overlay benchmark program.
//
//   overlay_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   overlay_bench --smoke [--seed <n>]
//
// A run generates the workload from the seed, then repeats whole rounds
// (fresh overlay, set-up, played schedule) until --seconds of wall time
// have passed, checking every round's deliveries against the independent
// oracle. It prints progress on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (rates are medians over
// rounds); with --trace 1 rounds alternate untraced and traced plays and
// the metrics are the per-layer ones. The exit code is nonzero when any
// operation failed.
//
// --smoke runs every workload at a size that takes seconds, untraced and
// traced, requires zero failures, and requires the oracle to flag each
// deliberately corrupted expectation and delivery log.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "oracle.h"
#include "round.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

/// How long a subscription must sit unchanged, on both sides of a publish
/// time, before its deliveries are held to the ledger exactly. Well above
/// the overlay's worst-case propagation (client links 20 ms and broker
/// links 10 ms, each with up to 25% jitter, across a depth-2 tree).
constexpr Time kSettle = 400 * reef::sim::kMillisecond;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "overlay_bench: %s\nusage: overlay_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       overlay_bench --smoke [--seed <n>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) usage("bad --trace");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (!args.smoke && args.workload.empty()) usage("--workload is required");
  if (args.seconds <= 0) usage("--seconds must be positive");
  return args;
}

/// Plays one round that counts deliveries instead of logging them, before
/// any of the oracle's state exists, and returns the process's peak
/// resident memory after it (ru_maxrss). That covers the binary, the
/// generated inputs and one overlay's set-up and play; the checked rounds
/// that follow, with their delivery logs, are not in it.
double overlay_peak_rss_mib(const Workload& w) {
  Round round(w, 0);
  round.logging = false;
  round.setup();
  round.schedule();
  round.play();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-42s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Accumulates oracle verdicts over rounds.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Workload& w, const Expectation& e, Round& round) {
    const CheckResult r = check(w, e, round.log, round.bad_ids);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& error : r.errors) {
      std::fprintf(stderr, "oracle: %s: %s\n", w.name.c_str(), error.c_str());
    }
  }
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Sim-time publish->deliver latencies of one round, in ms.
std::vector<double> latencies_ms(const Round& round,
                                 const Expectation& e) {
  std::vector<double> out;
  out.reserve(round.log.size());
  for (const Delivery& d : round.log) {
    if (d.item >= e.item_time.size()) continue;
    out.push_back(static_cast<double>(d.at - e.item_time[d.item]) / 1e3);
  }
  return out;
}

int run_untraced(const Workload& w, const Expectation& e, double seconds,
                 double peak_rss_mb) {
  Verdict verdict;
  std::vector<double> setup_s, events_ps, deliveries_ps, ops_ps;
  std::vector<Metric> fixed;  // deterministic: read from the first round
  const double events = static_cast<double>(w.items.size());
  const double ops = static_cast<double>(w.ops.size());
  const double start = wall_seconds();
  do {
    Round round(w, e.allowed_pairs);
    setup_s.push_back(round.setup());
    round.schedule();
    const Counters before = round.counters();
    const double play_s = round.play();
    const Counters d = round.counters() - before;
    events_ps.push_back(events / play_s);
    deliveries_ps.push_back(static_cast<double>(round.log.size()) / play_s);
    ops_ps.push_back(ops / play_s);
    verdict.add(w, e, round);
    std::fprintf(stderr,
                 "round %zu: setup %.3f s, play %.3f s, %zu deliveries\n",
                 setup_s.size(), setup_s.back(), play_s, round.log.size());
    if (fixed.empty()) {
      const std::vector<double> lat = latencies_ms(round, e);
      fixed = {
          {"deliver_latency_ms_p50", quantile(lat, 0.5), "ms"},
          {"deliver_latency_ms_p99", quantile(lat, 0.99), "ms"},
          {"wire_bytes_per_event",
           ratio(static_cast<double>(d.data_bytes), events), "bytes"},
          {"ctrl_bytes_per_op", ratio(static_cast<double>(d.ctrl_bytes), ops),
           "bytes"},
      };
    }
  } while (wall_seconds() - start < seconds);

  std::vector<Metric> metrics = {
      {"events_per_s", quantile(events_ps, 0.5), "events/s"},
      {"deliveries_per_s", quantile(deliveries_ps, 0.5), "deliveries/s"},
      {"ctrl_ops_per_s", quantile(ops_ps, 0.5), "ops/s"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
  };
  metrics.insert(metrics.end(), fixed.begin(), fixed.end());
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  print_result(verdict.failed == 0, verdict.attempted, verdict.failed,
               metrics);
  return verdict.failed == 0 ? 0 : 1;
}

int run_traced(const Workload& w, const Expectation& e, double seconds) {
  Verdict verdict;
  StepSpans spans;
  std::vector<double> bundle_ms, untraced_s, traced_s;
  std::map<std::string, double> replay;
  Counters first;
  std::size_t first_log = 0;
  const double events = static_cast<double>(w.items.size());
  const double start = wall_seconds();
  for (std::size_t r = 0; r < 2 || wall_seconds() - start < seconds; ++r) {
    Round round(w, e.allowed_pairs);
    round.setup();
    round.schedule();
    const Counters before = round.counters();
    if (r % 2 == 0) {
      untraced_s.push_back(round.play());
      bundle_ms.insert(bundle_ms.end(), round.bundle_wall_ms.begin(),
                       round.bundle_wall_ms.end());
    } else {
      traced_s.push_back(play_traced(round, spans));
    }
    if (r == 0) {
      first = round.counters() - before;
      first_log = round.log.size();
    }
    verdict.add(w, e, round);
    if (r == 1) replay_layers(w, round, replay);
    std::fprintf(stderr, "round %zu (%s) done\n", r + 1,
                 r % 2 == 0 ? "untraced" : "traced");
  }
  const double untraced_eps = events / quantile(untraced_s, 0.5);
  const double traced_eps = events / quantile(traced_s, 0.5);
  std::fprintf(stderr,
               "tracing overhead: events_per_s untraced %.1f, traced %.1f "
               "(traced/untraced %.3f)\n",
               untraced_eps, traced_eps, traced_eps / untraced_eps);

  const double plays = static_cast<double>(spans.plays);
  std::vector<Metric> metrics = {
      {"broker.publish_step_us_p50", quantile(spans.publish_us, 0.5), "us"},
      {"broker.publish_step_us_p99", quantile(spans.publish_us, 0.99), "us"},
      {"broker.control_step_us_p50", quantile(spans.control_us, 0.5), "us"},
      {"broker.control_step_us_p99", quantile(spans.control_us, 0.99), "us"},
      {"broker.flush_step_us_p50", quantile(spans.flush_us, 0.5), "us"},
      {"broker.busy_s", spans.broker_s / plays, "s"},
      {"broker.events_per_wire_msg",
       ratio(static_cast<double>(first.data_units),
             static_cast<double>(first.data_msgs)),
       "count"},
      {"client.deliver_step_us_p50", quantile(spans.client_us, 0.5), "us"},
      {"client.busy_s", spans.client_s / plays, "s"},
  };
  const std::vector<std::pair<const char*, const char*>> replayed = {
      {"routing_table.match_batch_ns_per_event", "ns"},
      {"routing_table.destinations_per_event", "count"},
      {"routing_table.client_op_us_p50", "us"},
      {"routing_table.refresh_us_p50", "us"},
      {"routing_table.refresh_us_p99", "us"},
      {"routing_table.refresh_diff_entries", "count"},
      {"routing_table.forwarded_per_stored", "count"},
      {"matcher.match_batch_ns_per_event", "ns"},
      {"matcher.hits_per_event", "count"},
      {"scoring.ns_per_event", "ns"},
  };
  for (const auto& [name, unit] : replayed) {
    metrics.push_back({name, replay.at(name), unit});
  }
  metrics.push_back({"scoring.delivered_per_scored",
                     ratio(static_cast<double>(first_log),
                           static_cast<double>(first.scored)),
                     "count"});
  metrics.push_back({"sim.steps_per_event",
                     static_cast<double>(first.sim_steps) / events, "count"});
  metrics.push_back({"network.msgs_per_event",
                     static_cast<double>(first.net_msgs) / events, "count"});
  metrics.push_back(
      {"overlay.bundle_wall_ms_p50", quantile(bundle_ms, 0.5), "ms"});
  metrics.push_back(
      {"overlay.bundle_wall_ms_p99", quantile(bundle_ms, 0.99), "ms"});
  print_result(verdict.failed == 0, verdict.attempted, verdict.failed,
               metrics);
  return verdict.failed == 0 ? 0 : 1;
}

int run_smoke(std::uint64_t seed) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const Workload w = generate(name, seed, /*smoke=*/true);
    const Expectation e = expect(w, kSettle);
    Verdict verdict;
    Round plain(w, e.allowed_pairs);
    plain.setup();
    plain.schedule();
    plain.play();
    verdict.add(w, e, plain);
    const std::string missed = self_test(w, e, plain.log);

    Round traced(w, e.allowed_pairs);
    traced.setup();
    traced.schedule();
    StepSpans spans;
    play_traced(traced, spans);
    verdict.add(w, e, traced);
    std::map<std::string, double> replay;
    replay_layers(w, traced, replay);

    const bool pass = verdict.failed == 0 && missed.empty() &&
                      !plain.log.empty() && plain.log.size() ==
                      traced.log.size();
    std::fprintf(stderr,
                 "smoke %-13s %s: %zu items, %zu ops, %zu deliveries, "
                 "%llu failed, oracle self-test %s\n",
                 name.c_str(), pass ? "ok" : "FAILED", w.items.size(),
                 w.ops.size(), plain.log.size(),
                 static_cast<unsigned long long>(verdict.failed),
                 missed.empty() ? "caught every corruption"
                                : ("missed: " + missed).c_str());
    ok = ok && pass;
  }
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  try {
    if (args.smoke) return run_smoke(args.seed);
    const double t0 = wall_seconds();
    const Workload w = generate(args.workload, args.seed, /*smoke=*/false);
    std::fprintf(stderr,
                 "%s seed %llu: %zu items in %zu bundles, %zu subscriptions "
                 "(%zu initial), %zu ops; generated in %.2f s\n",
                 w.name.c_str(), static_cast<unsigned long long>(w.seed),
                 w.items.size(), w.bundles.size(), w.subs.size(),
                 w.initial_subs, w.ops.size(), wall_seconds() - t0);
    const double peak_rss_mb = args.trace ? 0.0 : overlay_peak_rss_mib(w);
    const Expectation e = expect(w, kSettle);
    return args.trace ? run_traced(w, e, args.seconds)
                      : run_untraced(w, e, args.seconds, peak_rss_mb);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "overlay_bench: %s\n", ex.what());
    return 2;
  }
}
