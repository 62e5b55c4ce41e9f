// ftrsn_benchmark — runs one workload of the end-to-end benchmark and
// prints its metrics.  benchmark/run.py builds it and is the command to use.
//
//   ftrsn_benchmark --workload NAME [--seed N] [--seconds S]
//                   [--trace-dir DIR] [--smoke]
//
// Set-up runs at least kMinSetups times, each on a fresh workload object,
// and cheap set-ups repeat until kSetupBudgetS seconds are spent; setup_s
// is the median.  A set-up of a few milliseconds thus samples the machine
// over seconds, not during one short burst of noise.  The measured phase
// then repeats passes of the workload until S seconds are used (a pass
// starts only while one more fits, and at least one runs).  With --trace-dir the budget is split in two: the first
// half runs untraced and yields every end-to-end number and the counters;
// the second half runs with obs spans on, writes the Chrome trace and the
// run report to DIR, and yields the span-derived shares and the tracing
// overhead.
//
// Output: one `name value unit` line per metric, then one JSON object on
// the last line with the metrics, the output-check tally, every obs counter
// of the first pass and per-class latency details.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "itc02/itc02.hpp"
#include "util/common.hpp"
#include "util/json.hpp"

namespace ftrsn::benchmark {
namespace {

constexpr std::size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 2.0;

/// Obs counters reported per pass (first pass of the untraced phase).
const char* const kCounters[] = {
    "lint.cones_solved_tristate", "lint.cache_hits", "lint.full_recomputes",
    "lint.incremental_updates", "metric.mask_evals", "metric.packed_words",
    "metric.classes", "metric.faults", "metric.fixpoint_iterations",
    "pool.chunks", "ilp.flow_pushes", "ilp.flow_relabels",
    "ilp.flow_price_refines", "ilp.flow_arcs_fixed", "augment.added_edges",
    "bmc.sat_calls", "bmc.sat_clauses", "bmc.sat_decisions",
    "bmc.sat_propagations", "bmc.sat_conflicts", "serve.cache_hits",
    "serve.cache_misses", "serve.ingest_hits", "serve.ingest_misses"};

/// Benchmark timers around public calls; reported as a share of the
/// measured time, and summed into `coverage`.
const char* const kCallLayers[] = {"synth.call", "fault.evaluate",
                                   "area.overhead", "augment.call",
                                   "bmc.query", "serve.request"};

/// Library spans of the traced phase, reported as a share of its time.
const char* const kSpans[] = {"synth.lint",      "synth.augment",
                              "synth.integrate", "synth.select",
                              "metric.packed_sweep", "bmc.encode",
                              "bmc.solve"};

struct Args {
  std::string workload;
  Config config;
  double seconds = 10;
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ftrsn_benchmark: %s\nusage: ftrsn_benchmark --workload "
               "table1|signoff|scale|serve_mix [--seed N] [--seconds S] "
               "[--trace-dir DIR] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.config.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace-dir") a.trace_dir = value();
    else if (arg == "--smoke") a.config.smoke = true;
    else usage("unknown argument " + arg);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  a.config.threads = static_cast<int>(std::min(4u, hw));
  return a;
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Repeats passes until `budget` seconds of wall time are used; records
/// the obs counter deltas of the first pass into `first_pass`.
void measure(Workload& w, double budget, Phase& phase,
             std::map<std::string, double>* first_pass) {
  const auto start = Clock::now();
  do {
    const auto before = obs::counters_snapshot();
    phase.pass_s.push_back(w.pass(phase));
    if (first_pass && phase.pass_s.size() == 1)
      for (const auto& [name, v] : obs::counters_snapshot()) {
        const auto it = before.find(name);
        (*first_pass)[name] =
            static_cast<double>(v - (it == before.end() ? 0 : it->second));
      }
  } while (seconds_since(start) * (1.0 + 1.0 / phase.pass_s.size()) <= budget);
}

/// Span totals (seconds) of the current obs context's run report.
std::map<std::string, double> span_totals() {
  std::map<std::string, double> out;
  const auto report = json::parse(obs::report_json());
  FTRSN_CHECK_MSG(report.has_value(), "obs run report is not valid JSON");
  if (const json::Value* spans = report->find("spans"))
    for (const json::Value& s : spans->items)
      if (const json::Value* name = s.find("name"))
        out[name->text] = s.num_or("total_seconds", 0);
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  return std::isfinite(v) ? strprintf("%.17g", v) : std::string("null");
}

int run(const Args& args) {
  if (!make_workload(args.workload, args.config))
    usage("unknown workload " + args.workload);

  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  std::map<std::string, double> notes;
  while (setup_s.size() < kMinSetups || sum(setup_s) < kSetupBudgetS) {
    w.reset();  // the previous object's memory is freed before the next
    w = make_workload(args.workload, args.config);
    notes.clear();
    const auto t0 = Clock::now();
    w->setup(notes);
    setup_s.push_back(seconds_since(t0));
  }

  const bool traced = !args.trace_dir.empty();
  Phase plain;
  std::map<std::string, double> counters;
  measure(*w, traced ? args.seconds / 2 : args.seconds, plain, &counters);
  const double peak_rss_mb =
      static_cast<double>(obs::detail::peak_rss_kb()) / 1024.0;
  w->finish(plain);

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  // End to end.
  add("setup_s", quantile(setup_s, 0.5), "s");
  add("run_s", quantile(plain.pass_s, 0.5), "s");
  add("op_p50_ms", quantile(plain.op_ms, 0.5), "ms");
  add("op_p90_ms", quantile(plain.op_ms, 0.9), "ms");
  add("op_p99_ms", quantile(plain.op_ms, 0.99), "ms");
  add("peak_rss_mb", peak_rss_mb, "MiB");

  // Per layer.  A share is the fraction of the callers' measured time spent
  // inside the layer.
  const double measured = sum(plain.pass_s) * w->clients();
  double covered = 0;
  for (const char* layer : kCallLayers) {
    const double s = get(plain.layer_s, layer);
    covered += s;
    add(std::string(layer) + ".share", s / measured, "ratio");
  }
  add("coverage", covered / measured, "ratio");
  for (const itc02::Soc& soc : itc02::socs())
    add("flow." + soc.name + ".share",
        get(plain.layer_s, "flow." + soc.name) / measured, "ratio");
  for (const char* name : kCounters) add(name, get(counters, name), "count");
  add("augment.cost", get(plain.values, "augment.cost"), "count");
  const double hits = get(counters, "serve.cache_hits");
  const double misses = get(counters, "serve.cache_misses");
  add("serve.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");

  long long attempted = plain.attempted, failed = plain.failed;
  std::vector<std::string> failures = plain.failures;
  if (traced) {
    obs::reset();
    FTRSN_CHECK_MSG(obs::stream_trace_to(args.trace_dir + "/trace.json"),
                    "cannot write " + args.trace_dir + "/trace.json");
    obs::enable(true);
    Phase spans_phase;
    measure(*w, args.seconds / 2, spans_phase, nullptr);
    obs::enable(false);
    obs::close_trace_stream();
    FTRSN_CHECK_MSG(obs::write_report(args.trace_dir + "/report.json"),
                    "cannot write " + args.trace_dir + "/report.json");
    const auto totals = span_totals();
    const double traced_s = sum(spans_phase.pass_s);
    for (const char* name : kSpans)
      add(std::string(name) + ".share", get(totals, name) / traced_s, "ratio");
    add("trace.overhead",
        quantile(spans_phase.pass_s, 0.5) / quantile(plain.pass_s, 0.5),
        "ratio");
    attempted += spans_phase.attempted;
    failed += spans_phase.failed;
    failures.insert(failures.end(), spans_phase.failures.begin(),
                    spans_phase.failures.end());
  }

  for (const Metric& m : metrics)
    std::printf("%s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  for (const std::string& f : failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());

  std::string out = strprintf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %d, "
      "\"setups\": %zu, \"passes\": %zu, \"ops\": %zu, \"correct\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      args.workload.c_str(), static_cast<unsigned long long>(args.config.seed),
      args.config.threads, setup_s.size(), plain.pass_s.size(),
      plain.op_ms.size(),
      failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i ? ", " : "", metrics[i].name.c_str(),
                     json_number(metrics[i].value).c_str(),
                     metrics[i].unit.c_str());
  out += "}, \"pass_s\": [";
  for (std::size_t i = 0; i < plain.pass_s.size(); ++i)
    out += (i ? ", " : "") + json_number(plain.pass_s[i]);
  out += "], \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += strprintf("%s\"%s\": %s", first ? "" : ", ",
                     obs::detail::json_escape(name).c_str(),
                     json_number(v).c_str());
    first = false;
  }
  out += "}, \"details\": {";
  first = true;
  const auto detail = [&](const std::string& name, double v) {
    out += strprintf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                     json_number(v).c_str());
    first = false;
  };
  for (const auto& [name, v] : notes) detail(name, v);
  for (const auto& [layer, s] : plain.layer_s)
    detail(layer + "_s_per_pass", s / static_cast<double>(plain.pass_s.size()));
  for (const auto& [name, ms] : plain.class_ms) {
    detail(name + "_p50_ms", quantile(ms, 0.5));
    detail(name + "_p99_ms", quantile(ms, 0.99));
    detail(name + "_count", static_cast<double>(ms.size()));
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace ftrsn::benchmark

int main(int argc, char** argv) {
  using namespace ftrsn::benchmark;
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftrsn_benchmark: %s\n", e.what());
    return 1;
  }
}
