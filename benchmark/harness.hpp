// Shared pieces of the end-to-end benchmark: the workload interface, the
// record that measured passes fill in, and the layer timers placed around
// the library's public calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace ftrsn::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::uint64_t seed = 1;
  /// Worker threads of the library's pools: min(4, hardware threads).
  int threads = 1;
  /// Reduced inputs for benchmark/selfcheck.sh.
  bool smoke = false;
};

/// Everything the measured passes of one phase (untraced or traced) record.
struct Phase {
  /// Measured wall seconds of each pass (output checks excluded).
  std::vector<double> pass_s;
  /// Latency of every operation of every pass, in milliseconds.
  std::vector<double> op_ms;
  /// Seconds spent inside each timed public library call, all passes.
  std::map<std::string, double> layer_s;
  /// Workload-specific per-layer numbers, from the first pass.
  std::map<std::string, double> values;
  /// Latencies of operation classes (e.g. cache hits), in milliseconds.
  std::map<std::string, std::vector<double>> class_ms;
  /// Output checks made and failed (feeds `failed` / `attempted`).
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few failure messages

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Runs `f` as one call into layer `layer`: its wall time is added to
/// phase.layer_s[layer], and in the traced run it is wrapped in the span
/// "bench.<layer>" so sub-layer spans of the library nest under it.
template <class F>
auto timed(Phase& phase, const std::string& layer, F&& f) {
  struct Tally {
    Phase& phase;
    const std::string& layer;
    Clock::time_point t0 = Clock::now();
    ~Tally() { phase.layer_s[layer] += seconds_since(t0); }
  };
  const obs::Span span("bench." + layer);
  const Tally tally{phase, layer};
  return f();
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs.  Timed as setup_s and run on a fresh object each
  /// time set-up is repeated.  Measurements taken while setting up (e.g.
  /// input generation time) go into `notes`.
  virtual void setup(std::map<std::string, double>& notes) = 0;
  /// One pass of measured work.  Returns its measured seconds; output
  /// checks made inside the pass are not part of them.
  virtual double pass(Phase& phase) = 0;
  /// Output checks after the last pass (untimed).
  virtual void finish(Phase&) {}
  /// Callers issuing operations concurrently during a pass.
  virtual int clients() const { return 1; }
};

/// table1 | signoff | scale | serve_mix; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config);

}  // namespace ftrsn::benchmark
