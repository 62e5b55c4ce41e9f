// The four workloads of the end-to-end benchmark.  benchmark/README.md
// gives the reason for each; in short:
//
//   table1     the paper's Table I flow over the 13 ITC'02 SoCs — post-
//              synthesis lint dominates it, BMC and serve are absent;
//   signoff    BMC accessibility verdicts on hardened networks — SAT
//              dominates the run, lint sits in set-up only;
//   scale      augmentation + fault metric on a 40k-element synthetic SoC
//              with SPOF repair off — the metric and min-cost-flow engines
//              at a size where lint does no work;
//   serve_mix  two closed-loop clients on an in-process ServeService — the
//              cache-hit path and the compute (miss) path in one stream.
//
// The seed picks the SoC order (table1), the generated network (scale) and
// the request stream with its uploads (serve_mix); signoff's queries are
// fixed.  The library only ever sees the generated inputs.
#include <algorithm>
#include <fstream>
#include <map>
#include <thread>

#include "area/area.hpp"
#include "augment/augment.hpp"
#include "bmc/bmc.hpp"
#include "fault/faults.hpp"
#include "fault/metric.hpp"
#include "fault/metric_engine.hpp"
#include "gen/scale.hpp"
#include "graph/dataflow.hpp"
#include "harness.hpp"
#include "io/rsn_text.hpp"
#include "itc02/itc02.hpp"
#include "lint/lint.hpp"
#include "serve/service.hpp"
#include "synth/synth.hpp"
#include "util/common.hpp"
#include "util/sha256.hpp"

namespace ftrsn::benchmark {
namespace {

/// Independent seeded stream `stream` of the run seed.
Rng seeded(const Config& config, std::uint64_t stream) {
  return Rng(config.seed * 0x9E3779B97F4A7C15ULL + stream);
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

MetricEngineOptions metric_options(const Config& config) {
  MetricEngineOptions eo;
  eo.metric.keep_distribution = true;  // report_digest covers it
  eo.threads = config.threads;
  return eo;
}

Rsn soc_rsn(const std::string& name) {
  const auto soc = itc02::find_soc(name);
  FTRSN_CHECK_MSG(soc.has_value(), "unknown SoC " + name);
  return itc02::generate_sib_rsn(*soc);
}

std::vector<NodeId> segments_of(const Rsn& rsn) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < rsn.num_nodes(); ++id)
    if (rsn.node(id).is_segment()) out.push_back(id);
  return out;
}

// --- table1 ------------------------------------------------------------------

/// Pins of tests/data/corpus/manifest.sha256: "<sha256>  <name>" lines.
std::map<std::string, std::string> read_corpus_pins() {
  const std::string path =
      std::string(FTRSN_REPO_ROOT) + "/tests/data/corpus/manifest.sha256";
  std::ifstream in(path);
  FTRSN_CHECK_MSG(in.good(), "cannot read " + path);
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const auto sp = t.find_first_of(" \t");
    FTRSN_CHECK_MSG(sp != std::string_view::npos, "bad manifest line " + line);
    pins[std::string(trim(t.substr(sp)))] = std::string(t.substr(0, sp));
  }
  return pins;
}

/// Synth -> metric(original) -> metric(hardened) -> area overhead per SoC,
/// both metric reports checked against their corpus pins.  The inputs are
/// fixed so the pins apply; the seed only permutes the SoC order.
class Table1 final : public Workload {
 public:
  explicit Table1(const Config& config) : config_(config) {}

  void setup(std::map<std::string, double>&) override {
    const auto pins = read_corpus_pins();
    for (const itc02::Soc& soc : itc02::socs()) {
      if (config_.smoke && soc.name != "u226") continue;
      const auto pin = [&](const char* suffix) {
        const auto it = pins.find(soc.name + suffix);
        FTRSN_CHECK_MSG(it != pins.end(), soc.name + suffix + " not pinned");
        return it->second;
      };
      socs_.push_back({soc.name, itc02::generate_sib_rsn(soc), pin("-orig"),
                       pin("-ft")});
    }
    Rng rng = seeded(config_, 1);
    shuffle(socs_, rng);
  }

  double pass(Phase& phase) override {
    const MetricEngineOptions eo = metric_options(config_);
    double total = 0;
    for (const Soc& soc : socs_) {
      FaultToleranceReport original, hardened;
      const auto t0 = Clock::now();
      timed(phase, "flow." + soc.name, [&] {
        const SynthResult synth = timed(phase, "synth.call", [&] {
          return synthesize_fault_tolerant(soc.rsn);
        });
        original = timed(phase, "fault.evaluate", [&] {
          return FaultMetricEngine(soc.rsn).evaluate(eo);
        });
        hardened = timed(phase, "fault.evaluate", [&] {
          return FaultMetricEngine(synth.rsn).evaluate(eo);
        });
        timed(phase, "area.overhead",
              [&] { return compute_overhead(soc.rsn, synth.rsn); });
      });
      const double dt = seconds_since(t0);
      total += dt;
      phase.op_ms.push_back(dt * 1e3);
      phase.check(report_digest(soc.name + "-orig", original) == soc.pin_orig,
                  soc.name + "-orig metric report differs from its pin");
      phase.check(report_digest(soc.name + "-ft", hardened) == soc.pin_ft,
                  soc.name + "-ft metric report differs from its pin");
    }
    return total;
  }

 private:
  struct Soc {
    std::string name;
    Rsn rsn;
    std::string pin_orig, pin_ft;
  };
  Config config_;
  std::vector<Soc> socs_;
};

// --- signoff -----------------------------------------------------------------

/// BMC verdicts on hardened networks: per network, K targets evenly spaced
/// over its segments, each queried fault-free and under the stuck-at fault
/// at the same relative position of the fault list.  The set and its order
/// do not depend on the seed: BMC cost is a heavy-tailed property of the
/// (target, fault) pair (0.1 s typical, tens of seconds for a few pairs),
/// so a seeded choice would make the run time a property of the seed, and
/// a seeded order moves the peak RSS by up to 9%.  Every verdict must equal
/// FaultMetricEngine::accessible_under_set for the same fault, and a query
/// that hits the conflict limit counts as failed.
class Signoff final : public Workload {
 public:
  explicit Signoff(const Config& config) : config_(config) {}

  void setup(std::map<std::string, double>&) override {
    const std::vector<std::pair<std::string, std::size_t>> plan =
        config_.smoke ? std::vector<std::pair<std::string, std::size_t>>{
                            {"u226", 2}}
                      : std::vector<std::pair<std::string, std::size_t>>{
                            {"t512505", 6}, {"p34392", 6}, {"p22081", 4}};
    for (const auto& [name, k] : plan) {
      auto net = std::make_unique<Net>();
      net->name = name;
      net->hardened = synthesize_fault_tolerant(soc_rsn(name)).rsn;
      net->bmc = std::make_unique<BmcAccessChecker>(net->hardened);
      net->oracle = std::make_unique<FaultMetricEngine>(net->hardened);
      net->scratch = net->oracle->make_scratch();
      net->fault_free = net->oracle->accessible_fault_free();
      net->faults = enumerate_faults(net->hardened);
      const std::vector<NodeId> segs = segments_of(net->hardened);
      for (std::size_t i = 0; i < k; ++i) {
        const NodeId target = segs[(2 * i + 1) * segs.size() / (2 * k)];
        queries_.push_back({net.get(), target, nullptr});
        queries_.push_back(
            {net.get(), target,
             &net->faults[(2 * i + 1) * net->faults.size() / (2 * k)]});
      }
      nets_.push_back(std::move(net));
    }
  }

  double pass(Phase& phase) override {
    double total = 0;
    for (const Query& q : queries_) total += query(phase, q);
    return total;
  }

 private:
  struct Net {
    std::string name;
    Rsn hardened;  // the checker, the oracle and the faults point into it
    std::unique_ptr<BmcAccessChecker> bmc;
    std::unique_ptr<FaultMetricEngine> oracle;
    FaultMetricEngine::ScratchPtr scratch;
    std::vector<bool> fault_free;
    std::vector<Fault> faults;
  };
  struct Query {
    Net* net;
    NodeId target;
    const Fault* fault;  // nullptr: fault-free
  };

  double query(Phase& phase, const Query& q) {
    Net& net = *q.net;
    const std::uint64_t conflicts0 = obs::counter_value("bmc.sat_conflicts");
    const auto t0 = Clock::now();
    const bool verdict = timed(phase, "bmc.query", [&] {
      return net.bmc->accessible(q.target, q.fault);
    });
    const double dt = seconds_since(t0);
    phase.op_ms.push_back(dt * 1e3);
    const std::string what =
        net.name + " " + net.hardened.node(q.target).name +
        (q.fault ? " under " + q.fault->describe(net.hardened) : " fault-free");
    phase.check(obs::counter_value("bmc.sat_conflicts") - conflicts0 <
                    static_cast<std::uint64_t>(BmcOptions{}.conflict_limit),
                what + ": undecided at the conflict limit");
    const bool expected =
        q.fault
            ? net.oracle->accessible_under_set({*q.fault}, *net.scratch)[q.target]
            : net.fault_free[q.target];
    phase.check(verdict == expected,
                what + ": BMC verdict differs from the fault metric engine");
    return dt;
  }

  Config config_;
  std::vector<std::unique_ptr<Net>> nets_;
  std::vector<Query> queries_;
};

// --- scale -------------------------------------------------------------------

/// SHA-256 of the seed-1 scale output (augment cost, added edges, metric
/// report digest) at the full size.
constexpr const char* kScaleSeed1Pin =
    "5d8e4c1d628211e7d0fbfe358d7f20c9fc48230b8436c10cd9266e224c77a876";

/// gen::scale_soc (u226 template, chain-length jitter from the seed) ->
/// augment_connectivity with spof_repair off, so the degree-cover LP
/// really runs -> fault metric of the generated network.
class Scale final : public Workload {
 public:
  explicit Scale(const Config& config) : config_(config) {}

  void setup(std::map<std::string, double>& notes) override {
    gen::ScaleOptions so;
    so.base = "u226";
    so.target_elements = config_.smoke ? 2000 : 40000;
    so.seed = seeded(config_, 3).next_u64();
    const auto t0 = Clock::now();
    const gen::ScaledSoc scaled = gen::scale_soc(so);
    notes["gen.scale_s"] = seconds_since(t0);
    rsn_ = itc02::generate_sib_rsn(scaled.soc);
    graph_ = DataflowGraph::from_rsn(rsn_);
  }

  double pass(Phase& phase) override {
    AugmentOptions ao;
    ao.spof_repair = false;
    const auto t0 = Clock::now();
    const AugmentResult aug = timed(
        phase, "augment.call", [&] { return augment_connectivity(graph_, ao); });
    const FaultToleranceReport report = timed(phase, "fault.evaluate", [&] {
      return FaultMetricEngine(rsn_).evaluate(metric_options(config_));
    });
    const double dt = seconds_since(t0);
    phase.op_ms.push_back(dt * 1e3);
    if (!phase.values.count("augment.cost"))
      phase.values["augment.cost"] = static_cast<double>(aug.cost);

    phase.check(!lint::has_errors(lint::lint_augmentation(graph_, aug.added_edges)),
                "augmentation violates its postconditions");
    std::string out = strprintf("cost %lld\n", aug.cost);
    for (const DfEdge& e : aug.added_edges)
      out += strprintf("edge %d %d\n", static_cast<int>(e.from),
                       static_cast<int>(e.to));
    out += "metric " + report_digest("scale", report) + "\n";
    const std::string digest = sha256_hex(out);
    if (output_digest_.empty()) output_digest_ = digest;
    phase.check(digest == output_digest_, "scale output differs between passes");
    if (config_.seed == 1 && !config_.smoke)
      phase.check(digest == kScaleSeed1Pin,
                  "seed-1 scale output " + digest + " differs from its pin");
    return dt;
  }

 private:
  Config config_;
  Rsn rsn_;
  DataflowGraph graph_;
  std::string output_digest_;
};

// --- serve_mix ---------------------------------------------------------------

std::string request_line(const std::string& op, const std::string& rsn_text,
                         const std::string& options_json) {
  std::string line = "{\"id\":\"b\",\"op\":\"" + op + "\",\"rsn\":\"" +
                     obs::detail::json_escape(rsn_text) + "\"";
  if (!options_json.empty()) line += ",\"options\":" + options_json;
  return line + "}";
}

/// The 64 hex digits after `"result_sha256":"`, empty when absent.
std::string result_sha(const std::string& response) {
  const std::string tag = "\"result_sha256\":\"";
  const auto at = response.rfind(tag);
  return at == std::string::npos ? std::string()
                                 : response.substr(at + tag.size(), 64);
}

/// Everything between `"result":` and `,"result_sha256":` (the rendered
/// blob, spelled exactly so by the service).
std::string result_blob(const std::string& response) {
  const std::string open = "\"result\":", close = ",\"result_sha256\":";
  const auto a = response.find(open);
  const auto b = response.rfind(close);
  if (a == std::string::npos || b == std::string::npos || b <= a) return {};
  return response.substr(a + open.size(), b - a - open.size());
}

bool response_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// In-process ServeService (default limits and cache, 2 pool threads)
/// driven by two closed-loop clients.  95% of requests read a warmed
/// catalog (Zipf popularity over fixed ranks), 5% upload a fresh 1k-element
/// scale_soc network for lint or metric, which always misses.  The mix is
/// an assumption, not a measured trace: nothing serves real clients yet.
class ServeMix final : public Workload {
 public:
  explicit ServeMix(const Config& config) : config_(config) {}

  void setup(std::map<std::string, double>&) override {
    serve::ServiceOptions so;
    so.threads = kServiceThreads;
    service_ = std::make_unique<serve::ServeService>(so);
    const std::vector<std::string> socs =
        config_.smoke ? std::vector<std::string>{"u226"}
                      : std::vector<std::string>{"u226", "d695", "g1023",
                                                 "p34392"};
    for (const std::string& name : socs) {
      const Rsn orig = soc_rsn(name);
      texts_.push_back(write_rsn_text(orig));
      texts_.push_back(write_rsn_text(synthesize_fault_tolerant(orig).rsn));
    }
    // Popularity rank = catalog order: per op, the networks by size.
    const auto add = [&](std::size_t text, const char* op,
                         const std::string& options) {
      catalog_.push_back({request_line(op, texts_[text], options), ""});
    };
    const std::size_t n_socs = socs.size();
    for (std::size_t s = 0; s < n_socs; ++s) add(2 * s, "parse", "");
    for (std::size_t s = 0; s < n_socs; ++s)
      add(2 * s + 1, "lint", "{\"ft\":true}");
    for (std::size_t s = 0; s < n_socs; ++s) add(2 * s, "metric", "");
    for (std::size_t s = 0; s < n_socs; ++s) add(2 * s + 1, "metric", "");
    for (std::size_t s = 0; s < n_socs; ++s) add(2 * s, "synth", "");
    for (std::size_t s = 0; s < std::min<std::size_t>(2, n_socs); ++s) {
      const Rsn orig = parse_rsn_text(texts_[2 * s]);
      add(2 * s, "access",
          "{\"target\":\"" + orig.node(segments_of(orig).back()).name + "\"}");
    }
    for (Entry& e : catalog_) {
      const std::string response = service_->handle_line(e.line);
      FTRSN_CHECK_MSG(response_ok(response), "warm-up failed: " + response);
      e.sha = result_sha(response);
    }
    double total = 0;
    for (std::size_t r = 0; r < catalog_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_.push_back(total);
    }
  }

  double pass(Phase& phase) override {
    const std::size_t n = config_.smoke ? 300 : kPassRequests;
    // Exactly one write in 20, at seeded positions; the uploads are
    // rendered here, outside the measured block.
    std::vector<Request> requests(n);
    Rng rng = seeded(config_, 4 + 1000 * passes_);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < n / 20) {
        requests[i].write = render_write(rng, i % 2 == 0);
      } else {
        const double u = zipf_.back() * rng.next_double();
        requests[i].catalog = static_cast<std::size_t>(
            std::lower_bound(zipf_.begin(), zipf_.end(), u) - zipf_.begin());
      }
    }
    shuffle(requests, rng);

    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    std::vector<Phase> parts(kClients);
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kClients)
          send(parts[c], requests[i]);
      });
    for (std::thread& t : clients) t.join();
    const double wall = seconds_since(t0);

    for (Phase& part : parts) {
      phase.op_ms.insert(phase.op_ms.end(), part.op_ms.begin(),
                         part.op_ms.end());
      for (const auto& [layer, s] : part.layer_s) phase.layer_s[layer] += s;
      for (const auto& [name, ms] : part.class_ms)
        phase.class_ms[name].insert(phase.class_ms[name].end(), ms.begin(),
                                    ms.end());
      phase.attempted += part.attempted;
      phase.failed += part.failed;
      for (std::string& f : part.failures)
        if (phase.failures.size() < 8) phase.failures.push_back(std::move(f));
    }
    if (passes_++ == 0)
      for (const Request& r : requests)
        if (!r.write.line.empty()) first_writes_.push_back(r.write);
    return wall;
  }

  /// Every catalog key and every write of the first pass, recomputed on a
  /// fresh service, must give the blob the measured service served.
  void finish(Phase& phase) override {
    serve::ServiceOptions so;
    so.threads = kServiceThreads;
    serve::ServeService cold(so);
    std::vector<const Entry*> keys;
    for (const Entry& e : catalog_) keys.push_back(&e);
    for (const Entry& e : first_writes_) keys.push_back(&e);
    for (const Entry* e : keys) {
      const std::string response = cold.handle_line(e->line);
      const std::string blob = result_blob(response);
      phase.check(response_ok(response) && !blob.empty() &&
                      sha256_hex(blob) == e->sha && result_sha(response) == e->sha,
                  "cold recomputation differs from the served blob");
    }
  }

  int clients() const override { return kClients; }

 private:
  static constexpr int kServiceThreads = 2;
  static constexpr int kClients = 2;
  static constexpr std::size_t kPassRequests = 2000;

  struct Entry {
    std::string line;
    std::string sha;  // result_sha256 the measured service answered with
  };
  struct Request {
    std::size_t catalog = 0;
    Entry write;  // empty line: a catalog read
  };

  Entry render_write(Rng& rng, bool lint) {
    gen::ScaleOptions so;
    so.base = "u226";
    so.target_elements = 1000;
    so.seed = rng.next_u64();
    const std::string text =
        write_rsn_text(itc02::generate_sib_rsn(gen::scale_soc(so).soc));
    return {request_line(lint ? "lint" : "metric", text, ""), ""};
  }

  void send(Phase& part, Request& r) {
    const std::string& line = r.write.line.empty() ? catalog_[r.catalog].line
                                                   : r.write.line;
    const auto t0 = Clock::now();
    const std::string response =
        timed(part, "serve.request", [&] { return service_->handle_line(line); });
    const double dt = seconds_since(t0);
    part.op_ms.push_back(dt * 1e3);
    const bool hit = response.find("\"cached\":true") != std::string::npos;
    part.class_ms[hit ? "serve.hit" : "serve.miss"].push_back(dt * 1e3);
    part.check(response_ok(response), "request failed: " + response.substr(0, 200));
    if (r.write.line.empty())
      part.check(result_sha(response) == catalog_[r.catalog].sha,
                 "cache hit differs from the warm-up blob");
    else
      r.write.sha = result_sha(response);
  }

  Config config_;
  std::unique_ptr<serve::ServeService> service_;
  std::vector<std::string> texts_;  // per SoC: original, hardened
  std::vector<Entry> catalog_;
  std::vector<double> zipf_;  // cumulative 1/rank weights
  std::vector<Entry> first_writes_;
  std::size_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "table1") return std::make_unique<Table1>(config);
  if (name == "signoff") return std::make_unique<Signoff>(config);
  if (name == "scale") return std::make_unique<Scale>(config);
  if (name == "serve_mix") return std::make_unique<ServeMix>(config);
  return nullptr;
}

}  // namespace ftrsn::benchmark
