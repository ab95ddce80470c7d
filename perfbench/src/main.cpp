// wivi_perfbench — one end-to-end run of one workload.
//
//   wivi_perfbench --workload live|saturate|churn|offline --seed N
//                  --seconds S --trace 0|1 [--out DIR]
//
// Prints a "# context" line (machine and build), a "# run" line
// (failures by cause, sample counts, notes) and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one. A traced
// run also writes DIR/trace_<workload>_s<seed>.json (Chrome trace events)
// and DIR/layers_<workload>_s<seed>.json (the per-layer table). Exits 3
// without a result when a conservation law is broken, 2 on bad usage or
// a non-Release build.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/layers.hpp"
#include "src/workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::RunResult;

/// The end-to-end metrics, in BENCHMARK.json order, with units.
struct Metric {
  const char* name;
  const char* unit;
  double value;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wivi_perfbench: %s\nusage: wivi_perfbench --workload "
               "live|saturate|churn|offline --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload || !perfbench::known_workload(o.workload))
    usage("--workload must be live, saturate, churn or offline");
  if (!(o.seconds >= 1.0 && o.seconds <= 120.0))
    usage("--seconds must be in [1, 120]");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string context_json(const Options& o) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1;
  return std::string("{\"workload\":\"") + o.workload + "\",\"seed\":" +
         std::to_string(o.seed) + ",\"seconds\":" + num(o.seconds) +
         ",\"trace\":" + (o.trace ? "true" : "false") +
         ",\"nproc\":" + std::to_string(o.nproc) + ",\"compiler\":\"" +
         json_escape(std::string("g++ ") + __VERSION__) + "\",\"build_type\":\"" +
         PERFBENCH_BUILD_TYPE + "\",\"loadavg\":[" + num(load[0]) + "," +
         num(load[1]) + "," + num(load[2]) + "]}";
}

std::string notes_json(const RunResult& r) {
  std::string out = "{";
  for (const auto& [k, v] : r.notes) {
    if (out.size() > 1) out += ',';
    out += "\"" + k + "\":\"" + json_escape(v) + "\"";
  }
  out += ",\"latency_samples\":" + std::to_string(r.latency.count);
  out += ",\"latency_segments\":" + std::to_string(r.latency.segments);
  out += ",\"e2e_p99_ms\":" + num(r.latency.p99);
  out += std::string(",\"e2e_p99_supported\":") + (r.latency.p99_supported ? "true" : "false");
  out += ",\"fail_frac\":" + num(r.tally.fail_frac());
  out += ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    out += (i ? ",\"" : "\"") + json_escape(r.problems[i]) + "\"";
  return out + "]}";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += std::string(i ? ", " : "") + "\"" + ms[i].name + "\": {\"value\": " +
           num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  return out + "}";
}

/// Unit of each per-layer metric (BENCHMARK.json's per_layer list).
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"net.parse_ns", "ns"},
      {"net.reasm_ns", "ns"},
      {"net.frame_to_ring_p99_us", "us"},
      {"net.lost_chunks", "count"},
      {"rt.offer_ns", "ns"},
      {"rt.ring_wait_p50_us", "us"},
      {"rt.ring_wait_p99_us", "us"},
      {"rt.chunk_latency_p99_us", "us"},
      {"rt.worker_busy_frac", "ratio"},
      {"rt.worker_skew", "ratio"},
      {"rt.events_per_column", "ratio"},
      {"api.push_us", "us"},
      {"api.guard_us", "us"},
      {"api.open_cold_ms", "ms"},
      {"api.open_warm_ms", "ms"},
      {"api.other_us", "us"},
      {"api.attributed_frac", "ratio"},
      {"core.corr_us", "us"},
      {"linalg.eig_us", "us"},
      {"linalg.eig_share", "ratio"},
      {"core.scan_us", "us"},
      {"core.model_order_mean", "count"},
      {"core.rebuild_us", "us"},
      {"track.detect_us", "us"},
      {"track.step_us", "us"},
      {"plan.builds", "count"},
      {"plan.hits", "count"},
      {"plan.resident_kb", "KB"},
      {"par.build_ms", "ms"},
      {"par.speedup", "ratio"},
      {"harness.gen_late_p99_ms", "ms"},
      {"harness.trace_overhead", "ratio"},
  };
  return units;
}

/// Headline cost of a run, for the traced-vs-untraced comparison: e2e
/// p50 on the open-loop workloads, 1 / sensors_per_core on the others.
double headline_cost(const Options& o, const RunResult& r) {
  if (o.workload == "live" || o.workload == "churn") return r.latency.p50;
  return r.sensors_per_core > 0 ? 1.0 / r.sensors_per_core : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr, "wivi_perfbench: refusing to record from a build "
                       "with assertions on (not Release)\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "wivi_perfbench: refusing to record from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("# context %s\n", context_json(o).c_str());
  std::fflush(stdout);

  try {
    const std::vector<perfbench::World> worlds = perfbench::make_workload_worlds(o);
    const perfbench::SetupResult setup = perfbench::measure_setup(o, 51);

    RunResult r;
    std::string extra;
    if (!o.trace) {
      r = perfbench::run_workload(o, worlds, 0, false);
    } else {
      // Untraced and traced runs on the same worlds: their difference is
      // the tracing overhead.
      const RunResult plain = perfbench::run_workload(o, worlds, 0, false);
      r = perfbench::run_workload(o, worlds, 0, true);
      r.problems.insert(r.problems.end(), plain.problems.begin(), plain.problems.end());
      r.broken_laws.insert(r.broken_laws.end(), plain.broken_laws.begin(),
                           plain.broken_laws.end());
      const double base = headline_cost(o, plain);
      r.layers["harness.trace_overhead"] =
          base > 0 ? headline_cost(o, r) / base - 1.0 : 0.0;
      r.layers["api.open_cold_ms"] = setup.open_cold_ms;
      r.layers["api.open_warm_ms"] = setup.open_warm_ms;
      r.layers["plan.builds"] = setup.plan_builds;
      const std::string tag = o.workload + "_s" + std::to_string(o.seed) + ".json";
      const std::string self = perfbench::replay_layers(
          worlds, perfbench::capacity_workers(o.nproc), o.out_dir + "/trace_" + tag, r);
      extra += ",\"self_times\":" + self;
      if (o.workload == "saturate") {
        // Diagnostic sweep of the worker count (not a gated workload).
        std::string sweep = "[";
        Options so = o;
        so.seconds = std::min(o.seconds, 3.0);
        for (int w = 1; w < std::max(2, o.nproc); ++w) {
          const RunResult s = perfbench::run_workload(so, worlds, w, true);
          if (!s.broken_laws.empty()) r.broken_laws.push_back("sweep: " + s.broken_laws.front());
          char buf[400];
          std::snprintf(buf, sizeof buf,
                        "%s{\"workers\":%d,\"sensors_per_core\":%.3f,"
                        "\"worker_skew\":%.3f,\"columns_per_worker\":\"%s\","
                        "\"ring_wait_p50_us\":%.1f,\"ring_wait_p99_us\":%.1f,"
                        "\"worker_busy_frac\":%.3f,\"e2e_p50_ms\":%.3f}",
                        w > 1 ? "," : "", w, s.sensors_per_core,
                        s.layers.at("rt.worker_skew"),
                        s.notes.count("columns_per_worker")
                            ? s.notes.at("columns_per_worker").c_str()
                            : "",
                        s.layers.at("rt.ring_wait_p50_us"),
                        s.layers.at("rt.ring_wait_p99_us"),
                        s.layers.at("rt.worker_busy_frac"), s.latency.p50);
          sweep += buf;
          std::printf("# sweep %s\n", buf + (w > 1 ? 1 : 0));
        }
        extra += ",\"worker_sweep\":" + sweep + "]";
      }
      std::ofstream rep(o.out_dir + "/layers_" + tag);
      rep << "{\"context\":" << context_json(o) << ",\"layers\":{";
      bool first = true;
      for (const auto& [name, unit] : layer_units()) {
        rep << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
            << num(r.layers.count(name) ? r.layers.at(name) : 0.0)
            << ",\"unit\":\"" << unit << "\"}";
        first = false;
      }
      rep << "}" << extra << ",\"run\":" << notes_json(r) << "}\n";
    }

    if (!r.broken_laws.empty()) {
      for (const std::string& law : r.broken_laws)
        std::fprintf(stderr, "wivi_perfbench: conservation law broken: %s\n",
                     law.c_str());
      return 3;
    }
    std::printf("# run %s\n", notes_json(r).c_str());

    std::vector<Metric> ms;
    if (!o.trace) {
      ms = {{"sensors_per_core", "sensors", r.sensors_per_core},
            {"e2e_p50_ms", "ms", r.latency.p50},
            {"e2e_p90_ms", "ms", r.latency.p90},
            {"ospa_deg", "deg", r.ospa_deg},
            {"setup_s", "s", setup.setup_s},
            {"peak_rss_mb", "MB", peak_rss_mb()}};
    } else {
      for (const auto& [name, unit] : layer_units())
        ms.push_back({name, unit, r.layers.count(name) ? r.layers.at(name) : 0.0});
    }
    const bool correct = r.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed()),
                metrics_json(ms).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wivi_perfbench: %s\n", e.what());
    return 1;
  }
}
