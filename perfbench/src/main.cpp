// gecos_perfbench: the repo's benchmark binary.
//
//   gecos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   gecos_perfbench --selftest        # statistics / gate self-tests
//   gecos_perfbench --list-metrics    # metric names and units as JSON
//
// Workloads: ground_full, sector_quench, trotter_quench, serve_mix (see
// perfbench/README.md). Stdout carries a context line, an inputs line, one
// "name = value unit" line per metric, and as its LAST line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes a
// trace-event JSON file for tools/trace_report.py). Run it from the
// repository root: traces and daemon state go to .bench_build/out.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/parallel.hpp"

namespace {

using namespace perfbench;

int usage(int code) {
  std::fprintf(stderr,
               "usage: gecos_perfbench --workload "
               "{ground_full|sector_quench|trotter_quench|serve_mix} "
               "--seed N --seconds S --trace {0|1}\n"
               "       gecos_perfbench --selftest | --list-metrics\n");
  return code;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || s[0] == '-') return false;
  out = v;
  return true;
}

void print_defs(const char* key, const std::vector<MetricDef>& defs,
                bool last) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", defs[i].name,
                defs[i].unit);
  std::printf("]%s", last ? "" : ", ");
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string s = "{";
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    s += (s.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (a == "--list-metrics") {
      std::printf("{");
      print_defs("end_to_end", end_to_end_metrics(), false);
      print_defs("per_layer", per_layer_metrics(), true);
      std::printf("}\n");
      return 0;
    }
    if (a == "--help" || a == "-h") return usage(0);
    if (i + 1 >= argc) {
      std::fprintf(stderr, "gecos_perfbench: %s needs a value\n", a.c_str());
      return usage(2);
    }
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      opt.workload = val;
    } else if (a == "--seed" && parse_u64(val, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(val, n) && n >= 1) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && (std::strcmp(val, "0") == 0 ||
                                  std::strcmp(val, "1") == 0)) {
      opt.trace = val[0] == '1';
      have_trace = true;
    } else {
      std::fprintf(stderr, "gecos_perfbench: bad argument %s %s\n", a.c_str(),
                   val);
      return usage(2);
    }
  }
  void (*run)(const Options&, RunResult&) = nullptr;
  if (opt.workload == "ground_full") run = run_ground_full;
  if (opt.workload == "sector_quench") run = run_sector_quench;
  if (opt.workload == "trotter_quench") run = run_trotter_quench;
  if (opt.workload == "serve_mix") run = run_serve_mix;
  if (run == nullptr || !have_seed || !have_seconds || !have_trace)
    return usage(2);

  // Everything runs with the pool at nproc threads.
  gecos::set_num_threads(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  std::filesystem::create_directories(opt.out_dir);
  std::printf("{\"context\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d}\n",
              context_json().c_str(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult res;
  const auto [steal0, all0] = host_steal_ticks();
  try {
    run(opt, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gecos_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  // Share of the host's CPU time stolen while this run was measured: a
  // run on contended CPUs is slower for reasons outside the program.
  const auto [steal1, all1] = host_steal_ticks();
  res.inputs["host_steal_frac"] =
      all1 > all0 ? (steal1 - steal0) / (all1 - all0) : 0.0;
  std::printf("{\"inputs\": %s}\n", json_map(res.inputs).c_str());
  if (opt.trace) {
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!Trace::write(path)) {
      std::fprintf(stderr, "gecos_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
  }

  const std::vector<MetricDef>& defs =
      opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  char buf[160];
  for (const MetricDef& d : defs) {
    double v = res.values.get(d.name);
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "gecos_perfbench: %s is not finite\n", d.name);
      v = 0.0;
      res.tally.record(false);
    }
    std::printf("%-28s = %.6g %s\n", d.name, v, d.unit);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  }
  const bool correct = res.tally.failed == 0 && res.tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.tally.attempted),
              static_cast<unsigned long long>(res.tally.failed),
              metrics.c_str());
  return 0;
}
