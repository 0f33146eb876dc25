// Self-tests of the benchmark's own code: percentile selection, failure
// counting, the metric lists, and the ground-state gate on a real (small)
// Lanczos solve fed a correct and a wrong reference energy.
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "fermion/hubbard.hpp"
#include "solver/lanczos.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s - %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // descending, so the functions must sort
}

}  // namespace

int run_selftest() {
  // Medians and nearest-rank percentiles.
  expect(median({3, 1, 2}) == 2.0, "median of an odd count");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even count");
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(percentile(iota(100), 90) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(iota(100), 100) == 100.0, "p100 is the maximum");
  expect(percentile(iota(10), 90) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(iota(7), 50) == 4.0, "p50 of 1..7 is 4");

  // Tail selection: the highest percentile with >= 10 samples beyond it.
  expect(samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  expect(samples_beyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  expect(tail_percentile(19) == 0.0, "19 samples support no tail");
  expect(tail_percentile(20) == 50.0, "20 samples support p50");
  expect(tail_percentile(99) == 75.0, "99 samples fall back to p75");
  expect(tail_percentile(100) == 90.0, "100 samples support p90");
  expect(tail_percentile(200) == 95.0, "200 samples support p95");
  expect(tail_percentile(1000) == 99.0, "1000 samples support p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples support p99.9");

  // Failure counting.
  Tally t;
  expect(t.failed_frac() == 0.0, "an empty tally has failed_frac 0");
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  expect(t.attempted == 4 && t.failed == 1 && t.failed_frac() == 0.25,
         "one failure in four operations is failed_frac 0.25");
  expect(!within(std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0),
         "a NaN never passes a tolerance gate");

  // The ground-state gate on a real solve (2x2 Hubbard, n = 8): the right
  // reference passes, a reference off by 1e-6 fails and raises
  // failed_frac.
  gecos::HubbardParams p;
  p.lx = 2;
  p.ly = 2;
  p.u = 4.0;
  p.spinful = true;
  const gecos::ScbSum h = gecos::hubbard_scb(p);
  gecos::LanczosOptions lo;
  lo.tol = 1e-10;
  gecos::Lanczos solver(h, lo);
  const gecos::LanczosResult& r = solver.solve();
  const double e0 = r.eigenvalues[0];
  Tally gate;
  gate.record(energy_gate(r.converged, e0, e0, 1e-10));
  expect(gate.failed_frac() == 0.0, "the right reference energy passes");
  gate.record(energy_gate(r.converged, e0, e0 + 1e-6, 1e-10));
  expect(gate.failed == 1 && gate.failed_frac() == 0.5,
         "a wrong reference energy raises failed_frac");
  expect(!energy_gate(false, e0, e0, 1e-10),
         "an unconverged solve fails the gate");

  // Metric lists: unique names, and the sink rejects unknown ones.
  std::set<std::string> names;
  std::size_t count = 0;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& d : *defs) {
      names.insert(d.name);
      ++count;
    }
  expect(names.size() == count, "metric names are unique");
  Values v;
  bool threw = false;
  try {
    v.set("no_such_metric", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "an unknown metric name is rejected");

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
