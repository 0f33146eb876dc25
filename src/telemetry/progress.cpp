#include "telemetry/progress.hpp"

#include <cmath>

namespace gecos::telemetry {

double eta_from_decay(double first_metric, double metric, double target,
                      double elapsed_s) {
  if (!(first_metric > 0.0) || !(metric > 0.0) || !(target > 0.0) ||
      !(elapsed_s > 0.0))
    return -1.0;
  if (metric <= target) return 0.0;
  const double decay = std::log(first_metric / metric);
  if (!(decay > 0.0)) return -1.0;  // not converging (yet)
  return elapsed_s * std::log(metric / target) / decay;
}

}  // namespace gecos::telemetry
