#include "evolve/evolver.hpp"

#include <stdexcept>

namespace gecos {

void Evolver::evolve(std::span<cplx> x, double t, int steps) const {
  if (steps < 1)
    throw std::invalid_argument("Evolver::evolve: steps must be >= 1");
  const double dt = t / steps;
  for (int i = 0; i < steps; ++i) step(x, dt);
}

}  // namespace gecos
