#include "ops/term.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "simd/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"

namespace gecos {

namespace {

/// Runs shorter than 2^3 complex amplitudes are not worth the wide-kernel
/// call; the scalar walk handles them.
constexpr int kMinRunBits = 3;

}  // namespace

ScbTerm::ScbTerm(cplx coeff, std::vector<Scb> ops, bool add_hc)
    : coeff_(coeff), ops_(std::move(ops)), add_hc_(add_hc) {
  if (ops_.empty()) throw std::invalid_argument("ScbTerm: empty operator list");
  if (ops_.size() > 63)
    throw std::invalid_argument("ScbTerm: more than 63 qubits unsupported");
}

ScbTerm ScbTerm::parse(const std::string& text, cplx coeff, bool add_hc) {
  std::istringstream is(text);
  std::vector<Scb> ops;
  std::string tok;
  while (is >> tok) ops.push_back(scb_from_name(tok));
  return ScbTerm(coeff, std::move(ops), add_hc);
}

ScbTerm ScbTerm::adjoint() const {
  std::vector<Scb> adj(ops_.size());
  for (std::size_t q = 0; q < ops_.size(); ++q) adj[q] = scb_adjoint(ops_[q]);
  return ScbTerm(std::conj(coeff_), std::move(adj), false);
}

bool ScbTerm::bare_is_hermitian() const {
  for (Scb s : ops_)
    if (!scb_is_hermitian(s)) return false;
  return true;
}

bool ScbTerm::is_valid_hamiltonian(double tol) const {
  if (add_hc_) {
    // coeff*A + conj(coeff)*A† is Hermitian for any A. The only failure mode
    // is a *diagonal* complex coefficient: if A is Hermitian the sum is
    // 2*Re(coeff)*A, fine; but callers usually mean a complex amplitude, so we
    // still accept it (the imaginary part simply cancels).
    return true;
  }
  // Without h.c. the bare product must be Hermitian with a real coefficient.
  return bare_is_hermitian() && std::abs(coeff_.imag()) <= tol;
}

Matrix ScbTerm::bare_matrix() const {
  Matrix m = Matrix::identity(1);
  for (std::size_t q = ops_.size(); q-- > 0;) m = m.kron(scb_matrix(ops_[q]));
  return m * coeff_;
}

Matrix ScbTerm::hamiltonian_matrix() const {
  Matrix m = bare_matrix();
  if (add_hc_) m += m.dagger();
  return m;
}

std::vector<int> ScbTerm::transition_qubits() const {
  std::vector<int> r;
  for (std::size_t q = 0; q < ops_.size(); ++q)
    if (scb_is_transition(ops_[q])) r.push_back(static_cast<int>(q));
  return r;
}

std::vector<int> ScbTerm::control_qubits() const {
  std::vector<int> r;
  for (std::size_t q = 0; q < ops_.size(); ++q)
    if (scb_is_projector(ops_[q])) r.push_back(static_cast<int>(q));
  return r;
}

std::vector<int> ScbTerm::pauli_qubits() const {
  std::vector<int> r;
  for (std::size_t q = 0; q < ops_.size(); ++q)
    if (scb_is_pauli(ops_[q])) r.push_back(static_cast<int>(q));
  return r;
}

std::uint64_t ScbTerm::flip_mask() const {
  std::uint64_t m = 0;
  for (std::size_t q = 0; q < ops_.size(); ++q)
    if (scb_is_offdiagonal(ops_[q])) m |= std::uint64_t{1} << q;
  return m;
}

std::uint64_t ScbTerm::transition_mask() const {
  std::uint64_t m = 0;
  for (std::size_t q = 0; q < ops_.size(); ++q)
    if (scb_is_transition(ops_[q])) m |= std::uint64_t{1} << q;
  return m;
}

std::uint64_t ScbTerm::transition_a_bits() const {
  std::uint64_t m = 0;
  for (std::size_t q = 0; q < ops_.size(); ++q)
    if (ops_[q] == Scb::Sp) m |= std::uint64_t{1} << q;
  return m;
}

std::pair<std::uint64_t, std::uint64_t> ScbTerm::control_key() const {
  std::uint64_t mask = 0, val = 0;
  for (std::size_t q = 0; q < ops_.size(); ++q) {
    if (ops_[q] == Scb::N) {
      mask |= std::uint64_t{1} << q;
      val |= std::uint64_t{1} << q;
    } else if (ops_[q] == Scb::M) {
      mask |= std::uint64_t{1} << q;
    }
  }
  return {mask, val};
}

cplx ScbTerm::bare_amplitude(std::uint64_t x) const {
  const std::uint64_t y = x ^ flip_mask();
  cplx amp = coeff_;
  for (std::size_t q = 0; q < ops_.size(); ++q) {
    const int xq = static_cast<int>((x >> q) & 1);
    const int yq = static_cast<int>((y >> q) & 1);
    amp *= scb_entry(ops_[q], yq, xq);
    if (amp == cplx(0.0)) return amp;
  }
  return amp;
}

std::string ScbTerm::str() const {
  std::ostringstream os;
  os << "(" << coeff_.real();
  if (coeff_.imag() != 0.0)
    os << (coeff_.imag() > 0 ? "+" : "") << coeff_.imag() << "i";
  os << ") ";
  for (std::size_t q = 0; q < ops_.size(); ++q) {
    if (q) os << " ";
    os << scb_name(ops_[q]);
  }
  if (add_hc_) os << " + h.c.";
  return os.str();
}

TermKernel::TermKernel(const ScbTerm& term)
    : base(term.coeff()), num_qubits(term.num_qubits()) {
  const cplx i(0.0, 1.0);
  for (std::size_t q = 0; q < term.num_qubits(); ++q) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    switch (term.op(q)) {
      case Scb::I: break;
      case Scb::X: flip |= bit; break;
      case Scb::Y:  // <y|Y|x> = i * (-1)^{x_q}
        flip |= bit;
        sign_mask |= bit;
        base *= i;
        break;
      case Scb::Z: sign_mask |= bit; break;
      case Scb::N: select_mask |= bit; select_val |= bit; break;
      case Scb::M: select_mask |= bit; break;
      case Scb::Sm:  // |0><1|: input bit must be 1
        flip |= bit;
        select_mask |= bit;
        select_val |= bit;
        break;
      case Scb::Sp:  // |1><0|: input bit must be 0
        flip |= bit;
        select_mask |= bit;
        break;
    }
  }
}

void TermKernel::apply_add(std::span<const cplx> x, std::span<cplx> y,
                           cplx scale) const {
  assert(x.size() == y.size());
  assert(std::has_single_bit(x.size()));
  assert(x.data() != y.data() && "TermKernel: x and y must not alias");
  // Walk only the selected states: s = sub | select_val with sub ranging over
  // subsets of the unconstrained bits (the standard (sub - free) & free trick
  // enumerates them in ascending order). Chunks seed their local walk with
  // scatter_bits; within one term s -> s ^ flip is a bijection, so chunks of
  // distinct s never write the same y amplitude and the loop is race-free.
  const std::uint64_t free_mask = (x.size() - 1) & ~select_mask;
  if ((select_val & ~(x.size() - 1)) != 0) return;  // selection out of range
  const cplx b = base * scale;
  if (telemetry::metrics_enabled()) {
    // One sweep over the selected states; 48 B per touched amplitude (16 B
    // x gather + 32 B y read-modify-write) — the bench traffic model.
    const std::uint64_t touched = std::uint64_t{1}
                                  << std::popcount(free_mask);
    telemetry::count(telemetry::Counter::kernel_sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, touched);
    telemetry::count(telemetry::Counter::bytes_moved, touched * 48);
  }

  // Contiguous-run split: low free bits outside sign_mask and flip index
  // runs of 2^r adjacent states with constant sign, constant amplitude and
  // adjacent targets (s ^ flip preserves the run bits), so each run is one
  // wide axpy y[s^flip ..] += amp * x[s ..]. The outer walk enumerates the
  // remaining free bits exactly like the scalar path; race-freedom is
  // unchanged (s -> s ^ flip is still a bijection, runs partition states).
  const std::uint64_t run_mask =
      trailing_run_mask(free_mask & ~sign_mask & ~flip);
  const int run_bits = std::popcount(run_mask);
  if (run_bits >= kMinRunBits) {
    const std::size_t run = std::size_t{1} << run_bits;
    const std::uint64_t outer_mask = free_mask & ~run_mask;
    const std::size_t count = std::size_t{1} << std::popcount(outer_mask);
    const simd::Kernels& kn = simd::active();
    parallel_for(
        count,
        [&](std::size_t i0, std::size_t i1, int) {
          std::uint64_t sub = scatter_bits(i0, outer_mask);
          for (std::size_t i = i0; i < i1; ++i) {
            const std::uint64_t s = sub | select_val;
            const cplx amp = (std::popcount(sign_mask & s) & 1) ? -b : b;
            kn.axpy(y.data() + (s ^ flip), x.data() + s, run, amp);
            sub = (sub - outer_mask) & outer_mask;
          }
        },
        std::max<std::size_t>(1, kParallelGrain >> run_bits));
    return;
  }

  const std::size_t count = std::size_t{1}
                            << std::popcount(free_mask);
  parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
    std::uint64_t sub = scatter_bits(i0, free_mask);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::uint64_t s = sub | select_val;
      const cplx amp = (std::popcount(sign_mask & s) & 1) ? -b : b;
      y[s ^ flip] += amp * x[s];
      sub = (sub - free_mask) & free_mask;
    }
  });
}

void ScbTerm::apply_add(std::span<const cplx> x, std::span<cplx> y) const {
  TermKernel(*this).apply_add(x, y);
  if (add_hc_) TermKernel(adjoint()).apply_add(x, y);
}

Matrix terms_matrix(const std::vector<ScbTerm>& terms, std::size_t num_qubits) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  Matrix m(dim, dim);
  for (const ScbTerm& t : terms) {
    assert(t.num_qubits() == num_qubits);
    m += t.hamiltonian_matrix();
  }
  return m;
}

void apply_terms(const std::vector<ScbTerm>& terms, std::span<const cplx> x,
                 std::span<cplx> y) {
  assert(x.size() == y.size());
  assert(x.data() != y.data() && "apply_terms: x and y must not alias");
  for (const ScbTerm& t : terms) t.apply_add(x, y);
}

double terms_one_norm_bound(const std::vector<ScbTerm>& terms) {
  double s = 0;
  for (const ScbTerm& t : terms) s += std::abs(t.coeff()) * (t.add_hc() ? 2 : 1);
  return s;
}

}  // namespace gecos
