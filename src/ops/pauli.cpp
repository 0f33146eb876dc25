#include "ops/pauli.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace gecos {

namespace {

// Single-qubit Pauli product table: a*b = phase * c over indices I=0,X=1,Y=2,Z=3.
struct PauliProd {
  cplx phase;
  int result;
};

PauliProd pauli1_mul(int a, int b) {
  static const cplx i(0.0, 1.0);
  if (a == 0) return {1.0, b};
  if (b == 0) return {1.0, a};
  if (a == b) return {1.0, 0};
  // XY=iZ, YZ=iX, ZX=iY and antisymmetric partners.
  if (a == 1 && b == 2) return {i, 3};
  if (a == 2 && b == 1) return {-i, 3};
  if (a == 2 && b == 3) return {i, 1};
  if (a == 3 && b == 2) return {-i, 1};
  if (a == 3 && b == 1) return {i, 2};
  if (a == 1 && b == 3) return {-i, 2};
  throw std::logic_error("pauli1_mul");
}

int pauli_index(Scb s) {
  switch (s) {
    case Scb::I: return 0;
    case Scb::X: return 1;
    case Scb::Y: return 2;
    case Scb::Z: return 3;
    default:
      throw std::invalid_argument("PauliString may only contain I/X/Y/Z");
  }
}

Scb pauli_from_index(int i) {
  static const std::array<Scb, 4> t = {Scb::I, Scb::X, Scb::Y, Scb::Z};
  return t[static_cast<std::size_t>(i)];
}

bool key_equal(const std::uint64_t* slot, const std::uint64_t* x,
               const std::uint64_t* z, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i)
    if (slot[i] != x[i]) return false;
  for (std::size_t i = 0; i < words; ++i)
    if (slot[words + i] != z[i]) return false;
  return true;
}

std::size_t next_pow2(std::size_t v) {
  return std::max<std::size_t>(16, std::bit_ceil(v));
}

}  // namespace

PauliString::PauliString(std::vector<Scb> paulis) : ops_(std::move(paulis)) {
  for (Scb s : ops_) (void)pauli_index(s);  // validate
}

PauliString PauliString::parse(const std::string& text) {
  std::vector<Scb> ops;
  ops.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case 'I': ops.push_back(Scb::I); break;
      case 'X': ops.push_back(Scb::X); break;
      case 'Y': ops.push_back(Scb::Y); break;
      case 'Z': ops.push_back(Scb::Z); break;
      default:
        throw std::invalid_argument("PauliString::parse: bad char");
    }
  }
  return PauliString(std::move(ops));
}

bool PauliString::is_identity() const {
  for (Scb s : ops_)
    if (s != Scb::I) return false;
  return true;
}

int PauliString::weight() const {
  int w = 0;
  for (Scb s : ops_) w += (s != Scb::I);
  return w;
}

std::string PauliString::str() const {
  std::string s;
  s.reserve(ops_.size());
  for (Scb o : ops_) s += scb_name(o);
  return s;
}

Matrix PauliString::to_matrix() const {
  // Qubit 0 is the least significant bit: matrix = op[n-1] (x) ... (x) op[0].
  Matrix m = Matrix::identity(1);
  for (std::size_t q = ops_.size(); q-- > 0;) m = m.kron(scb_matrix(ops_[q]));
  return m;
}

std::pair<cplx, PauliString> PauliString::multiply(const PauliString& a,
                                                   const PauliString& b) {
  assert(a.num_qubits() == b.num_qubits());
  cplx phase = 1.0;
  std::vector<Scb> out(a.num_qubits());
  for (std::size_t q = 0; q < a.num_qubits(); ++q) {
    const PauliProd p = pauli1_mul(pauli_index(a.op(q)), pauli_index(b.op(q)));
    phase *= p.phase;
    out[q] = pauli_from_index(p.result);
  }
  return {phase, PauliString(std::move(out))};
}

bool PauliString::commutes_with(const PauliString& o) const {
  assert(num_qubits() == o.num_qubits());
  int anti = 0;
  for (std::size_t q = 0; q < ops_.size(); ++q) {
    const int a = pauli_index(ops_[q]);
    const int b = pauli_index(o.op(q));
    if (a != 0 && b != 0 && a != b) ++anti;
  }
  return anti % 2 == 0;
}

// -- PauliSum ----------------------------------------------------------------

void PauliSum::ensure_qubits(std::size_t n) {
  if (num_qubits_ == 0) {
    // A zero-qubit sum may already hold the scalar term (stride-0 keys);
    // adopting a different qubit count then is the same mixed-count error as
    // below, not a license to drop it.
    if (n != 0 && occupied_ != 0)
      throw std::invalid_argument("PauliSum: mixed qubit counts");
    num_qubits_ = n;
    words_ = packed_words(n);
    if (cap_ != 0) {
      // A table reserved before adoption was laid out with stride 0 and is
      // empty; discard it so the next add sizes it correctly.
      cap_ = occupied_ = live_ = 0;
      keys_.clear();
      coeffs_.clear();
      state_.clear();
    }
    return;
  }
  // A real check, not an assert: with mismatched word counts the raw-key
  // paths below would read out of bounds in Release builds.
  if (n != num_qubits_)
    throw std::invalid_argument("PauliSum: mixed qubit counts");
}

void PauliSum::grow(std::size_t min_live_capacity) {
  const std::size_t new_cap = next_pow2(min_live_capacity * 2);
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<cplx> old_coeffs = std::move(coeffs_);
  std::vector<std::uint8_t> old_state = std::move(state_);
  const std::size_t old_cap = cap_;
  const std::size_t stride = 2 * words_;

  cap_ = new_cap;
  keys_.assign(cap_ * stride, 0);
  coeffs_.assign(cap_, cplx(0.0));
  state_.assign(cap_, kEmpty);
  occupied_ = live_;  // dead slots are dropped by the rehash

  const std::size_t mask = cap_ - 1;
  for (std::size_t i = 0; i < old_cap; ++i) {
    if (old_state[i] != kLive) continue;
    const std::uint64_t* key = old_keys.data() + i * stride;
    std::size_t idx = packed_hash_xz(key, key + words_, words_) & mask;
    std::size_t step = 0;
    while (state_[idx] != kEmpty) idx = (idx + ++step) & mask;
    std::memcpy(keys_.data() + idx * stride, key, stride * sizeof(std::uint64_t));
    coeffs_[idx] = old_coeffs[i];
    state_[idx] = kLive;
  }
}

void PauliSum::reserve(std::size_t n) {
  if (next_pow2(n * 2) > cap_) grow(n);
}

void PauliSum::add_raw(const std::uint64_t* x, const std::uint64_t* z,
                       cplx coeff, double tol) {
  // Keep occupancy (live + dead) below 5/8 so quadratic probes stay short.
  if (cap_ == 0 || (occupied_ + 1) * 8 > cap_ * 5) grow(occupied_ + 1);
  const std::size_t stride = 2 * words_;
  const std::size_t mask = cap_ - 1;
  std::size_t idx = packed_hash_xz(x, z, words_) & mask;
  std::size_t step = 0;
  while (true) {
    if (state_[idx] == kEmpty) {
      if (std::abs(coeff) <= tol) return;
      // A zero-qubit sum has no key storage: keys_.data() may be null, and
      // memcpy to a null pointer is undefined even for zero bytes.
      if (words_ != 0) {
        std::uint64_t* slot = keys_.data() + idx * stride;
        std::memcpy(slot, x, words_ * sizeof(std::uint64_t));
        std::memcpy(slot + words_, z, words_ * sizeof(std::uint64_t));
      }
      coeffs_[idx] = coeff;
      state_[idx] = kLive;
      ++occupied_;
      ++live_;
      return;
    }
    if (key_equal(keys_.data() + idx * stride, x, z, words_)) {
      cplx c = coeffs_[idx] + coeff;
      if (std::abs(c) <= tol) {
        // Mirror the legacy map erase: the residual below tol is discarded.
        if (state_[idx] == kLive) --live_;
        coeffs_[idx] = cplx(0.0);
        state_[idx] = kDead;
      } else {
        if (state_[idx] == kDead) ++live_;
        coeffs_[idx] = c;
        state_[idx] = kLive;
      }
      return;
    }
    idx = (idx + ++step) & mask;
  }
}

void PauliSum::add(const PackedPauli& p, cplx coeff, double tol) {
  ensure_qubits(p.num_qubits());
  add_raw(p.x_words(), p.z_words(), coeff, tol);
}

void PauliSum::add(const PauliString& s, cplx coeff, double tol) {
  add(PackedPauli::from_string(s), coeff, tol);
}

void PauliSum::add(const PauliSum& other) {
  if (other.empty()) return;
  if (&other == this) {
    // add_raw may rehash mid-iteration; doubling must walk a snapshot.
    const PauliSum copy = other;
    add(copy);
    return;
  }
  ensure_qubits(other.num_qubits());
  other.for_each_raw(
      [&](const std::uint64_t* x, const std::uint64_t* z, cplx c) {
        add_raw(x, z, c);
      });
}

cplx PauliSum::coeff_of(const PackedPauli& p) const {
  if (cap_ == 0 || p.num_qubits() != num_qubits_) return cplx(0.0);
  const std::size_t stride = 2 * words_;
  const std::size_t mask = cap_ - 1;
  std::size_t idx = packed_hash_xz(p.x_words(), p.z_words(), words_) & mask;
  std::size_t step = 0;
  while (state_[idx] != kEmpty) {
    if (key_equal(keys_.data() + idx * stride, p.x_words(), p.z_words(),
                  words_))
      return state_[idx] == kLive ? coeffs_[idx] : cplx(0.0);
    idx = (idx + ++step) & mask;
  }
  return cplx(0.0);
}

cplx PauliSum::coeff_of(const PauliString& s) const {
  return coeff_of(PackedPauli::from_string(s));
}

std::vector<std::pair<PauliString, cplx>> PauliSum::sorted_terms() const {
  std::vector<std::pair<PauliString, cplx>> out;
  out.reserve(live_);
  for_each_raw([&](const std::uint64_t* x, const std::uint64_t* z, cplx c) {
    out.emplace_back(PackedPauli(num_qubits_, x, z).to_pauli_string(), c);
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

PauliSum PauliSum::operator*(cplx s) const {
  PauliSum r(num_qubits_);
  r.reserve(live_);
  for_each_raw([&](const std::uint64_t* x, const std::uint64_t* z, cplx c) {
    r.add_raw(x, z, c * s);
  });
  return r;
}

PauliSum PauliSum::operator+(const PauliSum& o) const {
  PauliSum r = *this;
  r.add(o);
  return r;
}

PauliSum PauliSum::operator*(const PauliSum& o) const {
  if (!empty() && !o.empty() && num_qubits_ != o.num_qubits_)
    throw std::invalid_argument("PauliSum::operator*: mixed qubit counts");
  PauliSum r(num_qubits_ ? num_qubits_ : o.num_qubits_);
  r.reserve(std::max(live_, o.live_));
  std::vector<std::uint64_t> prod(2 * words_);
  for_each_raw([&](const std::uint64_t* ax, const std::uint64_t* az, cplx ca) {
    o.for_each_raw(
        [&](const std::uint64_t* bx, const std::uint64_t* bz, cplx cb) {
          for (std::size_t i = 0; i < words_; ++i) {
            prod[i] = ax[i] ^ bx[i];
            prod[words_ + i] = az[i] ^ bz[i];
          }
          const int g = packed_mul_phase(ax, az, bx, bz, words_);
          r.add_raw(prod.data(), prod.data() + words_,
                    ca * cb * packed_phase(g));
        });
  });
  return r;
}

Matrix PauliSum::to_matrix(std::size_t num_qubits) const {
  if (!empty() && num_qubits != num_qubits_)
    throw std::invalid_argument("PauliSum::to_matrix: qubit count mismatch");
  const std::size_t dim = std::size_t{1} << num_qubits;
  Matrix m(dim, dim);
  for_each_raw([&](const std::uint64_t* x, const std::uint64_t* z, cplx c) {
    m += PackedPauli(num_qubits_, x, z).to_matrix() * c;
  });
  return m;
}

bool PauliSum::is_hermitian(double tol) const {
  bool herm = true;
  for_each_raw([&](const std::uint64_t*, const std::uint64_t*, cplx c) {
    if (std::abs(c.imag()) > tol) herm = false;
  });
  return herm;
}

double PauliSum::one_norm() const {
  double s = 0;
  for_each_raw([&](const std::uint64_t*, const std::uint64_t*, cplx c) {
    s += std::abs(c);
  });
  return s;
}

void PauliSum::prune(double tol) {
  for (std::size_t i = 0; i < cap_; ++i) {
    if (state_[i] == kLive && std::abs(coeffs_[i]) <= tol) {
      coeffs_[i] = cplx(0.0);
      state_[i] = kDead;
      --live_;
    }
  }
  if (cap_ != 0 && occupied_ != live_) grow(live_);  // compact dead slots
}

void PauliSum::apply_add(std::span<const cplx> x, std::span<cplx> y,
                         cplx scale) const {
  if (empty()) return;  // the zero operator: y += 0 * x for any dimension
  if (num_qubits_ > 63)
    throw std::invalid_argument("PauliSum::apply_add: masks need one word");
  if (x.size() != y.size() || x.size() != (std::size_t{1} << num_qubits_))
    throw std::invalid_argument(
        "PauliSum::apply_add: statevector size mismatch");
  assert(x.data() != y.data() && "PauliSum::apply_add: x, y must not alias");
  if (telemetry::metrics_enabled()) {
    // Every live term streams the full statevector once: dim outputs
    // updated per term at 48 B each (x gather + y read-modify-write).
    const std::uint64_t d = x.size();
    telemetry::count(telemetry::Counter::kernel_sweeps, live_);
    telemetry::count(telemetry::Counter::amplitudes_touched, d);
    telemetry::count(telemetry::Counter::bytes_moved, live_ * d * 48);
  }
  // Partition the *output* index o = s ^ xm across threads: each thread owns
  // a contiguous y range, loops every live term per range and gathers from
  // x[o ^ xm], so no two threads ever write the same amplitude and the whole
  // call is one parallel region with zero scratch.
  parallel_for(x.size(), [&](std::size_t o0, std::size_t o1, int) {
    for_each_raw(
        [&](const std::uint64_t* xw, const std::uint64_t* zw, cplx c) {
          const std::uint64_t xm = words_ ? xw[0] : 0;
          const std::uint64_t zm = words_ ? zw[0] : 0;
          // W(x,z)|s> = i^{pc(x&z)} (-1)^{pc(z&s)} |s^x>.
          const cplx base =
              c * scale * packed_phase(std::popcount(xm & zm) & 3);
          for (std::uint64_t o = o0; o < o1; ++o) {
            const std::uint64_t s = o ^ xm;
            const cplx amp = (std::popcount(zm & s) & 1) ? -base : base;
            y[o] += amp * x[s];
          }
        });
  });
}

std::string PauliSum::str() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [s, c] : sorted_terms()) {
    if (!first) os << " + ";
    first = false;
    os << "(" << c.real();
    if (c.imag() != 0.0) os << (c.imag() > 0 ? "+" : "") << c.imag() << "i";
    os << ")*" << s.str();
  }
  return os.str();
}

cplx pauli_coefficient(const PauliString& p, const Matrix& m) {
  const Matrix pm = p.to_matrix();
  assert(pm.rows() == m.rows());
  cplx tr = 0;
  // Tr[P M] = sum_ij P(i,j) M(j,i); P is sparse (one entry per row).
  for (std::size_t i = 0; i < pm.rows(); ++i)
    for (std::size_t j = 0; j < pm.cols(); ++j)
      if (pm(i, j) != cplx(0.0)) tr += pm(i, j) * m(j, i);
  return tr / cplx(static_cast<double>(m.rows()));
}

PauliSum pauli_decompose(const Matrix& m, std::size_t num_qubits, double tol) {
  assert(m.rows() == (std::size_t{1} << num_qubits));
  PauliSum sum(num_qubits);
  std::vector<Scb> word(num_qubits, Scb::I);
  // Enumerate all 4^n words by counting in base 4.
  const std::size_t total = std::size_t{1} << (2 * num_qubits);
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t c = code;
    for (std::size_t q = 0; q < num_qubits; ++q) {
      static const std::array<Scb, 4> t = {Scb::I, Scb::X, Scb::Y, Scb::Z};
      word[q] = t[c & 3];
      c >>= 2;
    }
    PauliString ps(word);
    const cplx coeff = pauli_coefficient(ps, m);
    if (std::abs(coeff) > tol) sum.add(ps, coeff);
  }
  return sum;
}

}  // namespace gecos
