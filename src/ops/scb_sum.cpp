#include "ops/scb_sum.hpp"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ops/conversion.hpp"
#include "telemetry/telemetry.hpp"

namespace gecos {

ScbSum::ScbSum() : kcache_(std::make_shared<ScbKernelCache>()) {}

ScbSum::ScbSum(std::size_t num_qubits)
    : num_qubits_(num_qubits), kcache_(std::make_shared<ScbKernelCache>()) {}

ScbSum::ScbSum(const ScbSum& o) : num_qubits_(o.num_qubits_), terms_(o.terms_) {
  // Share o's cache: the copy has identical terms, so one compilation
  // serves both. A moved-from o has no cache; give the copy a fresh one.
  kcache_ = o.kcache_ != nullptr ? o.kcache_
                                 : std::make_shared<ScbKernelCache>();
}

ScbSum& ScbSum::operator=(const ScbSum& o) {
  if (this == &o) return *this;
  num_qubits_ = o.num_qubits_;
  terms_ = o.terms_;
  kcache_ = o.kcache_ != nullptr ? o.kcache_
                                 : std::make_shared<ScbKernelCache>();
  return *this;
}

ScbSum::ScbSum(ScbSum&& o) noexcept
    : num_qubits_(o.num_qubits_),
      terms_(std::move(o.terms_)),
      kcache_(std::move(o.kcache_)) {}

ScbSum& ScbSum::operator=(ScbSum&& o) noexcept {
  num_qubits_ = o.num_qubits_;
  terms_ = std::move(o.terms_);
  kcache_ = std::move(o.kcache_);
  return *this;
}

void ScbSum::ensure_qubits(std::size_t n) {
  if (num_qubits_ == 0) num_qubits_ = n;
  if (num_qubits_ != n)
    throw std::invalid_argument("ScbSum: mixed qubit counts");
}

void ScbSum::invalidate_kernels() {
  // Mutation is exclusive by contract, so reseating kcache_ here cannot
  // race with this sum's own const applications. Sole owner: mark dirty in
  // place (still under the cache mutex — another sum may have shared it a
  // moment ago on a different thread). Shared: detach onto a fresh cache
  // so the other owners keep a valid compilation of THEIR terms.
  if (kcache_ != nullptr && kcache_.use_count() == 1) {
    std::scoped_lock<std::mutex> lk(kcache_->mutex);
    kcache_->dirty = true;
    kcache_->kernels.clear();
  } else {
    kcache_ = std::make_shared<ScbKernelCache>();
  }
}

ScbKernelCache& ScbSum::ensure_cache() const {
  // Null only after a move stole the cache; the lazy recreation here is
  // NOT safe against two threads' concurrent first application of a
  // moved-from sum — but using a moved-from object concurrently without
  // first reassigning it is already out of contract.
  if (kcache_ == nullptr) kcache_ = std::make_shared<ScbKernelCache>();
  return *kcache_;
}

void ScbSum::add(const std::vector<Scb>& word, cplx coeff, double tol) {
  if (word.empty()) throw std::invalid_argument("ScbSum: empty word");
  ensure_qubits(word.size());
  invalidate_kernels();
  auto it = terms_.find(word);
  if (it == terms_.end()) {
    if (std::abs(coeff) > tol) terms_.emplace(word, coeff);
    return;
  }
  it->second += coeff;
  if (std::abs(it->second) <= tol) terms_.erase(it);
}

void ScbSum::add(const ScbTerm& term, double tol) {
  add(term.ops(), term.coeff(), tol);
  if (term.add_hc()) {
    const ScbTerm adj = term.adjoint();
    add(adj.ops(), adj.coeff(), tol);
  }
}

void ScbSum::add(const ScbSum& o, double tol) {
  for (const auto& [word, c] : o.terms_) add(word, c, tol);
}

cplx ScbSum::coeff_of(const std::vector<Scb>& word) const {
  auto it = terms_.find(word);
  return it == terms_.end() ? cplx(0.0) : it->second;
}

ScbSum ScbSum::operator+(const ScbSum& o) const {
  ScbSum r = *this;
  r.add(o);
  return r;
}

ScbSum ScbSum::operator-(const ScbSum& o) const {
  ScbSum r = *this;
  for (const auto& [word, c] : o.terms_) r.add(word, -c);
  return r;
}

ScbSum ScbSum::operator*(cplx s) const {
  ScbSum r(num_qubits_);  // fresh sum starts with a fresh dirty cache
  if (s == cplx(0.0)) return r;
  r.terms_ = terms_;
  for (auto& [word, c] : r.terms_) c *= s;
  return r;
}

ScbSum ScbSum::operator*(const ScbSum& o) const {
  if (num_qubits_ != o.num_qubits_ && !terms_.empty() && !o.terms_.empty())
    throw std::invalid_argument("ScbSum: product with mixed qubit counts");
  ScbSum r(num_qubits_ ? num_qubits_ : o.num_qubits_);
  std::vector<Scb> word(r.num_qubits());
  for (const auto& [aw, ac] : terms_) {
    for (const auto& [bw, bc] : o.terms_) {
      cplx coeff = ac * bc;
      bool zero = false;
      for (std::size_t q = 0; q < word.size() && !zero; ++q) {
        const ScaledScb p = scb_mul(aw[q], bw[q]);
        if (p.coeff == cplx(0.0)) zero = true;
        coeff *= p.coeff;
        word[q] = p.op;
      }
      if (!zero) r.add(word, coeff);
    }
  }
  return r;
}

ScbSum ScbSum::adjoint() const {
  ScbSum r(num_qubits_);
  std::vector<Scb> adj(num_qubits_);
  for (const auto& [word, c] : terms_) {
    for (std::size_t q = 0; q < word.size(); ++q) adj[q] = scb_adjoint(word[q]);
    r.add(adj, std::conj(c));
  }
  return r;
}

ScbSum ScbSum::commutator(const ScbSum& o) const {
  return *this * o - o * *this;
}

bool ScbSum::is_hermitian(double tol) const {
  std::vector<Scb> adj(num_qubits_);
  for (const auto& [word, c] : terms_) {
    for (std::size_t q = 0; q < word.size(); ++q) adj[q] = scb_adjoint(word[q]);
    if (std::abs(coeff_of(adj) - std::conj(c)) > tol) return false;
  }
  return true;
}

double ScbSum::one_norm() const {
  double s = 0;
  for (const auto& [word, c] : terms_) s += std::abs(c);
  return s;
}

void ScbSum::prune(double tol) {
  invalidate_kernels();
  for (auto it = terms_.begin(); it != terms_.end();)
    it = std::abs(it->second) <= tol ? terms_.erase(it) : std::next(it);
}

std::vector<ScbTerm> ScbSum::bare_terms() const {
  std::vector<ScbTerm> out;
  out.reserve(terms_.size());
  for (const auto& [word, c] : terms_) out.emplace_back(c, word, false);
  return out;
}

std::vector<ScbTerm> ScbSum::hermitian_terms(double tol) const {
  return gather_hermitian(bare_terms(), tol);
}

PauliSum ScbSum::to_pauli() const {
  return terms_to_pauli(bare_terms());
}

Matrix ScbSum::to_matrix() const {
  const std::size_t dim = std::size_t{1} << num_qubits_;
  Matrix m(dim, dim);
  for (const auto& [word, c] : terms_) m += ScbTerm(c, word, false).bare_matrix();
  return m;
}

void ScbSum::apply_add(std::span<const cplx> x, std::span<cplx> y,
                       cplx scale) const {
  assert(x.data() != y.data() && "ScbSum::apply_add: x, y must not alias");
  ScbKernelCache& cache = ensure_cache();
  {
    // Guarded rebuild: several threads may share this sum const-ly (e.g.
    // expectation values from a measurement pool); only one rebuilds.
    std::scoped_lock<std::mutex> lk(cache.mutex);
    if (cache.dirty) {
      cache.kernels.clear();
      cache.kernels.reserve(terms_.size());
      for (const auto& [word, c] : terms_)
        cache.kernels.emplace_back(ScbTerm(c, word, false));
      cache.dirty = false;
      telemetry::count(telemetry::Counter::kernel_compiles, terms_.size());
    }
  }
  for (const TermKernel& k : cache.kernels) k.apply_add(x, y, scale);
}

std::string ScbSum::str() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [word, c] : terms_) {
    if (!first) os << " + ";
    first = false;
    os << ScbTerm(c, word, false).str();
  }
  if (first) os << "0";
  return os.str();
}

ScbSum operator*(cplx s, const ScbSum& m) { return m * s; }

}  // namespace gecos
