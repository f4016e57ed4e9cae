#include "symbolic/fourier_motzkin.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "symbolic/fourier_motzkin_detail.hpp"

namespace systolize {
namespace {

// Internal form: e >= 0 (strict=false) or e > 0 (strict=true). Fourier-
// Motzkin with strictness tracking is exact over the rationals.
struct Ineq {
  AffineExpr expr;
  bool strict = false;
};

std::vector<Ineq> gather(const Guard& guard, const Guard& assumptions) {
  std::vector<Ineq> sys;
  for (const Constraint& c : guard.constraints()) {
    sys.push_back({c.slack(), false});
  }
  for (const Constraint& c : assumptions.constraints()) {
    sys.push_back({c.slack(), false});
  }
  return sys;
}

/// Eliminate every symbol, then inspect the remaining constant
/// inequalities.
bool feasible(std::vector<Ineq> sys) {
  for (;;) {
    // Pick any symbol still occurring.
    const Symbol* var = nullptr;
    for (const Ineq& iq : sys) {
      if (!iq.expr.terms().empty()) {
        var = &iq.expr.terms().begin()->first;
        break;
      }
    }
    if (var == nullptr) break;
    Symbol v = *var;

    std::vector<Ineq> lowers;  // coeff > 0:  v >= -rest/coeff (or >)
    std::vector<Ineq> uppers;  // coeff < 0:  v <= ...
    std::vector<Ineq> rest;
    for (Ineq& iq : sys) {
      Rational c = iq.expr.coeff(v);
      if (c.is_zero()) {
        rest.push_back(std::move(iq));
      } else if (c.sign() > 0) {
        lowers.push_back(std::move(iq));
      } else {
        uppers.push_back(std::move(iq));
      }
    }
    // Combine each (lower, upper) pair: for  a*v + p >= 0 (a>0) and
    // b*v + q >= 0 (b<0):   (-b)*p + a*q >= 0  eliminates v.
    for (const Ineq& lo : lowers) {
      Rational a = lo.expr.coeff(v);
      for (const Ineq& up : uppers) {
        Rational b = up.expr.coeff(v);
        AffineExpr combined = lo.expr * (-b) + up.expr * a;
        // combined still contains v with coefficient a*(-b) + (-b)*... ;
        // remove it exactly by substituting 0 for the (now zero) coeff.
        combined = combined.substituted(v, AffineExpr(Rational(0)));
        rest.push_back({combined, lo.strict || up.strict});
      }
    }
    sys = std::move(rest);
  }
  for (const Ineq& iq : sys) {
    Int s = iq.expr.constant().sign();
    if (s < 0) return false;
    if (s == 0 && iq.strict) return false;
  }
  return true;
}

// Dense path. A system is converted once to integer rows over the symbols
// it names, columns assigned per call by name. A row means a.x + k >= 0,
// or > 0 when strict, scaled by the lcm of its denominators and divided by
// the gcd of all its entries. Arithmetic reports overflow instead of
// raising it, so a call whose rows would overflow, or would name more than
// kWidth symbols or hold more than kCapacity rows, can fall back to the
// rational path above with nothing half done.
constexpr std::size_t kWidth = 8;
constexpr std::size_t kCapacity = 64;

// Trivial, so the row arrays below start uninitialized: zeroing 64 rows
// per system would cost more than most eliminations. A row is read only
// after it is written (System reads rows_[i] only for i < size_).
struct Row {
  std::array<Int, kWidth> a;
  Int k;
  bool strict;
};

enum class Status { Ok, Infeasible, Fallback };

/// Divide r by the gcd of its entries. False when an entry is INT64_MIN:
/// every row must stay negatable.
bool normalize(Row& r) {
  if (r.k == INT64_MIN) return false;
  Int g = r.k;
  for (Int v : r.a) {
    if (v == INT64_MIN) return false;
    g = checked_gcd(g, v);
  }
  if (g > 1) {
    for (Int& v : r.a) v /= g;
    r.k /= g;
  }
  return true;
}

/// Symbol name -> column, in first-seen order.
class Columns {
 public:
  /// The column of s; nullopt once a (kWidth+1)-th symbol turns up.
  std::optional<std::size_t> of(const Symbol& s) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (*names_[i] == s.name()) return i;
    }
    if (size_ == kWidth) return std::nullopt;
    names_[size_] = &s.name();
    return size_++;
  }

 private:
  std::array<const std::string*, kWidth> names_{};
  std::size_t size_ = 0;
};

/// rhs - lhs of c as a normalized non-strict row. False on overflow or
/// when c names one symbol too many.
bool to_row(const Constraint& c, Columns& cols, Row& out) {
  Int scale = 1;  // lcm of every denominator
  auto widen = [&scale](const Rational& q) {
    if (q.den() == 1) return true;
    return !__builtin_mul_overflow(scale / checked_gcd(scale, q.den()),
                                   q.den(), &scale);
  };
  if (!widen(c.lhs.constant()) || !widen(c.rhs.constant())) return false;
  for (const auto& [sym, q] : c.lhs.terms()) {
    if (!widen(q)) return false;
  }
  for (const auto& [sym, q] : c.rhs.terms()) {
    if (!widen(q)) return false;
  }
  auto accumulate = [scale](Int& slot, const Rational& q, bool subtract) {
    Int v = 0;
    if (__builtin_mul_overflow(q.num(), scale / q.den(), &v)) return false;
    return subtract ? !__builtin_sub_overflow(slot, v, &slot)
                    : !__builtin_add_overflow(slot, v, &slot);
  };
  out = Row{};
  if (!accumulate(out.k, c.rhs.constant(), false) ||
      !accumulate(out.k, c.lhs.constant(), true)) {
    return false;
  }
  for (const auto& [sym, q] : c.rhs.terms()) {
    std::optional<std::size_t> col = cols.of(sym);
    if (!col || !accumulate(out.a[*col], q, false)) return false;
  }
  for (const auto& [sym, q] : c.lhs.terms()) {
    std::optional<std::size_t> col = cols.of(sym);
    if (!col || !accumulate(out.a[*col], q, true)) return false;
  }
  return normalize(out);
}

/// The strict negation of a normalized row: not (e >= 0) is -e > 0.
Row negated(const Row& r) {
  Row n{};
  for (std::size_t i = 0; i < kWidth; ++i) n.a[i] = -r.a[i];
  n.k = -r.k;
  n.strict = true;
  return n;
}

/// A conjunction of normalized rows with pairwise distinct coefficient
/// vectors and no constant row.
class System {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Row& operator[](std::size_t i) const noexcept {
    return rows_[i];
  }
  void assign(const System& o) {
    size_ = o.size_;
    std::copy_n(o.rows_.begin(), size_, rows_.begin());
  }
  void clear() noexcept { size_ = 0; }
  /// Append a row known to be distinct from every row held.
  void push_distinct(const Row& r) noexcept { rows_[size_++] = r; }

  /// Conjoin r. A constant row is dropped when it holds and makes the
  /// system infeasible when it does not; of two rows with the same
  /// coefficients only the tighter stays (smaller constant, and strict
  /// over non-strict on a tie).
  Status add(const Row& r) {
    bool constant = true;
    for (Int v : r.a) constant = constant && v == 0;
    if (constant) {
      return r.k < 0 || (r.k == 0 && r.strict) ? Status::Infeasible
                                               : Status::Ok;
    }
    for (std::size_t i = 0; i < size_; ++i) {
      Row& held = rows_[i];
      if (held.a != r.a) continue;
      if (r.k < held.k) {
        held = r;
      } else if (r.k == held.k) {
        held.strict = held.strict || r.strict;
      }
      return Status::Ok;
    }
    if (size_ == kCapacity) return Status::Fallback;
    rows_[size_++] = r;
    return Status::Ok;
  }

 private:
  std::array<Row, kCapacity> rows_;
  std::size_t size_ = 0;
};

/// b*lo + a*up for lo's coefficient a > 0 and up's -b < 0 on column v,
/// with a and b divided by their gcd first. False on overflow.
bool combine(const Row& lo, const Row& up, std::size_t v, Row& out) {
  Int a = lo.a[v];
  Int b = -up.a[v];
  Int g = checked_gcd(a, b);
  a /= g;
  b /= g;
  auto mix = [a, b](Int x, Int y, Int& slot) {
    Int p = 0;
    Int q = 0;
    return !__builtin_mul_overflow(x, b, &p) &&
           !__builtin_mul_overflow(y, a, &q) &&
           !__builtin_add_overflow(p, q, &slot);
  };
  for (std::size_t i = 0; i < kWidth; ++i) {
    if (!mix(lo.a[i], up.a[i], out.a[i])) return false;
  }
  if (!mix(lo.k, up.k, out.k)) return false;
  out.strict = lo.strict || up.strict;
  return normalize(out);
}

/// Eliminate every column of sys, the one with the fewest lower x upper
/// pairs first; spare is scratch space. Ok means feasible.
Status eliminate(System& sys, System& spare) {
  System* cur = &sys;
  System* next = &spare;
  while (cur->size() > 0) {
    std::size_t var = 0;
    std::size_t fewest = SIZE_MAX;
    for (std::size_t col = 0; col < kWidth; ++col) {
      std::size_t lowers = 0;
      std::size_t uppers = 0;
      for (std::size_t i = 0; i < cur->size(); ++i) {
        Int c = (*cur)[i].a[col];
        lowers += c > 0 ? 1 : 0;
        uppers += c < 0 ? 1 : 0;
      }
      if (lowers + uppers > 0 && lowers * uppers < fewest) {
        var = col;
        fewest = lowers * uppers;
      }
    }
    next->clear();
    for (std::size_t i = 0; i < cur->size(); ++i) {
      if ((*cur)[i].a[var] == 0) next->push_distinct((*cur)[i]);
    }
    for (std::size_t i = 0; i < cur->size(); ++i) {
      const Row& lo = (*cur)[i];
      if (lo.a[var] <= 0) continue;
      for (std::size_t j = 0; j < cur->size(); ++j) {
        const Row& up = (*cur)[j];
        if (up.a[var] >= 0) continue;
        Row r{};
        if (!combine(lo, up, var, r)) return Status::Fallback;
        Status s = next->add(r);
        if (s != Status::Ok) return s;
      }
    }
    std::swap(cur, next);
  }
  return Status::Ok;
}

/// Convert every constraint of g and conjoin it to sys.
Status add_guard(const Guard& g, Columns& cols, System& sys) {
  for (const Constraint& c : g.constraints()) {
    Row r{};
    if (!to_row(c, cols, r)) return Status::Fallback;
    Status s = sys.add(r);
    if (s != Status::Ok) return s;
  }
  return Status::Ok;
}

/// Dense feasibility of guard /\ assumptions, conjoined with the strict
/// negation of *negate when given; nullopt when the call must fall back.
std::optional<bool> dense_feasible(const Guard& guard,
                                   const Guard& assumptions,
                                   const Constraint* negate) {
  Columns cols;
  System sys;
  Status s = add_guard(guard, cols, sys);
  if (s == Status::Ok) s = add_guard(assumptions, cols, sys);
  if (s == Status::Ok && negate != nullptr) {
    Row r{};
    s = to_row(*negate, cols, r) ? sys.add(negated(r)) : Status::Fallback;
  }
  if (s == Status::Ok) {
    System spare;
    s = eliminate(sys, spare);
  }
  if (s == Status::Fallback) return std::nullopt;
  return s == Status::Ok;
}

/// Dense drop_redundant over the already simplified guard; nullopt when
/// the call must fall back.
std::optional<Guard> dense_drop_redundant(const Guard& simplified,
                                          const Guard& assumptions) {
  const std::vector<Constraint>& cs = simplified.constraints();
  if (cs.size() > kCapacity) return std::nullopt;
  Columns cols;
  std::array<Row, kCapacity> rows;  // rows[i] is cs[i]
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!to_row(cs[i], cols, rows[i])) return std::nullopt;
  }
  System base;
  Status s = add_guard(assumptions, cols, base);
  if (s == Status::Fallback) return std::nullopt;
  // Infeasible assumptions imply every constraint: none is kept.
  const bool assumptions_infeasible = s == Status::Infeasible;

  std::array<std::size_t, kCapacity> kept_at;  // indices into cs
  std::size_t kept_count = 0;
  System sys;
  System spare;
  for (std::size_t i = 0; i < cs.size() && !assumptions_infeasible; ++i) {
    // Does the rest (already-kept plus not-yet-examined) imply cs[i]?
    sys.assign(base);
    s = Status::Ok;
    for (std::size_t k = 0; k < kept_count && s == Status::Ok; ++k) {
      s = sys.add(rows[kept_at[k]]);
    }
    for (std::size_t j = i + 1; j < cs.size() && s == Status::Ok; ++j) {
      s = sys.add(rows[j]);
    }
    if (s == Status::Ok) s = sys.add(negated(rows[i]));
    if (s == Status::Ok) s = eliminate(sys, spare);
    if (s == Status::Fallback) return std::nullopt;
    if (s == Status::Ok) kept_at[kept_count++] = i;
  }
  std::vector<Constraint> kept;
  kept.reserve(kept_count);
  for (std::size_t k = 0; k < kept_count; ++k) kept.push_back(cs[kept_at[k]]);
  return Guard(std::move(kept));
}

}  // namespace

namespace detail {

bool rational_is_feasible(const Guard& guard, const Guard& assumptions) {
  return feasible(gather(guard, assumptions));
}

bool rational_implies(const Guard& guard, const Constraint& c,
                      const Guard& assumptions) {
  // guard /\ assumptions /\ (lhs > rhs) infeasible?
  std::vector<Ineq> sys = gather(guard, assumptions);
  sys.push_back({c.lhs - c.rhs, true});  // lhs - rhs > 0
  return !feasible(std::move(sys));
}

Guard rational_drop_redundant(const Guard& guard, const Guard& assumptions) {
  Guard simplified = guard.simplified();
  std::vector<Constraint> kept;
  const auto& cs = simplified.constraints();
  for (std::size_t i = 0; i < cs.size(); ++i) {
    // Does the rest (already-kept plus not-yet-examined) imply cs[i]?
    Guard rest;
    for (const Constraint& k : kept) rest.add(k);
    for (std::size_t j = i + 1; j < cs.size(); ++j) rest.add(cs[j]);
    if (!rational_implies(rest, cs[i], assumptions)) kept.push_back(cs[i]);
  }
  return Guard(std::move(kept));
}

}  // namespace detail

bool is_feasible(const Guard& guard, const Guard& assumptions) {
  std::optional<bool> dense = dense_feasible(guard, assumptions, nullptr);
  return dense ? *dense : detail::rational_is_feasible(guard, assumptions);
}

bool implies(const Guard& guard, const Constraint& c,
             const Guard& assumptions) {
  std::optional<bool> dense = dense_feasible(guard, assumptions, &c);
  return dense ? !*dense : detail::rational_implies(guard, c, assumptions);
}

Guard drop_redundant(const Guard& guard, const Guard& assumptions) {
  Guard simplified = guard.simplified();
  std::optional<Guard> dense = dense_drop_redundant(simplified, assumptions);
  return dense ? std::move(*dense)
               : detail::rational_drop_redundant(guard, assumptions);
}

}  // namespace systolize
