#include "frontend/render.hpp"

#include <sstream>

namespace systolize::frontend {
namespace {

/// Affine over size symbols with integer coefficients, in the format's
/// size-expr grammar (the parser accepts a leading unary minus).
std::string size_expr_to_sa(const AffineExpr& e) {
  std::ostringstream os;
  bool first = true;
  auto emit = [&](const Rational& coeff, const std::string& sym) {
    if (!coeff.is_integer()) {
      raise(ErrorKind::Validation,
            "cannot export non-integer coefficient " + coeff.to_string() +
                " in '" + e.to_string() + "' to .sa");
    }
    Int c = coeff.to_integer();
    if (c == 0) return;
    if (first) {
      if (c < 0) os << '-';
    } else {
      os << (c < 0 ? " - " : " + ");
    }
    const Int mag = c < 0 ? -c : c;
    if (sym.empty()) {
      os << mag;
    } else if (mag == 1) {
      os << sym;
    } else {
      os << mag << '*' << sym;
    }
    first = false;
  };
  for (const auto& [sym, coeff] : e.terms()) emit(coeff, sym.name());
  emit(e.constant(), "");
  if (first) os << '0';
  return os.str();
}

/// Recover `sym >= bound` from the size-assumption guard; the format can
/// only express that shape.
Int lower_bound_of(const Symbol& s, const Guard& assumptions) {
  for (const Constraint& c : assumptions.constraints()) {
    const AffineExpr slack = c.slack();  // rhs - lhs, >= 0 when it holds
    if (slack.terms().size() != 1) continue;
    const auto& [sym, coeff] = *slack.terms().begin();
    if (sym != s || coeff != Rational(1)) continue;
    if (!slack.constant().is_integer()) continue;
    return -slack.constant().to_integer();  // slack = s - bound
  }
  raise(ErrorKind::Validation,
        "cannot export size assumptions for '" + s.name() +
            "' to .sa: no 'sym >= const' lower bound found");
}

}  // namespace

std::string lin_expr_text(const IntVec& coeffs, const LoopNest& nest) {
  return loop_affine_text(coeffs, 0, nest.loops());
}

std::string place_text(const IntMatrix& m, const LoopNest& nest) {
  std::ostringstream os;
  os << '(';
  for (std::size_t row = 0; row < m.rows(); ++row) {
    if (row > 0) os << ", ";
    os << loop_affine_text(m.row(row), 0, nest.loops());
  }
  os << ')';
  return os.str();
}

std::string render_design(const LoopNest& nest, const ArraySpec& spec,
                          const std::string& comment) {
  // Size assumptions beyond one lower bound per symbol are inexpressible;
  // verify nothing else lurks in the guard.
  for (const Constraint& c : nest.size_assumptions().constraints()) {
    const AffineExpr slack = c.slack();
    if (slack.terms().size() != 1 ||
        slack.terms().begin()->second != Rational(1)) {
      raise(ErrorKind::Validation,
            "cannot export size assumption '" + c.to_string() + "' to .sa");
    }
  }

  std::ostringstream os;
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) os << "# " << line << "\n";
  }
  os << "design " << nest.name() << "\n";

  os << "sizes ";
  const std::vector<Symbol>& sizes = nest.sizes();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) os << ", ";
    os << sizes[i].name() << " >= "
       << lower_bound_of(sizes[i], nest.size_assumptions());
  }
  os << "\n";

  const std::vector<LoopSpec>& loops = nest.loops();
  for (const LoopSpec& loop : loops) {
    os << "loop " << loop.index_name << " = " << size_expr_to_sa(loop.lower)
       << " .. " << size_expr_to_sa(loop.upper);
    if (loop.step < 0) os << " by -1";
    os << "\n";
  }

  for (const Stream& s : nest.streams()) {
    os << "stream " << s.name() << '[';
    for (std::size_t row = 0; row < s.index_map().rows(); ++row) {
      if (row > 0) os << ',';
      os << loop_affine_text(s.index_map().row(row), 0, loops);
    }
    os << "] " << (s.access() == StreamAccess::Update ? "update" : "read")
       << " dims [";
    for (std::size_t d = 0; d < s.dims().size(); ++d) {
      if (d > 0) os << ", ";
      os << size_expr_to_sa(s.dims()[d].lower) << " .. "
         << size_expr_to_sa(s.dims()[d].upper);
    }
    os << "]\n";
  }

  os << "body " << nest.body_text() << "\n";
  os << "step " << loop_affine_text(spec.step().coeffs(), 0, loops) << "\n";

  os << "place (";
  for (std::size_t row = 0; row < spec.place().matrix().rows(); ++row) {
    if (row > 0) os << ", ";
    os << loop_affine_text(spec.place().matrix().row(row), 0, loops);
  }
  os << ")\n";

  for (const auto& [stream, vec] : spec.loading_vectors()) {
    os << "load " << stream << " = (";
    for (std::size_t i = 0; i < vec.dim(); ++i) {
      if (i > 0) os << ", ";
      os << vec[i];
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace systolize::frontend
