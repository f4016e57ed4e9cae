#include "loopnest/validate.hpp"

#include <set>

#include "symbolic/fourier_motzkin.hpp"

namespace systolize {
namespace {

void require_size_only(const AffineExpr& e, const std::string& where) {
  if (!e.is_coord_free()) {
    raise(ErrorKind::Validation,
          where + " must involve only problem-size symbols, got " +
              e.to_string());
  }
}

}  // namespace

void validate_source(const LoopNest& nest) {
  const std::size_t r = nest.depth();
  if (r < 2) {
    raise(ErrorKind::Validation,
          "source program must have at least two loops (r >= 2), got r = " +
              std::to_string(r));
  }

  std::set<std::string> index_names;
  for (const LoopSpec& l : nest.loops()) {
    if (l.step != 1 && l.step != -1) {
      raise(ErrorKind::Validation, "loop '" + l.index_name +
                                       "' has step " + std::to_string(l.step) +
                                       "; only +1/-1 are allowed");
    }
    require_size_only(l.lower, "lower bound of loop '" + l.index_name + "'");
    require_size_only(l.upper, "upper bound of loop '" + l.index_name + "'");
    if (!implies(nest.size_assumptions(), Constraint{l.lower, l.upper})) {
      raise(ErrorKind::Validation,
            "size assumptions do not imply lb <= rb for loop '" +
                l.index_name + "'");
    }
    if (!index_names.insert(l.index_name).second) {
      raise(ErrorKind::Validation,
            "duplicate loop index '" + l.index_name + "'");
    }
  }

  if (nest.streams().empty()) {
    raise(ErrorKind::Validation, "source program declares no streams");
  }
  std::set<std::string> stream_names;
  for (const Stream& s : nest.streams()) {
    if (!stream_names.insert(s.name()).second) {
      raise(ErrorKind::Validation, "duplicate stream name '" + s.name() + "'");
    }
    const IntMatrix& m = s.index_map();
    if (m.rows() != r - 1 || m.cols() != r) {
      raise(ErrorKind::Validation,
            "stream '" + s.name() + "': index map must be (r-1) x r = " +
                std::to_string(r - 1) + " x " + std::to_string(r) + ", got " +
                std::to_string(m.rows()) + " x " + std::to_string(m.cols()));
    }
    if (m.rank() != r - 1) {
      raise(ErrorKind::Validation,
            "stream '" + s.name() + "': index map must have rank r-1 = " +
                std::to_string(r - 1) + " (full pipelining), got rank " +
                std::to_string(m.rank()));
    }
    if (s.dims().size() != r - 1) {
      raise(ErrorKind::Validation,
            "stream '" + s.name() + "': indexed variable must be (r-1)-"
            "dimensional");
    }
    for (std::size_t d = 0; d < s.dims().size(); ++d) {
      const std::string where =
          "stream '" + s.name() + "' dimension " + std::to_string(d);
      require_size_only(s.dims()[d].lower, where + " lower bound");
      require_size_only(s.dims()[d].upper, where + " upper bound");
      if (!implies(nest.size_assumptions(),
                   Constraint{s.dims()[d].lower, s.dims()[d].upper})) {
        raise(ErrorKind::Validation,
              where + ": size assumptions do not imply lb <= rb");
      }
    }
  }

  if (nest.body().empty()) {
    raise(ErrorKind::Validation, "source program has no basic statement body");
  }
}

}  // namespace systolize
