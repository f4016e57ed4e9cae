#include "systolic/enumerate.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "analysis/verify.hpp"
#include "runtime/bytecode.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

/// All non-zero vectors of Z^dim with components in [-k, k].
std::vector<IntVec> all_vectors(std::size_t dim, Int k) {
  std::vector<IntVec> out;
  IntVec v(dim);
  for (std::size_t i = 0; i < dim; ++i) v[i] = -k;
  for (;;) {
    if (!v.is_zero()) out.push_back(v);
    std::size_t i = 0;
    while (i < dim && v[i] == k) v[i++] = -k;
    if (i == dim) return out;
    ++v[i];
  }
}

/// Negating a row reflects one process-grid axis; orient each row with
/// its first non-zero component positive.
IntVec oriented(IntVec v) {
  for (std::size_t i = 0; i < v.dim(); ++i) {
    if (v[i] != 0) return v[i] > 0 ? v : -v;
  }
  return v;
}

/// Canonical representative of a place matrix under row negation and
/// permutation: oriented rows, descending lexicographic order.
std::vector<IntVec> canonical_rows(const IntMatrix& m) {
  std::vector<IntVec> rows;
  rows.reserve(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) rows.push_back(oriented(m.row(r)));
  std::sort(rows.begin(), rows.end(), [](const IntVec& a, const IntVec& b) {
    return b.comps() < a.comps();
  });
  return rows;
}

/// The reduced row-echelon representative of the matrix's row space, each
/// row scaled to a primitive integer vector. Used as the preferred-form
/// tie-break: among cost-tied candidates of one row space (unimodular
/// shears of each other), the RREF form is the one the appendix designs
/// are written in.
std::vector<IntVec> rref_rows(const IntMatrix& m) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::vector<std::vector<Rational>> a(rows, std::vector<Rational>(cols));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a[i][j] = Rational(m.at(i, j));
  }
  std::size_t lead = 0;
  for (std::size_t r = 0; r < rows && lead < cols; ++lead) {
    std::size_t pivot = r;
    while (pivot < rows && a[pivot][lead].is_zero()) ++pivot;
    if (pivot == rows) continue;
    std::swap(a[pivot], a[r]);
    const Rational scale = a[r][lead].reciprocal();
    for (std::size_t j = 0; j < cols; ++j) a[r][j] *= scale;
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == r || a[i][lead].is_zero()) continue;
      const Rational f = a[i][lead];
      for (std::size_t j = 0; j < cols; ++j) a[i][j] -= f * a[r][j];
    }
    ++r;
  }
  std::vector<IntVec> out;
  for (const std::vector<Rational>& row : a) {
    Int denom = 1;
    bool zero = true;
    for (const Rational& c : row) {
      if (c.is_zero()) continue;
      zero = false;
      denom = lcm(denom, c.den());
    }
    if (zero) continue;
    IntVec iv(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      iv[j] = (row[j] * Rational(denom)).to_integer();
    }
    out.push_back(iv.normalized());
  }
  return out;
}

bool is_rref_form(const IntMatrix& m) {
  const std::vector<IntVec> canon = rref_rows(m);
  if (canon.size() != m.rows()) return false;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (m.row(r) != canon[r]) return false;
  }
  return true;
}

std::optional<IntVec> unique_null_generator(const IntMatrix& m) {
  auto basis = m.null_space_basis();
  if (basis.size() != 1) return std::nullopt;
  return basis.front();
}

struct Ranked {
  ExploreCandidate cand;
  CostMetrics key;  ///< metrics at the last probe size
  bool rref_form = false;
};

bool ranked_before(const Ranked& a, const Ranked& b) {
  if (cost_preferred(a.key, b.key)) return true;
  if (cost_preferred(b.key, a.key)) return false;
  if (a.rref_form != b.rref_form) return a.rref_form;
  const auto& sa = a.cand.step.coeffs().comps();
  const auto& sb = b.cand.step.coeffs().comps();
  if (sa != sb) return sa > sb;  // prefer the lexicographically greatest step
  return a.cand.place.matrix().to_string() < b.cand.place.matrix().to_string();
}

}  // namespace

bool cost_preferred(const CostMetrics& a, const CostMetrics& b) {
  if (a.makespan != b.makespan) return a.makespan < b.makespan;
  if (a.processes != b.processes) return a.processes < b.processes;
  const Int ao = a.io + a.buffer;
  const Int bo = b.io + b.buffer;
  if (ao != bo) return ao < bo;
  const Int ap = a.soak_max + a.drain_max;
  const Int bp = b.soak_max + b.drain_max;
  if (ap != bp) return ap < bp;
  if (a.channels != b.channels) return a.channels < b.channels;
  if (a.imbalance != b.imbalance) return a.imbalance < b.imbalance;
  return false;
}

std::string ExploreStats::to_string() const {
  std::ostringstream os;
  os << "enumerated " << enumerated << " candidate pair(s): " << survivors
     << " verifier-clean, pruned " << pruned_rank << " rank, "
     << pruned_projection << " projection, " << pruned_theorem3
     << " theorem-3, " << pruned_stationary << " stationary, " << pruned_spec
     << " spec, " << pruned_compile << " compile, " << pruned_program
     << " program, " << pruned_plan << " plan";
  return os.str();
}

std::vector<ArraySpec> enumerate_spec_candidates(const LoopNest& nest,
                                                 Int coeff_range,
                                                 std::size_t limit) {
  const std::size_t r = nest.depth();
  if (r < 2) {
    raise(ErrorKind::Validation,
          "spec enumeration needs a nesting depth of >= 2");
  }
  if (coeff_range < 1) {
    raise(ErrorKind::Validation,
          "spec enumeration needs a coefficient range >= 1");
  }

  std::vector<std::optional<IntVec>> stream_nulls;
  for (const Stream& s : nest.streams()) {
    stream_nulls.push_back(unique_null_generator(s.index_map()));
  }

  const std::vector<IntVec> steps = [&] {
    std::vector<IntVec> out;
    for (IntVec& v : all_vectors(r, coeff_range)) {
      if (v.content() == 1) out.push_back(std::move(v));
    }
    return out;
  }();
  const std::vector<IntVec> rows = [&] {
    std::vector<IntVec> out;
    for (IntVec& v : all_vectors(r, coeff_range)) {
      out.push_back(oriented(std::move(v)));
    }
    std::sort(out.begin(), out.end(), [](const IntVec& a, const IntVec& b) {
      return b.comps() < a.comps();
    });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }();

  std::vector<ArraySpec> survivors;
  std::vector<std::size_t> pick(r - 1);
  for (std::size_t i = 0; i < r - 1; ++i) pick[i] = i;
  const std::size_t nrows = rows.size();
  auto advance = [&]() -> bool {
    std::size_t i = r - 1;
    while (i-- > 0) {
      if (pick[i] + (r - 1 - i) < nrows) {
        ++pick[i];
        for (std::size_t j = i + 1; j < r - 1; ++j) pick[j] = pick[j - 1] + 1;
        return true;
      }
    }
    return false;
  };
  if (nrows < r - 1) return survivors;

  do {
    IntMatrix pm(r - 1, r);
    for (std::size_t i = 0; i < r - 1; ++i) {
      for (std::size_t j = 0; j < r; ++j) pm.at(i, j) = rows[pick[i]][j];
    }
    if (pm.rank() != r - 1) continue;
    const IntVec w = *unique_null_generator(pm);
    PlaceFunction place(pm);

    for (const IntVec& sc : steps) {
      if (sc.dot(w) == 0) continue;  // Theorem 3
      std::map<std::string, IntVec> loading;
      for (std::size_t si = 0; si < nest.streams().size(); ++si) {
        if (!stream_nulls[si].has_value()) continue;
        const IntVec& n = *stream_nulls[si];
        if (!place.apply(n).is_zero()) continue;  // moving
        IntVec e0(r - 1);
        e0[0] = 1;
        loading[nest.streams()[si].name()] = e0;
      }
      ArraySpec spec(StepFunction(sc), place, loading);
      if (!verify_spec(nest, spec).clean()) continue;
      survivors.push_back(std::move(spec));
      if (survivors.size() >= limit) return survivors;
    }
  } while (advance());
  return survivors;
}

ExploreResult enumerate_designs(const LoopNest& nest, const ArraySpec* seed,
                                const EnumerateOptions& options) {
  const std::size_t r = nest.depth();
  if (r < 2) {
    raise(ErrorKind::Validation, "explore needs a nesting depth of >= 2");
  }
  if (options.sizes.empty()) {
    raise(ErrorKind::Validation, "explore needs at least one probe size");
  }
  if (options.coeff_range < 1) {
    raise(ErrorKind::Validation, "explore needs a coefficient range >= 1");
  }
  if (options.same_projection && seed == nullptr) {
    raise(ErrorKind::Validation,
          "--same-projection needs a seed design's place to anchor to");
  }

  IntVec projection = options.projection;
  if (options.same_projection) projection = seed->place().null_generator();
  if (projection.dim() != 0) projection = oriented(projection.normalized());

  std::optional<std::vector<IntVec>> seed_rows;
  if (seed != nullptr) seed_rows = canonical_rows(seed->place().matrix());

  // Per-stream dependence directions, for the stationary test. A stream
  // whose index map is not rank r-1 poisons every candidate — the spec
  // verifier reports it (stream.rank) on the first one we score.
  std::vector<std::optional<IntVec>> stream_nulls;
  for (const Stream& s : nest.streams()) {
    stream_nulls.push_back(unique_null_generator(s.index_map()));
  }

  const std::vector<IntVec> steps = [&] {
    std::vector<IntVec> out;
    for (IntVec& v : all_vectors(r, options.coeff_range)) {
      if (v.content() == 1) out.push_back(std::move(v));  // primitive only
    }
    return out;
  }();

  // Candidate place rows: oriented and deduplicated; matrices are built
  // as strictly descending row sequences, which enumerates exactly one
  // member of every canonical class.
  const std::vector<IntVec> rows = [&] {
    std::vector<IntVec> out;
    for (IntVec& v : all_vectors(r, options.coeff_range)) {
      out.push_back(oriented(std::move(v)));
    }
    std::sort(out.begin(), out.end(),
              [](const IntVec& a, const IntVec& b) {
                return b.comps() < a.comps();
              });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }();

  ExploreResult result;
  ExploreStats& stats = result.stats;
  std::vector<Ranked> survivors;

  // Odometer over strictly increasing index tuples into `rows` — rows are
  // sorted descending, so each matrix has descending (canonical) rows.
  std::vector<std::size_t> pick(r - 1);
  for (std::size_t i = 0; i < r - 1; ++i) pick[i] = i;
  const std::size_t nrows = rows.size();
  auto advance = [&]() -> bool {
    std::size_t i = r - 1;
    while (i-- > 0) {
      if (pick[i] + (r - 1 - i) < nrows) {
        ++pick[i];
        for (std::size_t j = i + 1; j < r - 1; ++j) pick[j] = pick[j - 1] + 1;
        return true;
      }
    }
    return false;
  };
  if (nrows < r - 1) return result;

  do {
    IntMatrix pm(r - 1, r);
    for (std::size_t i = 0; i < r - 1; ++i) {
      for (std::size_t j = 0; j < r; ++j) pm.at(i, j) = rows[pick[i]][j];
    }
    stats.enumerated += steps.size();
    if (pm.rank() != r - 1) {
      stats.pruned_rank += steps.size();
      continue;
    }
    const IntVec w = *unique_null_generator(pm);
    if (projection.dim() != 0 && oriented(w) != projection) {
      stats.pruned_projection += steps.size();
      continue;
    }
    PlaceFunction place(pm);

    for (const IntVec& sc : steps) {
      StepFunction step(sc);
      if (sc.dot(w) == 0) {
        ++stats.pruned_theorem3;
        continue;
      }

      // Stationary streams get the catalog's conventional loading &
      // recovery vector, the first process-grid axis (a neighbour).
      std::map<std::string, IntVec> loading;
      bool drop = false;
      for (std::size_t si = 0; si < nest.streams().size(); ++si) {
        if (!stream_nulls[si].has_value()) continue;  // verifier will say
        const IntVec& n = *stream_nulls[si];
        if (!place.apply(n).is_zero()) continue;  // moving
        if (options.moving_only) {
          drop = true;
          break;
        }
        IntVec e0(r - 1);
        e0[0] = 1;
        loading[nest.streams()[si].name()] = e0;
      }
      if (drop) {
        ++stats.pruned_stationary;
        continue;
      }

      ArraySpec spec(step, place, loading);
      if (!verify_spec(nest, spec).clean()) {
        ++stats.pruned_spec;
        continue;
      }

      Ranked ranked;
      std::optional<CompiledProgram> prog;
      try {
        prog.emplace(compile(nest, spec));
      } catch (const Error&) {
        ++stats.pruned_compile;
        continue;
      }
      if (!verify_program(*prog, nest).clean()) {
        ++stats.pruned_program;
        continue;
      }
      ranked.cand.cost.design = prog->name;
      ranked.cand.cost.formulas = derive_cost_formulas(*prog, nest);
      bool plan_ok = true;
      try {
        for (const Env& env : options.sizes) {
          // An expanded plan's references are in range, so it lowers
          // before it is verified, once for the verifier and the cost.
          const auto plan = build_plan(*prog, nest, env, PlanShape{});
          const auto bytecode = lower_plan(*plan);
          if (!verify_plan(*plan, *bytecode).clean()) {
            plan_ok = false;
            break;
          }
          CostReport::AtSize row;
          for (const auto& [name, value] : env) row.sizes[name] = value.floor();
          row.metrics = cost_metrics_of(*prog, nest, env, *plan, *bytecode);
          ranked.key = row.metrics;
          ranked.cand.cost.at.push_back(std::move(row));
        }
      } catch (const Error&) {
        plan_ok = false;
      }
      if (!plan_ok) {
        ++stats.pruned_plan;
        continue;
      }

      ranked.cand.step = step;
      ranked.cand.place = place;
      ranked.cand.loading = std::move(loading);
      ranked.rref_form = is_rref_form(pm);
      if (seed != nullptr) {
        ranked.cand.matches_seed =
            sc == seed->step().coeffs() && canonical_rows(pm) == *seed_rows;
      }
      survivors.push_back(std::move(ranked));
    }
  } while (advance());

  std::stable_sort(survivors.begin(), survivors.end(), ranked_before);
  stats.survivors = survivors.size();
  const std::size_t keep = std::min(options.top_k, survivors.size());
  result.ranked.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    result.ranked.push_back(std::move(survivors[i].cand));
  }
  return result;
}

}  // namespace systolize
