#include "runtime/plan_template.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <string>

#include "scheme/types.hpp"
#include "support/error.hpp"
#include "symbolic/fourier_motzkin.hpp"
#include "symbolic/symbol.hpp"

namespace systolize {

// -------------------------------------------------------- form evaluation

Int LinForm::eval_scaled(const Int* vars) const {
  Int acc = constant;
  for (const auto& [var, coeff] : terms) {
    acc = checked_add(acc, checked_mul(coeff, vars[var]));
  }
  return acc;
}

Int LinForm::eval(const Int* vars) const {
  const Int num = eval_scaled(vars);
  if (den == 1) return num;
  if (num % den != 0) {
    const Int g = gcd(num, den);  // report the fraction in lowest terms
    raise(ErrorKind::NotRepresentable,
          "plan template: affine form evaluates to the non-integer " +
              std::to_string(num / g) + "/" + std::to_string(den / g));
  }
  return num / den;
}

bool TemplateGuard::holds(const Int* vars) const {
  for (const LinForm& s : slacks) {
    if (s.eval_scaled(vars) < 0) return false;
  }
  return true;
}

const LinForm* TemplateExpr::select(const Int* vars) const {
  for (const Piece& p : pieces) {
    if (p.guard.holds(vars)) return &p.value;
  }
  return nullptr;
}

const std::vector<LinForm>* TemplatePoint::select(const Int* vars) const {
  for (const Piece& p : pieces) {
    if (p.guard.holds(vars)) return &p.value;
  }
  return nullptr;
}

// ------------------------------------------------------- stage 1: lowering

namespace {

/// Shared lowering state: process coordinates occupy variable indices
/// [0, ncoords); size symbols are appended in discovery order.
struct Lowerer {
  const Guard& assumptions;
  std::size_t ncoords = 0;
  std::map<std::string, std::uint32_t> var_index;
  std::vector<std::string> size_symbols;

  std::uint32_t index_of(const Symbol& s) {
    auto [it, inserted] = var_index.emplace(
        s.name(),
        static_cast<std::uint32_t>(ncoords + size_symbols.size()));
    if (inserted) size_symbols.push_back(s.name());
    return it->second;
  }

  /// Scale the rational coefficients by their lcm denominator so stage 2
  /// never touches a Rational. den > 0 by the Rational invariant.
  LinForm lower(const AffineExpr& e) {
    Int den = e.constant().den();
    for (const auto& [sym, c] : e.terms()) den = lcm(den, c.den());
    LinForm f;
    f.den = den;
    f.constant = checked_mul(e.constant().num(), den / e.constant().den());
    f.terms.reserve(e.terms().size());
    for (const auto& [sym, c] : e.terms()) {
      f.terms.emplace_back(index_of(sym),
                           checked_mul(c.num(), den / c.den()));
    }
    return f;
  }

  TemplateGuard lower(const Guard& g) {
    TemplateGuard out;
    out.slacks.reserve(g.constraints().size());
    for (const Constraint& c : g.constraints()) out.slacks.push_back(lower(c.slack()));
    return out;
  }

  std::vector<LinForm> lower(const AffinePoint& p) {
    std::vector<LinForm> comps;
    comps.reserve(p.dim());
    for (std::size_t i = 0; i < p.dim(); ++i) comps.push_back(lower(p[i]));
    return comps;
  }

  /// Clause-level pruning: Fourier-Motzkin drops alternatives that can
  /// never fire under the program's standing assumptions (size bounds +
  /// PS-box membership of the coordinates). Within those assumptions,
  /// select() order and outcome are unchanged. This is the only use of
  /// symbolic machinery in the template pipeline, and it runs once here.
  TemplateExpr lower_expr(const Piecewise<AffineExpr>& pw) {
    TemplateExpr out;
    for (const Piece<AffineExpr>& p : pw.pieces()) {
      if (!is_feasible(p.guard, assumptions)) continue;
      out.pieces.push_back({lower(p.guard), lower(p.value)});
    }
    return out;
  }

  TemplatePoint lower_point(const Piecewise<AffinePoint>& pw) {
    TemplatePoint out;
    for (const Piece<AffinePoint>& p : pw.pieces()) {
      if (!is_feasible(p.guard, assumptions)) continue;
      out.pieces.push_back({lower(p.guard), lower(p.value)});
    }
    return out;
  }
};

/// The nest's statement, for a plan of `program`: its slots are the nest's
/// stream positions and a plan's stream ids the program's, so the two
/// orders must agree (Error(Validation) otherwise).
const Statement& plan_statement(const CompiledProgram& program,
                                const LoopNest& nest) {
  const auto same_name = [](const Stream& s, const StreamPlan& p) {
    return s.name() == p.name;
  };
  if (!std::equal(nest.streams().begin(), nest.streams().end(),
                  program.streams.begin(), program.streams.end(), same_name)) {
    raise(ErrorKind::Validation, "program '" + program.name + "' and nest '" +
                                     nest.name() + "' order streams apart");
  }
  return nest.body();
}

std::size_t string_bytes(const std::string& s) { return s.capacity(); }

std::size_t form_bytes(const LinForm& f) {
  return f.terms.capacity() * sizeof(f.terms[0]);
}

std::size_t guard_bytes(const TemplateGuard& g) {
  std::size_t n = g.slacks.capacity() * sizeof(LinForm);
  for (const LinForm& f : g.slacks) n += form_bytes(f);
  return n;
}

std::size_t expr_bytes(const TemplateExpr& e) {
  std::size_t n = e.pieces.capacity() * sizeof(TemplateExpr::Piece);
  for (const TemplateExpr::Piece& p : e.pieces) {
    n += guard_bytes(p.guard) + form_bytes(p.value);
  }
  return n;
}

std::size_t point_bytes(const TemplatePoint& e) {
  std::size_t n = e.pieces.capacity() * sizeof(TemplatePoint::Piece);
  for (const TemplatePoint::Piece& p : e.pieces) {
    n += guard_bytes(p.guard) + p.value.capacity() * sizeof(LinForm);
    for (const LinForm& f : p.value) n += form_bytes(f);
  }
  return n;
}

}  // namespace

std::size_t PlanTemplate::memory_bytes() const {
  std::size_t n = sizeof(PlanTemplate);
  n += string_bytes(program_name);
  for (const std::string& s : size_symbols) n += string_bytes(s);
  n += ps_min.capacity() * sizeof(LinForm);
  n += ps_max.capacity() * sizeof(LinForm);
  for (const LinForm& f : ps_min) n += form_bytes(f);
  for (const LinForm& f : ps_max) n += form_bytes(f);
  n += point_bytes(first) + expr_bytes(count);
  n += streams.capacity() * sizeof(StreamTemplate);
  for (const StreamTemplate& s : streams) {
    n += string_bytes(s.name) + string_bytes(s.pipe_prefix) +
         string_bytes(s.in_prefix) + string_bytes(s.out_prefix) +
         string_bytes(s.buf_prefix) + string_bytes(s.xbuf_prefix);
    n += point_bytes(s.first_s) + expr_bytes(s.count_s) +
         expr_bytes(s.soak) + expr_bytes(s.drain);
  }
  return n;
}

std::shared_ptr<const PlanTemplate> compile_template(
    const CompiledProgram& program, const LoopNest& nest,
    const PlanShape& shape) {
  auto tmpl = std::make_shared<PlanTemplate>();
  tmpl->program_name = program.name;
  tmpl->program_generation = program.generation;
  tmpl->depth = program.depth;
  tmpl->shape = shape;
  tmpl->ncoords = program.coords.size();
  tmpl->body = plan_statement(program, nest);
  tmpl->increment = program.repeater.increment;

  Lowerer lo{program.assumptions, program.coords.size(), {}, {}};
  for (std::size_t i = 0; i < program.coords.size(); ++i) {
    lo.var_index.emplace(program.coords[i].name(),
                         static_cast<std::uint32_t>(i));
  }

  tmpl->ps_min.reserve(program.ps.min.dim());
  tmpl->ps_max.reserve(program.ps.max.dim());
  for (std::size_t i = 0; i < program.ps.min.dim(); ++i) {
    tmpl->ps_min.push_back(lo.lower(program.ps.min[i]));
  }
  for (std::size_t i = 0; i < program.ps.max.dim(); ++i) {
    tmpl->ps_max.push_back(lo.lower(program.ps.max[i]));
  }
  tmpl->first = lo.lower_point(program.repeater.first);
  tmpl->count = lo.lower_expr(program.repeater.count);

  tmpl->streams.reserve(program.streams.size());
  for (const StreamPlan& splan : program.streams) {
    PlanTemplate::StreamTemplate st;
    st.name = splan.name;
    st.stationary = splan.motion.stationary;
    st.direction = splan.motion.direction;
    st.denominator = splan.motion.denominator;
    st.increment_s = splan.io.increment_s;
    st.first_s = lo.lower_point(splan.io.first_s);
    st.count_s = lo.lower_expr(splan.io.count_s);
    st.soak = lo.lower_expr(splan.soak);
    st.drain = lo.lower_expr(splan.drain);
    st.pipe_prefix = splan.name + "[";
    st.in_prefix = "in:" + splan.name + ":";
    st.out_prefix = "out:" + splan.name + ":";
    st.buf_prefix = "buf:" + splan.name + ":";
    st.xbuf_prefix = "xbuf:" + splan.name + ":";
    tmpl->streams.push_back(std::move(st));
  }

  tmpl->size_symbols = std::move(lo.size_symbols);
  return tmpl;
}

// ------------------------------------------------------ stage 2: expansion

namespace {

/// Name of template variable `var`: a canonical process coordinate (the
/// scheme names them so, see compiler.cpp) or a size symbol.
std::string var_name(const PlanTemplate& tmpl, std::size_t var) {
  return var < tmpl.ncoords ? canonical_coord(var).name()
                            : tmpl.size_symbols[var - tmpl.ncoords];
}

/// `form` over the template's variable names, e.g. "(n + 2*col - 1)/3".
std::string form_string(const PlanTemplate& tmpl, const LinForm& form) {
  std::string s;
  auto term = [&s](Int coeff, const std::string& name) {
    // Unsigned, so INT64_MIN has a magnitude.
    const std::uint64_t mag = coeff < 0 ? 0 - static_cast<std::uint64_t>(coeff)
                                        : static_cast<std::uint64_t>(coeff);
    s += s.empty() ? (coeff < 0 ? "-" : "") : (coeff < 0 ? " - " : " + ");
    if (name.empty() || mag != 1) s += std::to_string(mag);
    if (!name.empty()) s += (mag != 1 ? "*" : "") + name;
  };
  for (const auto& [var, coeff] : form.terms) term(coeff, var_name(tmpl, var));
  if (form.constant != 0 || s.empty()) term(form.constant, "");
  if (form.den == 1) return s;
  return "(" + s + ")/" + std::to_string(form.den);
}

/// form.eval(vars). When the value is not an integer, the NotRepresentable
/// error names the quantity, the coordinates (when `at_point`) and sizes
/// it was evaluated at, and the form; all of it is built on that path.
template <typename Quantity>
Int eval_named(const PlanTemplate& tmpl, const LinForm& form,
               const Int* vars, bool at_point, Quantity&& quantity) {
  try {
    return form.eval(vars);
  } catch (const Error& e) {
    if (e.kind() != ErrorKind::NotRepresentable) throw;
    std::string where;
    const std::size_t nvars = tmpl.ncoords + tmpl.size_symbols.size();
    for (std::size_t var = at_point ? 0 : tmpl.ncoords; var < nvars; ++var) {
      where += (where.empty() ? "" : ", ") + var_name(tmpl, var) + "=" +
               std::to_string(vars[var]);
    }
    const Int num = form.eval_scaled(vars);
    const Int g = gcd(num, form.den);
    raise(ErrorKind::NotRepresentable,
          "plan template: " + quantity() + " at " + where + ": " +
              form_string(tmpl, form) + " evaluates to the non-integer " +
              std::to_string(num / g) + "/" + std::to_string(form.den / g));
  }
}

}  // namespace

// Every value is an integer dot product against the template's coefficient
// tables, and per-point bookkeeping lives in flat arrays indexed with the
// PS box's row-major strides.
std::unique_ptr<NetworkPlan> expand_template(const PlanTemplate& tmpl,
                                             const Env& sizes) {
  auto plan_ptr = std::make_unique<NetworkPlan>();
  NetworkPlan& plan = *plan_ptr;
  plan.body = tmpl.body;
  plan.increment = tmpl.increment;

  // Bind the template variables: coordinates are rewritten per PS point,
  // sizes once per expansion.
  const std::size_t ncoords = tmpl.ncoords;
  std::vector<Int> vars(ncoords + tmpl.size_symbols.size(), 0);
  for (std::size_t i = 0; i < tmpl.size_symbols.size(); ++i) {
    auto it = sizes.find(tmpl.size_symbols[i]);
    if (it == sizes.end()) {
      raise(ErrorKind::Validation, "unbound symbol '" + tmpl.size_symbols[i] +
                                       "' in plan template expansion");
    }
    if (!it->second.is_integer()) {
      raise(ErrorKind::Validation,
            "plan template expansion requires integer problem sizes: '" +
                tmpl.size_symbols[i] + "' = " + it->second.to_string());
    }
    vars[ncoords + i] = it->second.num();
  }
  const Int* v = vars.data();
  auto bind_coords = [&vars, ncoords](const IntVec& y) {
    for (std::size_t i = 0; i < ncoords; ++i) vars[i] = y[i];
  };

  const std::size_t psdim = tmpl.ps_min.size();
  IntVec ps_min(psdim);
  IntVec ps_max(psdim);
  for (std::size_t i = 0; i < psdim; ++i) {
    ps_min[i] = eval_named(tmpl, tmpl.ps_min[i], v, false, [i] {
      return "PS box min component " + std::to_string(i);
    });
    ps_max[i] = eval_named(tmpl, tmpl.ps_max[i], v, false, [i] {
      return "PS box max component " + std::to_string(i);
    });
  }
  plan.ps_min = ps_min;
  plan.ps_max = ps_max;

  const PlanShape& shape = tmpl.shape;

  // Partitioning: map a process-space point to a dense shared-clock id
  // (-1 when unpartitioned: every process gets its own clock). Ids are
  // assigned in first-use order, which follows the spawn order below.
  std::map<IntVec, std::int32_t, IntVecLess> clock_ids;
  auto clock_for = [&](const IntVec& y) -> std::int32_t {
    if (shape.partition_grid.dim() == 0) return -1;
    if (shape.partition_grid.dim() != y.dim()) {
      raise(ErrorKind::Validation,
            "partition grid must have one entry per process-space "
            "dimension");
    }
    IntVec block(y.dim());
    for (std::size_t i = 0; i < y.dim(); ++i) {
      Int extent = ps_max[i] - ps_min[i] + 1;
      Int g =
          std::max<Int>(1, std::min<Int>(shape.partition_grid[i], extent));
      block[i] = (y[i] - ps_min[i]) * g / extent;
    }
    auto [it, inserted] = clock_ids.emplace(
        block, static_cast<std::int32_t>(clock_ids.size()));
    (void)inserted;
    return it->second;
  };

  // Enumerate the PS box (last dimension fastest) and precompute row-major
  // strides so per-point state lives in flat arrays.
  std::vector<IntVec> box;
  {
    IntVec y = ps_min;
    for (;;) {
      box.push_back(y);
      std::size_t i = y.dim();
      bool done = true;
      while (i > 0) {
        --i;
        if (++y[i] <= ps_max[i]) {
          done = false;
          break;
        }
        y[i] = ps_min[i];
        if (i == 0) break;
      }
      if (done) break;
    }
  }
  std::vector<Int> stride(psdim, 1);
  for (std::size_t i = psdim; i-- > 1;) {
    stride[i - 1] =
        checked_mul(stride[i], std::max<Int>(1, ps_max[i] - ps_min[i] + 1));
  }

  // CS membership per box point: the repeater's `first` cover. Also cache
  // each point's rendering — every process name embeds it, several times
  // across streams and roles.
  std::vector<char> in_cs(box.size(), 0);
  std::vector<std::string> point_str(box.size());
  for (std::size_t k = 0; k < box.size(); ++k) {
    bind_coords(box[k]);
    in_cs[k] = tmpl.first.covers(v) ? 1 : 0;
    point_str[k] = box[k].to_string();
  }

  // Ports of each computation process, indexed [box point][stream].
  struct Port {
    std::int32_t in = -1;
    std::int32_t out = -1;
    Int pipe_count = 0;
  };
  const std::size_t nstreams = tmpl.streams.size();
  std::vector<Port> ports(box.size() * nstreams);

  auto add_channel = [&](std::string name, std::uint32_t stream,
                         Int capacity) -> std::int32_t {
    auto id = static_cast<std::int32_t>(plan.channels.size());
    plan.channels.push_back(
        NetworkPlan::ChannelSpec{std::move(name), stream, capacity, -1, -1});
    return id;
  };

  for (std::uint32_t stream_id = 0; stream_id < nstreams; ++stream_id) {
    const PlanTemplate::StreamTemplate& st = tmpl.streams[stream_id];
    plan.streams.push_back(st.name);

    const IntVec& dir = st.direction;
    const Int q = st.denominator;
    const Int inner_buffers = shape.merge_internal_buffers ? 0 : q - 1;
    const Int hop_capacity = shape.channel_capacity +
                             (shape.merge_internal_buffers ? q - 1 : 0);

    // Group box points into pipes by their upstream anchor, the most
    // upstream box point on the line through y along dir. Pipes are
    // numbered by ascending anchor, which on the row-major box is
    // ascending box index, and a pipe's points run downstream by ascending
    // dot(dir), which is box-index order up to the sign of the per-step
    // index delta. The anchor is y - steps*dir with steps = min over dims
    // of the distance to the upstream box face (the PS box is a rectangle,
    // so every intermediate point is inside).
    Int delta = 0;
    for (std::size_t i = 0; i < psdim; ++i) delta += dir[i] * stride[i];
    std::vector<std::vector<std::uint32_t>> pipes_by_anchor(box.size());
    for (std::size_t k = 0; k < box.size(); ++k) {
      const IntVec& y = box[k];
      Int steps = -1;
      for (std::size_t i = 0; i < psdim; ++i) {
        const Int d = dir[i];
        if (d == 0) continue;
        const Int t = d > 0 ? (y[i] - ps_min[i]) / d : (ps_max[i] - y[i]) / -d;
        steps = steps < 0 ? t : std::min(steps, t);
      }
      const std::size_t ai =
          steps <= 0 ? k
                     : static_cast<std::size_t>(static_cast<Int>(k) -
                                                steps * delta);
      pipes_by_anchor[ai].push_back(static_cast<std::uint32_t>(k));
    }
    std::size_t pipe_idx = 0;
    for (std::size_t ai = 0; ai < pipes_by_anchor.size(); ++ai) {
      std::vector<std::uint32_t>& points = pipes_by_anchor[ai];
      if (points.empty()) continue;
      // Points arrive in ascending box index; downstream order (ascending
      // dot(dir)) is the same sequence, reversed when a +dir step moves
      // backwards through the row-major enumeration.
      if (delta < 0) std::reverse(points.begin(), points.end());
      const IntVec& a = box[ai];
      bind_coords(a);
      const LinForm* count_form = st.count_s.select(v);
      Int count = count_form == nullptr
                      ? 0
                      : eval_named(tmpl, *count_form, v, true, [&st] {
                          return "count_s of stream '" + st.name + "'";
                        });

      // Element identities in pipeline order, as one flat slice shared by
      // the pipe's input and output processes.
      const std::size_t elem_begin = plan.elems.size();
      if (count > 0) {
        const std::vector<LinForm>* first_form = st.first_s.select(v);
        if (first_form == nullptr) {
          raise(ErrorKind::Inconsistent,
                "stream '" + st.name + "': count_s > 0 but first_s null");
        }
        IntVec w(first_form->size());
        for (std::size_t i = 0; i < first_form->size(); ++i) {
          w[i] = eval_named(tmpl, (*first_form)[i], v, true, [&st, i] {
            return "first_s component " + std::to_string(i) + " of stream '" +
                   st.name + "'";
          });
        }
        for (Int t = 0; t < count; ++t) {
          plan.elems.push_back(w);
          w += st.increment_s;
        }
      }
      const std::size_t elem_end = plan.elems.size();

      // Channel chain: IN -> [bufs] -> y0 -> [bufs] -> y1 ... -> OUT.
      const std::string cname = st.pipe_prefix + std::to_string(pipe_idx) + "]";
      auto chan_name = [&cname](std::size_t link) {
        std::string s;
        s.reserve(cname.size() + 12);
        s += cname;
        s += '.';
        char buf[20];
        auto* end = std::to_chars(buf, buf + sizeof buf, link).ptr;
        s.append(buf, end);
        return s;
      };
      std::int32_t prev =
          add_channel(chan_name(0), stream_id, shape.channel_capacity);
      const std::int32_t head = prev;
      std::size_t link = 1;
      auto add_pass = [&](std::string name, std::int32_t in,
                          std::int32_t out, const IntVec& y) {
        auto id = static_cast<std::int32_t>(plan.procs.size());
        NetworkPlan::ProcSpec spec;
        spec.name = std::move(name);
        spec.kind = NetworkPlan::ProcKind::Pass;
        spec.clock = clock_for(y);
        spec.stream = stream_id;
        spec.chan_in = in;
        spec.chan_out = out;
        spec.count = count;
        spec.place = y;
        plan.procs.push_back(std::move(spec));
        plan.channels[in].receiver = id;
        plan.channels[out].sender = id;
        ++plan.buffer_count;
      };
      for (const std::uint32_t k : points) {
        const IntVec& y = box[k];
        // Internal buffers in front of every process on the pipe.
        for (Int bi = 0; bi < inner_buffers; ++bi) {
          std::int32_t next = add_channel(chan_name(link++), stream_id,
                                          shape.channel_capacity);
          add_pass(st.buf_prefix + point_str[k] + "#" + std::to_string(bi),
                   prev, next, y);
          prev = next;
        }
        std::int32_t next =
            add_channel(chan_name(link++), stream_id, hop_capacity);
        if (in_cs[k] != 0) {
          ports[k * nstreams + stream_id] = Port{prev, next, count};
        } else {
          // External buffer process: pass the whole pipeline (Eq. 10).
          add_pass(st.xbuf_prefix + point_str[k], prev, next, y);
        }
        prev = next;
      }

      // Input and output i/o processes for this pipe.
      {
        auto id = static_cast<std::int32_t>(plan.procs.size());
        NetworkPlan::ProcSpec spec;
        spec.name = st.in_prefix + point_str[ai];
        spec.kind = NetworkPlan::ProcKind::Input;
        spec.clock = clock_for(a);
        spec.stream = stream_id;
        spec.chan_out = head;
        spec.count = count;
        spec.elem_begin = elem_begin;
        spec.elem_end = elem_end;
        spec.place = a;
        plan.procs.push_back(std::move(spec));
        plan.channels[head].sender = id;
      }
      {
        const IntVec& tail = box[points.back()];
        auto id = static_cast<std::int32_t>(plan.procs.size());
        NetworkPlan::ProcSpec spec;
        spec.name = st.out_prefix + point_str[points.back()];
        spec.kind = NetworkPlan::ProcKind::Output;
        spec.clock = clock_for(tail);
        spec.stream = stream_id;
        spec.chan_in = prev;
        spec.count = count;
        spec.elem_begin = elem_begin;
        spec.elem_end = elem_end;
        spec.place = tail;
        plan.procs.push_back(std::move(spec));
        plan.channels[prev].receiver = id;
      }
      plan.io_count += 2;
      ++pipe_idx;
    }
  }

  // Computation processes.
  for (std::size_t k = 0; k < box.size(); ++k) {
    if (in_cs[k] == 0) continue;
    const IntVec& y = box[k];
    bind_coords(y);
    auto id = static_cast<std::int32_t>(plan.procs.size());
    NetworkPlan::ProcSpec spec;
    spec.name = "comp:" + point_str[k];
    spec.kind = NetworkPlan::ProcKind::Comp;
    spec.clock = clock_for(y);
    spec.count = eval_named(tmpl, *tmpl.count.select(v), v, true, [] {
      return std::string("count of the repeater");
    });
    const std::vector<LinForm>& first_form = *tmpl.first.select(v);
    IntVec first_x(first_form.size());
    for (std::size_t i = 0; i < first_form.size(); ++i) {
      first_x[i] = eval_named(tmpl, first_form[i], v, true, [i] {
        return "first component " + std::to_string(i) + " of the repeater";
      });
    }
    spec.first_x = std::move(first_x);
    spec.place = y;
    spec.role_begin = plan.roles.size();
    for (std::uint32_t stream_id = 0; stream_id < nstreams; ++stream_id) {
      const PlanTemplate::StreamTemplate& st = tmpl.streams[stream_id];
      NetworkPlan::RoleSpec role;
      role.stream = stream_id;
      role.stationary = st.stationary;
      const LinForm* soak = st.soak.select(v);
      const LinForm* drain = st.drain.select(v);
      if (soak == nullptr || drain == nullptr) {
        raise(ErrorKind::Inconsistent,
              "computation process " + y.to_string() +
                  " lacks soak/drain for stream '" + st.name + "'");
      }
      role.soak = eval_named(tmpl, *soak, v, true, [&st] {
        return "soak of stream '" + st.name + "'";
      });
      role.drain = eval_named(tmpl, *drain, v, true, [&st] {
        return "drain of stream '" + st.name + "'";
      });
      const Port& port = ports[k * nstreams + stream_id];
      role.chan_in = port.in;
      role.chan_out = port.out;
      plan.channels[port.in].receiver = id;
      plan.channels[port.out].sender = id;
      // Conservation law: everything that enters a process leaves it.
      Int through = role.stationary ? role.soak + role.drain + 1
                                    : role.soak + spec.count + role.drain;
      if (through != port.pipe_count) {
        raise(ErrorKind::Inconsistent,
              "stream '" + st.name + "' at " + y.to_string() +
                  ": soak+uses+drain = " + std::to_string(through) +
                  " but the pipeline carries " +
                  std::to_string(port.pipe_count) + " elements");
      }
      plan.roles.push_back(std::move(role));
    }
    spec.role_end = plan.roles.size();
    plan.procs.push_back(std::move(spec));
    ++plan.comp_count;
  }
  plan.clock_count = clock_ids.size();
  return plan_ptr;
}

std::unique_ptr<NetworkPlan> build_plan(const CompiledProgram& program,
                                        const LoopNest& nest,
                                        const Env& sizes,
                                        const PlanShape& shape) {
  return expand_template(*compile_template(program, nest, shape), sizes);
}

}  // namespace systolize
