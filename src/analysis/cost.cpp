#include "analysis/cost.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "runtime/bytecode.hpp"

namespace systolize {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

Int abs_int(Int v) { return v < 0 ? -v : v; }

/// Render a product of affine factors, e.g. "(n + 1) * (2*n + 1)".
std::string product_to_string(const std::vector<AffineExpr>& factors) {
  if (factors.empty()) return "1";
  std::ostringstream os;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (i > 0) os << " * ";
    const std::string f = factors[i].to_string();
    if (f.find(' ') != std::string::npos) {
      os << '(' << f << ')';
    } else {
      os << f;
    }
  }
  return os.str();
}

/// The dependence chain of an Update stream runs along the null direction
/// d of its index map: statements x and x + k*d touch the same element.
/// Its length inside the index-space box is min over the non-zero
/// components of (extent_i / |d_i|), plus one.
std::string chain_formula_of(const Stream& s, const LoopNest& nest) {
  const std::vector<IntVec> basis = s.index_map().null_space_basis();
  if (basis.size() != 1) return "(by enumeration)";
  const IntVec& d = basis.front();
  const std::vector<LoopSpec>& loops = nest.loops();

  std::vector<std::string> terms;
  bool single_unit = false;
  AffineExpr single_extent;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (d[i] == 0) continue;
    AffineExpr extent = loops[i].upper - loops[i].lower;
    const Int k = abs_int(d[i]);
    if (k == 1) {
      single_unit = terms.empty();
      single_extent = extent;
      terms.push_back(extent.to_string());
    } else {
      single_unit = false;
      terms.push_back(std::string("(")
                          .append(extent.to_string())
                          .append(")/")
                          .append(std::to_string(k)));
    }
  }
  if (terms.empty()) return "1";
  if (terms.size() == 1) {
    if (single_unit) return (single_extent + AffineExpr(1)).to_string();
    return terms.front() + " + 1";
  }
  std::ostringstream os;
  os << "min(";
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) os << ", ";
    os << terms[i];
  }
  os << ") + 1";
  return os.str();
}

Int chain_length_at(const Stream& s, const LoopNest& nest, const Env& env) {
  const std::vector<IntVec> basis = s.index_map().null_space_basis();
  const std::vector<LoopSpec>& loops = nest.loops();
  if (basis.size() == 1) {
    const IntVec& d = basis.front();
    Int best = -1;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (d[i] == 0) continue;
      const Int extent =
          (loops[i].upper - loops[i].lower).evaluate(env).floor();
      const Int len = extent / abs_int(d[i]) + 1;
      if (best < 0 || len < best) best = len;
    }
    return best < 0 ? 1 : best;
  }
  // Degenerate index map (null space not one-dimensional): count element
  // multiplicities directly. Still static — a walk of IS, no scheduler.
  std::map<IntVec, Int, IntVecLess> mult;
  Int best = 1;
  for (const IntVec& x : nest.enumerate_index_space(env)) {
    best = std::max(best, ++mult[s.element_of(x)]);
  }
  return best;
}

}  // namespace

std::string CostFormulas::ps_box_to_string() const {
  return product_to_string(ps_extents);
}

std::string CostFormulas::work_to_string() const {
  return product_to_string(is_extents);
}

std::string CostFormulas::chain_to_string() const {
  if (chain_formulas.empty()) return "1";
  if (chain_formulas.size() == 1) return chain_formulas.front();
  std::ostringstream os;
  os << "max(";
  for (std::size_t i = 0; i < chain_formulas.size(); ++i) {
    if (i > 0) os << ", ";
    os << chain_formulas[i];
  }
  os << ')';
  return os.str();
}

CostFormulas derive_cost_formulas(const CompiledProgram& program,
                                  const LoopNest& nest) {
  CostFormulas f;
  const IntVec& c = program.step.coeffs();
  for (std::size_t i = 0; i < nest.loops().size(); ++i) {
    const LoopSpec& loop = nest.loops()[i];
    AffineExpr extent = loop.upper - loop.lower;
    f.makespan += extent * Rational(abs_int(c[i]));
    f.is_extents.push_back(extent + AffineExpr(1));
  }
  for (std::size_t d = 0; d < program.ps.min.dim(); ++d) {
    f.ps_extents.push_back(program.ps.max[d] - program.ps.min[d] +
                           AffineExpr(1));
  }
  for (const Stream& s : nest.streams()) {
    if (s.access() != StreamAccess::Update) continue;
    f.chain_formulas.push_back(chain_formula_of(s, nest));
  }
  return f;
}

CostMetrics cost_metrics_of(const CompiledProgram& program,
                            const LoopNest& nest, const Env& sizes,
                            const NetworkPlan& plan) {
  return cost_metrics_of(program, nest, sizes, plan, *lower_plan(plan));
}

CostMetrics cost_metrics_of(const CompiledProgram& program,
                            const LoopNest& nest, const Env& sizes,
                            const NetworkPlan& plan,
                            const BytecodeProgram& bytecode) {
  CostMetrics m;
  m.processes = static_cast<Int>(plan.procs.size());
  m.comp = static_cast<Int>(plan.comp_count);
  m.io = static_cast<Int>(plan.io_count);
  m.buffer = static_cast<Int>(plan.buffer_count);
  m.channels = static_cast<Int>(plan.channels.size());

  const CostFormulas formulas = derive_cost_formulas(program, nest);
  m.makespan = formulas.makespan.evaluate(sizes).floor();
  m.total_work = nest.index_space_size(sizes);

  for (const NetworkPlan::RoleSpec& role : plan.roles) {
    m.soak_max = std::max(m.soak_max, role.soak);
    m.drain_max = std::max(m.drain_max, role.drain);
  }

  Int comp_work = 0;
  for (const NetworkPlan::ProcSpec& p : plan.procs) {
    if (p.kind != NetworkPlan::ProcKind::Comp) continue;
    m.max_proc_work = std::max(m.max_proc_work, p.count);
    comp_work += p.count;
  }
  if (m.comp > 0 && comp_work > 0) {
    m.imbalance = Rational(m.max_proc_work * m.comp, comp_work);
    m.overhead = Rational(m.io + m.buffer, m.comp);
  }

  m.longest_chain = 1;
  for (const Stream& s : nest.streams()) {
    if (s.access() != StreamAccess::Update) continue;
    m.longest_chain = std::max(m.longest_chain, chain_length_at(s, nest, sizes));
  }

  m.bytecode_instructions = static_cast<Int>(bytecode.instruction_count());
  m.bytecode_bytes = static_cast<Int>(bytecode.memory_bytes());
  return m;
}

CostMetrics analyze_cost_at(const CompiledProgram& program,
                            const LoopNest& nest, const Env& sizes,
                            const PlanShape& shape, PlanCache* cache) {
  std::shared_ptr<const NetworkPlan> plan;
  if (cache != nullptr) {
    plan = cache->lookup_or_build(program, nest, sizes, shape);
  } else {
    plan = build_plan(program, nest, sizes, shape);
  }
  return cost_metrics_of(program, nest, sizes, *plan);
}

CostReport analyze_cost(const CompiledProgram& program, const LoopNest& nest,
                        const std::vector<Env>& size_envs,
                        const PlanShape& shape, PlanCache* cache) {
  CostReport report;
  report.design = program.name;
  report.formulas = derive_cost_formulas(program, nest);
  for (const Env& env : size_envs) {
    CostReport::AtSize row;
    for (const auto& [name, value] : env) row.sizes[name] = value.floor();
    row.metrics = analyze_cost_at(program, nest, env, shape, cache);
    report.at.push_back(std::move(row));
  }
  return report;
}

std::string CostReport::to_string() const {
  std::ostringstream os;
  os << "cost " << design << ":\n"
     << "  makespan      = " << formulas.makespan.to_string()
     << "   (last step - first)\n"
     << "  ps box        = " << formulas.ps_box_to_string() << "\n"
     << "  total work    = " << formulas.work_to_string() << "\n"
     << "  longest chain = " << formulas.chain_to_string() << "\n";
  for (const AtSize& row : at) {
    os << "  at";
    for (const auto& [name, value] : row.sizes) {
      os << ' ' << name << '=' << value;
    }
    const CostMetrics& m = row.metrics;
    os << ": processes=" << m.processes << " (comp=" << m.comp
       << " io=" << m.io << " buffer=" << m.buffer << ")"
       << " channels=" << m.channels << "\n    makespan=" << m.makespan
       << " soak<=" << m.soak_max << " drain<=" << m.drain_max
       << " chain=" << m.longest_chain << " work=" << m.total_work
       << " max/proc=" << m.max_proc_work
       << " imbalance=" << m.imbalance.to_string()
       << " overhead=" << m.overhead.to_string()
       << "\n    bytecode: insns=" << m.bytecode_instructions
       << " bytes=" << m.bytecode_bytes << "\n";
  }
  return os.str();
}

std::string CostReport::to_json() const {
  std::ostringstream os;
  os << "{\"design\":\"" << json_escape(design) << "\",\"formulas\":{"
     << "\"makespan\":\"" << json_escape(formulas.makespan.to_string())
     << "\",\"ps_box\":\"" << json_escape(formulas.ps_box_to_string())
     << "\",\"work\":\"" << json_escape(formulas.work_to_string())
     << "\",\"chain\":\"" << json_escape(formulas.chain_to_string())
     << "\"},\"at\":[";
  for (std::size_t i = 0; i < at.size(); ++i) {
    if (i > 0) os << ',';
    const AtSize& row = at[i];
    os << "{\"sizes\":{";
    bool first = true;
    for (const auto& [name, value] : row.sizes) {
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(name) << "\":" << value;
    }
    const CostMetrics& m = row.metrics;
    os << "},\"processes\":" << m.processes << ",\"comp\":" << m.comp
       << ",\"io\":" << m.io << ",\"buffer\":" << m.buffer
       << ",\"channels\":" << m.channels << ",\"makespan\":" << m.makespan
       << ",\"soak_max\":" << m.soak_max << ",\"drain_max\":" << m.drain_max
       << ",\"longest_chain\":" << m.longest_chain
       << ",\"total_work\":" << m.total_work
       << ",\"max_proc_work\":" << m.max_proc_work << ",\"imbalance\":\""
       << m.imbalance.to_string() << "\",\"overhead\":\""
       << m.overhead.to_string()
       << "\",\"bytecode_instructions\":" << m.bytecode_instructions
       << ",\"bytecode_bytes\":" << m.bytecode_bytes << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace systolize
