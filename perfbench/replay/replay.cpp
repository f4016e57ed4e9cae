// Traced in-process replay of one benchmark workload.
//
//   perfbench_replay <ops-file> <seconds>
//
// Each line of the ops file is one op of the workload's seeded sequence:
//
//   run     <class> <file.sa> <n>
//   serve   <class> <request-json>
//   burst   <class> <count> <request-json>
//   explore <class> <design> <coeff-range> <same-projection 0|1> <sizes>
//   analyze <class> <design> <sizes>
//
// The ops run through each layer's public functions, in the order the
// real binaries call them, plus side calls that cost the layers the real
// path skips or hides (template compile and lowering next to build_plan,
// the instrumented and bytecode engines next to the interpreter, the
// stage-by-stage explore pipeline next to enumerate_designs). One warm-up
// op per class runs first, untimed. The sequence is then replayed until it
// ends or the time budget runs out, each op twice in a row: once with
// spans on and once with spans off, alternating which goes first, so the
// paired difference of the two times is the tracing overhead. Spans stay
// in memory and are printed at the end:
//
//   optime <traced 0|1> <op> <class> <ns>
//   span   <op> <id> <parent> <name> <start-ns> <end-ns>
//   count  <op> <name> <value>
//   result <op> <class> <key>=<value>...
//   fail   <op> <class> <reason>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost.hpp"
#include "analysis/verify.hpp"
#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/plan_template.hpp"
#include "scheme/compiler.hpp"
#include "service/executor.hpp"
#include "service/json.hpp"
#include "systolic/enumerate.hpp"

namespace {

using namespace systolize;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- tracing

struct Span {
  int id = 0;
  int parent = -1;
  long op = 0;
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class Tracer {
 public:
  bool enabled = false;

  int open(const char* name) {
    if (!enabled) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, current_, op_, name, now_ns(), 0});
    current_ = id;
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void set_op(long op) { op_ = op; }
  void count(const std::string& name, double value) {
    if (enabled) counts_.push_back({op_, name, value});
  }

  void print(std::ostream& os) const {
    for (const Span& s : spans_) {
      os << "span " << s.op << ' ' << s.id << ' ' << s.parent << ' '
         << s.name << ' ' << s.start << ' ' << s.end << '\n';
    }
    for (const Count& c : counts_) {
      os << "count " << c.op << ' ' << c.name << ' ' << c.value << '\n';
    }
  }

 private:
  struct Count {
    long op;
    std::string name;
    double value;
  };
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  int current_ = -1;
  long op_ = 0;
};

/// One span around a scope.
class Scope {
 public:
  Scope(Tracer& t, const char* name)
      : t_(t), id_(t.open(name)), start_(now_ns()) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t elapsed_ns() const { return now_ns() - start_; }

 private:
  Tracer& t_;
  int id_;
  std::int64_t start_;
};

// ------------------------------------------------------- shared helpers

/// The CLI's and the daemon's seeding (tools/systolize_cli.cpp,
/// service/executor.cpp): lane `b` is deterministically perturbed.
IndexedStore seeded_store(const Design& design, const Env& sizes, Int b) {
  return make_initial_store(
      design.nest, sizes, [b](const std::string& var, const IntVec& p) {
        Value h = var.empty() ? 1 : var[0];
        for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
        return (h + 13 * b) % 23 - 11;
      });
}

Env sizes_of(const Design& design, Int n, Int m) {
  Env sizes;
  for (const Symbol& s : design.nest.sizes()) {
    sizes[s.name()] = Rational(s.name() == "m" ? m : n);
  }
  return sizes;
}

std::vector<Env> probe_sizes(const Design& design, const std::string& csv) {
  std::vector<Env> envs;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    envs.push_back(sizes_of(design, std::stoll(item), 3));
  }
  return envs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The daemon's per-request engine options (service/executor.cpp): the
/// default round budget and wall-clock deadline, which keep solo runs on
/// the instrumented scheduler.
void daemon_watchdog(InstantiateOptions& iopt, service::DeadlineTimer& timer) {
  const service::ExecutorConfig defaults;
  iopt.watchdog.max_rounds = defaults.default_round_budget;
  timer.arm(defaults.default_wall_timeout_ms);
  iopt.watchdog.cancel = timer.token();
  iopt.watchdog.cancel_kind = ErrorKind::Timeout;
  iopt.watchdog.cancel_reason = "wall-clock deadline exceeded";
}

/// Bulk gather of every stream's domain out of `from` and scatter into
/// `to`: the host-store traffic an engine does at injection/extraction.
void gather_scatter(const Design& design, const Env& sizes,
                    const IndexedStore& from, IndexedStore& to) {
  for (const Stream& s : design.nest.streams()) {
    const std::vector<IntVec> dom = IndexedStore::domain(s, sizes);
    std::vector<Value> vals(dom.size());
    from.gather(s.name(), dom.data(), dom.size(), vals.data());
    to.scatter(s.name(), dom.data(), dom.size(), vals.data());
  }
}

bool same_outputs(const Design& design, const IndexedStore& a,
                  const IndexedStore& b) {
  for (const Stream& s : design.nest.streams()) {
    if (a.elements(s.name()) != b.elements(s.name())) return false;
  }
  return true;
}

IntVec oriented(IntVec v) {
  for (std::size_t i = 0; i < v.dim(); ++i) {
    if (v[i] == 0) continue;
    if (v[i] < 0) {
      for (std::size_t j = 0; j < v.dim(); ++j) v[j] = -v[j];
    }
    break;
  }
  return v;
}

struct Outcome {
  std::map<std::string, Int> values;  ///< compared against the real binary
  std::string failure;                ///< empty = the op checked out
};

// ------------------------------------------------------------- the ops

class Replay {
 public:
  explicit Replay(Tracer& t) : t_(t) {}

  Outcome run(const std::vector<std::string>& f) {
    const std::string& path = f.at(2);
    const Int n = std::stoll(f.at(3));
    std::optional<Design> design;
    {
      Scope s(t_, "frontend.parse");
      design.emplace(frontend::parse_design(read_file(path)));
    }
    const Design& d = *design;
    const Env sizes = sizes_of(d, n, 3);
    std::optional<CompiledProgram> prog;
    {
      Scope s(t_, "scheme.compile");
      prog.emplace(compile(d.nest, d.spec));
    }
    t_.count("scheme.compiles", 1);
    {
      Scope s(t_, "plan.build");
      const auto plan = build_plan(*prog, d.nest, sizes, PlanShape{});
      t_.count("plan.processes", static_cast<double>(plan->procs.size()));
      t_.count("plan.channels", static_cast<double>(plan->channels.size()));
    }
    // Side call the one-shot CLI does not make: the template pipeline.
    (void)template_stages(*prog, d.nest, sizes);
    // Warm the cache the three engine runs share, outside any span.
    PlanCache cache;
    (void)cache.lookup_or_lower(
        cache.lookup_or_build(*prog, d.nest, sizes, PlanShape{}));

    std::optional<IndexedStore> store;
    {
      Scope s(t_, "host.seed");
      store.emplace(seeded_store(d, sizes, 0));
    }
    IndexedStore expected = *store;
    IndexedStore interp_out = *store;
    IndexedStore instr_out = *store;
    IndexedStore vm_out = *store;

    InstantiateOptions iopt;
    iopt.plan_cache = &cache;
    iopt.backend = Backend::Interp;
    RunMetrics m;
    {
      Scope s(t_, "engine.interp");
      m = execute(*prog, d.nest, sizes, interp_out, iopt);
    }
    // Side calls: the instrumented and bytecode engines on the same plan,
    // and the host-store traffic an engine does.
    RunMetrics mi;
    {
      service::DeadlineTimer timer;
      InstantiateOptions wopt = iopt;
      daemon_watchdog(wopt, timer);
      Scope s(t_, "engine.instrumented");
      mi = execute(*prog, d.nest, sizes, instr_out, wopt);
    }
    RunMetrics mv;
    {
      InstantiateOptions bopt = iopt;
      bopt.backend = Backend::Bytecode;
      Scope s(t_, "engine.vm");
      mv = execute(*prog, d.nest, sizes, vm_out, bopt);
      t_.count("engine.vm_lane_us", static_cast<double>(s.elapsed_ns()) / 1e3);
    }
    {
      IndexedStore sink;
      Scope s(t_, "host.gather_scatter");
      gather_scatter(d, sizes, *store, sink);
    }
    {
      Scope s(t_, "baseline.sequential");
      run_sequential(d.nest, sizes, expected);
    }
    bool same = false;
    {
      Scope s(t_, "baseline.compare");
      same = same_outputs(d, interp_out, expected);
    }
    count_engine(m);

    Outcome out = outcome_of(m);
    if (!same || !same_outputs(d, instr_out, expected) ||
        !same_outputs(d, vm_out, expected)) {
      out.failure = "engine outputs differ from the sequential baseline";
    } else if (!same_schedule(m, mi) || !same_schedule(m, mv)) {
      out.failure = "engines disagree on makespan, statements or transfers";
    }
    return out;
  }

  Outcome serve(service::Executor& exec, const std::vector<std::string>& f,
                std::size_t count) {
    const std::string& line = f.back();
    std::vector<service::Request> reqs;
    for (std::size_t i = 0; i < count; ++i) {
      Scope s(t_, "service.protocol");
      reqs.push_back(service::parse_request(line));
      reqs.back().id = static_cast<Int>(i + 1);
    }
    std::vector<service::Response> rs;
    {
      Scope s(t_, "service.handle");
      if (count == 1) {
        rs.push_back(exec.handle(reqs.front()));
      } else {
        rs = exec.handle_group(reqs);
      }
    }
    for (const service::Response& r : rs) {
      Scope s(t_, "service.protocol");
      (void)r.to_json();
    }

    // Side calls with the daemon's options: the plan stages its setup
    // paid once per class, its deadline timer, the per-lane store seeding
    // and the engine run, against a cache the warm-up filled.
    const service::Request& req = reqs.front();
    const std::size_t lanes = count * static_cast<std::size_t>(req.batch);
    Compiled& c = compiled(req.design);
    const Env sizes = sizes_of(c.design, req.n, req.m);
    const auto plan = template_stages(c.prog, c.design.nest, sizes);
    t_.count("plan.processes", static_cast<double>(plan->procs.size()));
    t_.count("plan.channels", static_cast<double>(plan->channels.size()));
    {
      Scope s(t_, "service.timer");
      service::DeadlineTimer timer;
      timer.arm(service::ExecutorConfig{}.default_wall_timeout_ms);
      timer.disarm();
    }
    std::vector<IndexedStore> stores;
    {
      Scope s(t_, "host.seed");
      stores.reserve(lanes);
      for (std::size_t b = 0; b < lanes; ++b) {
        stores.push_back(seeded_store(c.design, sizes,
                                      static_cast<Int>(b) % req.batch));
      }
    }
    InstantiateOptions iopt;
    iopt.plan_cache = &cache_;
    service::DeadlineTimer timer;
    daemon_watchdog(iopt, timer);
    RunMetrics m;
    if (lanes == 1) {
      Scope s(t_, "engine.instrumented");
      m = execute(c.prog, c.design.nest, sizes, stores.front(), iopt);
    } else {
      Scope s(t_, "engine.vm");
      m = execute_batch(c.prog, c.design.nest, sizes, stores.data(), lanes,
                        iopt);
      t_.count("engine.vm_lane_us",
               static_cast<double>(s.elapsed_ns()) / 1e3 /
                   static_cast<double>(lanes));
    }
    timer.disarm();
    {
      IndexedStore sink;
      Scope s(t_, "host.gather_scatter");
      for (const IndexedStore& st : stores) {
        gather_scatter(c.design, sizes, st, sink);
      }
    }
    count_engine(m);

    Outcome out = outcome_of(m);
    for (const service::Response& r : rs) {
      if (r.status != "ok") {
        out.failure = "in-process handle returned " + r.status + ": " +
                      r.message;
        return out;
      }
      const service::Json metrics = service::Json::parse(r.metrics_json);
      if (metrics.int_or("makespan", -1) != m.makespan ||
          metrics.int_or("statements", -1) != m.statements ||
          metrics.int_or("total_transfers", -1) != m.total_transfers) {
        out.failure = "handle and the side engine run disagree";
      }
    }
    return out;
  }

  Outcome explore(const std::vector<std::string>& f) {
    const Design d = design_by_name(f.at(2));
    const Int coeff_range = std::stoll(f.at(3));
    const bool same_projection = f.at(4) == "1";
    {
      Scope s(t_, "analysis.verify_spec");
      (void)verify_spec(d.nest, d.spec);
    }
    EnumerateOptions eopt;
    eopt.coeff_range = coeff_range;
    eopt.sizes = probe_sizes(d, f.at(5));
    eopt.same_projection = same_projection;
    ExploreResult result;
    {
      Scope s(t_, "explore.enumerate");
      result = enumerate_designs(d.nest, &d.spec, eopt);
    }
    const ExploreStats& st = result.stats;
    t_.count("explore.candidates", static_cast<double>(st.enumerated));
    t_.count("explore.pruned.rank", static_cast<double>(st.pruned_rank));
    t_.count("explore.pruned.projection",
             static_cast<double>(st.pruned_projection));
    t_.count("explore.pruned.theorem3",
             static_cast<double>(st.pruned_theorem3));
    t_.count("explore.pruned.stationary",
             static_cast<double>(st.pruned_stationary));
    t_.count("explore.pruned.spec", static_cast<double>(st.pruned_spec));
    t_.count("explore.pruned.compile", static_cast<double>(st.pruned_compile));
    t_.count("explore.pruned.program", static_cast<double>(st.pruned_program));
    t_.count("explore.pruned.plan", static_cast<double>(st.pruned_plan));
    t_.count("explore.survivors", static_cast<double>(st.survivors));

    // Side replay of the pipeline stage by stage through public calls; it
    // must keep the survivors enumerate_designs kept.
    std::vector<ArraySpec> candidates;
    {
      Scope s(t_, "explore.spec_front");
      candidates = enumerate_spec_candidates(
          d.nest, coeff_range, std::numeric_limits<std::size_t>::max());
    }
    const IntVec projection =
        oriented(d.spec.place().null_generator().normalized());
    std::size_t survivors = 0;
    std::size_t compiles = 0;
    for (const ArraySpec& spec : candidates) {
      if (same_projection &&
          oriented(spec.place().null_generator().normalized()) != projection) {
        continue;
      }
      std::optional<CompiledProgram> prog;
      try {
        Scope s(t_, "scheme.compile");
        ++compiles;
        prog.emplace(compile(d.nest, spec));
      } catch (const Error&) {
        continue;
      }
      {
        Scope s(t_, "analysis.verify_program");
        if (!verify_program(*prog, d.nest).clean()) continue;
      }
      bool plan_ok = true;
      try {
        for (const Env& env : eopt.sizes) {
          std::unique_ptr<NetworkPlan> plan;
          {
            Scope s(t_, "plan.build");
            plan = build_plan(*prog, d.nest, env, PlanShape{});
          }
          {
            Scope s(t_, "analysis.verify_plan");
            plan_ok = verify_plan(*plan).clean();
          }
          if (!plan_ok) break;
          Scope s(t_, "analysis.cost");
          (void)cost_metrics_of(*prog, d.nest, env, *plan);
        }
      } catch (const Error&) {
        plan_ok = false;
      }
      if (plan_ok) ++survivors;
    }
    t_.count("scheme.compiles", static_cast<double>(compiles));

    Outcome out;
    out.values["survivors"] = static_cast<Int>(st.survivors);
    if (result.ranked.empty()) {
      out.failure = "no survivor";
      return out;
    }
    const CostMetrics& best = result.ranked.front().cost.at.back().metrics;
    out.values["makespan"] = best.makespan;
    out.values["statements"] = best.total_work;
    out.values["seed_first"] = result.ranked.front().matches_seed ? 1 : 0;
    if (survivors != st.survivors) {
      out.failure = "stage-by-stage replay kept " + std::to_string(survivors) +
                    " survivors, enumerate_designs " +
                    std::to_string(st.survivors);
    }
    return out;
  }

  Outcome analyze(const std::vector<std::string>& f) {
    const Design d = design_by_name(f.at(2));
    const std::vector<Env> envs = probe_sizes(d, f.at(3));
    {
      Scope s(t_, "analysis.verify_spec");
      (void)verify_spec(d.nest, d.spec);
    }
    std::optional<CompiledProgram> prog;
    {
      Scope s(t_, "scheme.compile");
      prog.emplace(compile(d.nest, d.spec));
    }
    t_.count("scheme.compiles", 1);
    {
      Scope s(t_, "analysis.verify_program");
      (void)verify_program(*prog, d.nest);
    }
    CostReport cost;
    {
      Scope s(t_, "analysis.cost");
      cost = analyze_cost(*prog, d.nest, envs);
    }
    const CostMetrics& last = cost.at.back().metrics;
    t_.count("plan.processes", static_cast<double>(last.processes));
    t_.count("plan.channels", static_cast<double>(last.channels));
    Outcome out;
    out.values["makespan"] = last.makespan;
    out.values["statements"] = last.total_work;
    return out;
  }

  /// Compile the design of a serve class once, outside any timed op.
  void prepare_serve(const std::string& line) {
    const service::Request req = service::parse_request(line);
    Compiled& c = compiled(req.design);
    (void)cache_.lookup_or_lower(cache_.lookup_or_build(
        c.prog, c.design.nest, sizes_of(c.design, req.n, req.m),
        PlanShape{}));
  }

 private:
  /// Side spans for the template pipeline's stages: compile_template,
  /// expand_template and lower_plan. Returns the expanded plan.
  std::unique_ptr<NetworkPlan> template_stages(const CompiledProgram& prog,
                                               const LoopNest& nest,
                                               const Env& sizes) {
    std::shared_ptr<const PlanTemplate> tmpl;
    {
      Scope s(t_, "plan.template_compile");
      tmpl = compile_template(prog, nest, PlanShape{});
    }
    std::unique_ptr<NetworkPlan> plan;
    {
      Scope s(t_, "plan.expand");
      plan = expand_template(*tmpl, sizes);
    }
    Scope s(t_, "bytecode.lower");
    const auto code = lower_plan(*plan);
    t_.count("bytecode.instructions",
             static_cast<double>(code->instruction_count()));
    return plan;
  }

  struct Compiled {
    explicit Compiled(Design d)
        : design(std::move(d)), prog(compile(design.nest, design.spec)) {}
    Design design;
    CompiledProgram prog;
  };

  Compiled& compiled(const std::string& name) {
    auto it = compiled_.find(name);
    if (it == compiled_.end()) {
      it = compiled_
               .emplace(name, std::make_unique<Compiled>(design_by_name(name)))
               .first;
    }
    return *it->second;
  }

  void count_engine(const RunMetrics& m) {
    t_.count("engine.transfers", static_cast<double>(m.total_transfers));
    t_.count("engine.statements", static_cast<double>(m.statements));
    t_.count("engine.rounds", static_cast<double>(m.scheduler_rounds));
  }

  static Outcome outcome_of(const RunMetrics& m) {
    Outcome out;
    out.values["makespan"] = m.makespan;
    out.values["statements"] = m.statements;
    out.values["transfers"] = m.total_transfers;
    return out;
  }

  static bool same_schedule(const RunMetrics& a, const RunMetrics& b) {
    return a.makespan == b.makespan && a.statements == b.statements &&
           a.total_transfers == b.total_transfers;
  }

  Tracer& t_;
  PlanCache cache_;
  std::map<std::string, std::unique_ptr<Compiled>> compiled_;
};

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

Outcome dispatch(Replay& replay, service::Executor& exec,
                 const std::vector<std::string>& f) {
  const std::string& kind = f.at(0);
  if (kind == "run") return replay.run(f);
  if (kind == "serve") return replay.serve(exec, f, 1);
  if (kind == "burst") {
    return replay.serve(exec, f, static_cast<std::size_t>(std::stoul(f.at(2))));
  }
  if (kind == "explore") return replay.explore(f);
  if (kind == "analyze") return replay.analyze(f);
  throw std::runtime_error("unknown op kind " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_replay <ops-file> <seconds>\n";
    return 2;
  }
  std::vector<std::vector<std::string>> ops;
  {
    std::ifstream in(argv[1]);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ops.push_back(split(line));
    }
  }
  if (ops.empty()) {
    std::cerr << "perfbench_replay: no ops in " << argv[1] << "\n";
    return 2;
  }
  const auto budget_ns = static_cast<std::int64_t>(std::stod(argv[2]) * 1e9);

  std::ostringstream out;
  Tracer tracer;
  Replay replay(tracer);
  service::Executor exec;
  // Warm-up, untimed: one op per class fills the daemon-side caches.
  std::map<std::string, bool> warmed;
  try {
    for (const auto& f : ops) {
      if (warmed[f.at(1)]) continue;
      warmed[f.at(1)] = true;
      if (f.at(0) == "serve" || f.at(0) == "burst") {
        replay.prepare_serve(f.back());
      }
      (void)dispatch(replay, exec, f);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_replay: warm-up failed: " << e.what() << "\n";
    return 1;
  }
  const std::int64_t deadline = now_ns() + budget_ns;
  for (std::size_t i = 0; i < ops.size() && now_ns() < deadline; ++i) {
    const auto& f = ops[i];
    const long op = static_cast<long>(i);
    tracer.set_op(op);
    for (int k = 0; k < 2; ++k) {
      tracer.enabled = (k == 0) == (i % 2 == 0);
      Outcome outcome;
      const std::int64_t start = now_ns();
      {
        Scope root(tracer, "op");
        try {
          outcome = dispatch(replay, exec, f);
        } catch (const std::exception& e) {
          outcome.failure = e.what();
        }
      }
      out << "optime " << (tracer.enabled ? 1 : 0) << ' ' << op << ' '
          << f.at(1) << ' ' << (now_ns() - start) << '\n';
      if (!tracer.enabled) continue;
      out << "result " << op << ' ' << f.at(1);
      for (const auto& [key, value] : outcome.values) {
        out << ' ' << key << '=' << value;
      }
      out << '\n';
      if (!outcome.failure.empty()) {
        std::string reason = outcome.failure;
        for (char& ch : reason) {
          if (ch == '\n') ch = ' ';
        }
        out << "fail " << op << ' ' << f.at(1) << ' ' << reason << '\n';
      }
    }
  }
  std::cout << out.str();
  tracer.print(std::cout);
  return 0;
}
