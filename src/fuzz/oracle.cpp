// The differential oracle: one sample, two independent judgments —
//
//   static  = validate_source + verify_spec + compile + verify_design
//   dynamic = the sequential baseline vs every eligible backend
//
// A statically-clean design must run on every backend and reproduce the
// baseline's results and the reference engine's schedule metrics; a
// statically-rejected one must be refused by compile/instantiate, fail at
// runtime, or produce diverging results. Rejections on *model* rules
// (flow discipline, dependence rules whose violations commute away in an
// associative accumulation body) are tolerated when the run still
// matches; rejections on *semantic* rules (injectivity, arity, rank) are
// not — see docs/static-analysis.md "Differential fuzzing".
#include <optional>
#include <sstream>

#include "analysis/verify.hpp"
#include "baseline/sequential.hpp"
#include "frontend/parser.hpp"
#include "fuzz/fuzz.hpp"
#include "loopnest/validate.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

namespace systolize::fuzz {
namespace {

/// Same deterministic value seeding as the CLI and the bytecode
/// differential suite: FNV-mix of the variable name and coordinates,
/// offset per batch lane so cross-lane mixups cannot cancel out.
Value pseudo_random(const std::string& var, const IntVec& p) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : var) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
  }
  for (std::size_t i = 0; i < p.dim(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(p[i] + 1315423911LL)) *
        1099511628211ULL;
  }
  return static_cast<Value>(h) % 19 - 9;
}

IndexedStore seeded_lane(const LoopNest& nest, const Env& sizes, Int lane) {
  return make_initial_store(nest, sizes,
                            [lane](const std::string& v, const IntVec& p) {
                              return pseudo_random(v, p) + 13 * lane;
                            });
}

/// "" when equal, else a one-line description of the first divergence.
std::string diff_stores(const LoopNest& nest, const IndexedStore& expected,
                        const IndexedStore& got, const std::string& what) {
  const std::string diff = first_divergence(nest, expected, got);
  return diff.empty()
             ? diff
             : what + " diverges from the sequential baseline: " + diff;
}

void collect_error_rules(const VerifyReport& report,
                         std::vector<std::string>& rules) {
  for (const Finding& f : report.findings) {
    if (f.severity != Severity::Error) continue;
    bool seen = false;
    for (const std::string& r : rules) seen |= r == f.rule;
    if (!seen) rules.push_back(f.rule);
  }
}

/// Rules whose violation must be observable dynamically: a design
/// rejected on one of these that still runs and matches the baseline is
/// a false reject. Dependence and flow rules are excluded — with the
/// generator's associative accumulation bodies a reordered or
/// mis-pipelined schedule can legitimately reproduce the sequential
/// result, and flow rules constrain the systolic-array *model* (neighbour
/// connections), not the simulated values.
bool semantic_rule(const std::string& rule) {
  return rule == "schedule.injectivity" || rule == "schedule.arity" ||
         rule == "schedule.place-rank" || rule == "stream.rank";
}

/// The reference column's options: the interpreter, forced (Auto would
/// pick the VM for every clean run).
InstantiateOptions interp_only() {
  InstantiateOptions opt;
  opt.backend = Backend::Interp;
  return opt;
}

struct MetricCheck {
  std::string detail;

  void expect_eq(Int a, Int b, const std::string& what) {
    if (detail.empty() && a != b) {
      std::ostringstream os;
      os << what << ": " << a << " != " << b;
      detail = os.str();
    }
  }
};

}  // namespace

const char* outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::Pass: return "pass";
    case Outcome::StaticReject: return "static-reject";
    case Outcome::SourceReject: return "source-reject";
    case Outcome::NoDesign: return "no-design";
    case Outcome::FalseAccept: return "false-accept";
    case Outcome::FalseReject: return "false-reject";
  }
  return "unknown";
}

bool is_disagreement(Outcome o) noexcept {
  return o == Outcome::FalseAccept || o == Outcome::FalseReject;
}

OracleResult run_oracle(const Design& design, const Env& sizes,
                        const OracleOptions& options) {
  OracleResult result;

  bool source_ok = true;
  std::string source_msg;
  try {
    validate_source(design.nest);
  } catch (const Error& e) {
    source_ok = false;
    source_msg = e.what();
  }

  collect_error_rules(verify_spec(design.nest, design.spec), result.rules);

  std::optional<CompiledProgram> prog;
  std::string compile_msg;
  try {
    prog.emplace(compile(design.nest, design.spec));
  } catch (const Error& e) {
    compile_msg = e.what();
  }
  if (prog.has_value()) {
    collect_error_rules(verify_design(*prog, design.nest, sizes),
                        result.rules);
  }

  if (!source_ok) {
    // Appendix-A violation: compile() re-runs validate_source, so the two
    // must agree.
    if (!prog.has_value()) {
      result.outcome = Outcome::SourceReject;
      result.detail = source_msg;
    } else {
      result.outcome = Outcome::FalseAccept;
      result.detail =
          "validate_source refused ('" + source_msg + "') but compile() "
          "accepted the same nest";
    }
    return result;
  }

  const bool static_accept = prog.has_value() && result.rules.empty();

  if (!static_accept) {
    if (!prog.has_value()) {
      result.outcome = Outcome::StaticReject;
      result.detail = "compile refused: " + compile_msg;
      return result;
    }
    // Verifier findings on a compilable design: the runtime must confirm
    // (instantiation failure, runtime error, or diverging results).
    IndexedStore expected = seeded_lane(design.nest, sizes, 0);
    IndexedStore got = expected;
    run_sequential(design.nest, sizes, expected);
    try {
      (void)execute(*prog, design.nest, sizes, got, interp_only());
    } catch (const Error& e) {
      result.outcome = Outcome::StaticReject;
      result.detail = std::string("runtime confirmed: ") + e.what();
      return result;
    }
    const std::string diff = diff_stores(design.nest, expected, got, "interp");
    if (!diff.empty()) {
      result.outcome = Outcome::StaticReject;
      result.detail = "runtime confirmed: " + diff;
      return result;
    }
    bool semantic = false;
    for (const std::string& r : result.rules) semantic |= semantic_rule(r);
    if (semantic) {
      result.outcome = Outcome::FalseReject;
      result.detail =
          "rejected on a semantic rule, yet the run matches the baseline";
    } else {
      result.outcome = Outcome::StaticReject;
      result.detail = "model-only rule; run matches the baseline (tolerated)";
    }
    return result;
  }

  // ---- statically clean: the full backend matrix ------------------------
  IndexedStore expected = seeded_lane(design.nest, sizes, 0);
  run_sequential(design.nest, sizes, expected);

  std::string stage;
  try {
    // Reference engine: the interpreter. Every other column differs from
    // it in exactly one thing.
    stage = "interp";
    IndexedStore interp_store = seeded_lane(design.nest, sizes, 0);
    const RunMetrics ref =
        execute(*prog, design.nest, sizes, interp_store, interp_only());
    std::string diff = diff_stores(design.nest, expected, interp_store, stage);

    MetricCheck mc;
    // Each column runs against the reference and returns the run's
    // schedule ("" when it did not run: an earlier column disagreed).
    auto check_engine = [&](const std::string& what,
                            const InstantiateOptions& opt) -> std::string {
      if (!diff.empty() || !mc.detail.empty()) return "";
      stage = what;
      IndexedStore store = seeded_lane(design.nest, sizes, 0);
      const RunMetrics got = execute(*prog, design.nest, sizes, store, opt);
      diff = diff_stores(design.nest, expected, store, what);
      mc.expect_eq(ref.makespan, got.makespan, what + " makespan");
      mc.expect_eq(ref.total_transfers, got.total_transfers,
                   what + " transfers");
      mc.expect_eq(ref.statements, got.statements, what + " statements");
      if (mc.detail.empty() &&
          ref.transfers_per_stream != got.transfers_per_stream) {
        mc.detail = what + " per-stream transfer counts diverge";
      }
      mc.expect_eq(ref.scheduler_rounds, got.scheduler_rounds,
                   what + " rounds");
      return got.schedule;
    };
    auto expect_replayed = [&](const std::string& what,
                               const std::string& schedule) {
      if (diff.empty() && mc.detail.empty() && !schedule.empty() &&
          schedule != "replayed") {
        mc.detail = what + ": a cached plan's next VM run " + schedule +
                    " instead of replaying its tape";
      }
    };

    // The engine: the bytecode VM, solo, on the same plan.
    // It replicates the interpreter's round structure, so even the round
    // count must agree.
    InstantiateOptions vm;
    vm.backend = Backend::Bytecode;
    check_engine("bytecode", vm);

    // Replay: on a fresh cache the first VM run walks and records the
    // plan's tape, and the second replays it.
    PlanCache cache;
    InstantiateOptions cached = vm;
    cached.plan_cache = &cache;
    check_engine("record", cached);
    expect_replayed("replay", check_engine("replay", cached));

    // Bytecode SoA batch: every lane against its own sequential baseline,
    // walked, then replayed from the tape the solo runs recorded.
    auto check_batch = [&](const std::string& what,
                           const InstantiateOptions& opt) -> std::string {
      if (!diff.empty() || !mc.detail.empty() || options.batch <= 1) {
        return "";
      }
      stage = what;
      std::vector<IndexedStore> lanes;
      std::vector<IndexedStore> lane_expected;
      for (std::size_t l = 0; l < options.batch; ++l) {
        lanes.push_back(
            seeded_lane(design.nest, sizes, static_cast<Int>(l)));
        lane_expected.push_back(lanes.back());
        run_sequential(design.nest, sizes, lane_expected.back());
      }
      const RunMetrics got = execute_batch(*prog, design.nest, sizes,
                                           lanes.data(), options.batch, opt);
      for (std::size_t l = 0; l < options.batch && diff.empty(); ++l) {
        diff = diff_stores(design.nest, lane_expected[l], lanes[l],
                           what + " lane " + std::to_string(l));
      }
      mc.expect_eq(ref.makespan, got.makespan, what + " makespan");
      mc.expect_eq(ref.total_transfers, got.total_transfers,
                   what + " transfers");
      mc.expect_eq(ref.statements, got.statements, what + " statements");
      mc.expect_eq(ref.scheduler_rounds, got.scheduler_rounds,
                   what + " rounds");
      return got.schedule;
    };
    check_batch("batch", vm);
    expect_replayed("batch replay", check_batch("batch replay", cached));

    if (!diff.empty()) {
      result.outcome = Outcome::FalseAccept;
      result.detail = diff;
    } else if (!mc.detail.empty()) {
      result.outcome = Outcome::FalseAccept;
      result.detail = mc.detail;
    } else {
      result.outcome = Outcome::Pass;
    }
  } catch (const Error& e) {
    result.outcome = Outcome::FalseAccept;
    result.detail = stage + ": " + e.what();
  }
  return result;
}

OracleResult classify(const FuzzSample& sample, const OracleOptions& options) {
  if (!sample.spec.present) {
    OracleResult result;
    result.outcome = Outcome::NoDesign;
    return result;
  }
  std::optional<Design> design;
  try {
    design.emplace(frontend::parse_design(to_sa(sample)));
  } catch (const Error& e) {
    OracleResult result;
    result.outcome = Outcome::FalseAccept;
    result.detail = std::string("generated text does not parse: ") + e.what();
    return result;
  }
  Env sizes;
  for (const auto& [sym, value] : sample.probe) sizes[sym] = Rational(value);
  return run_oracle(*design, sizes, options);
}

}  // namespace systolize::fuzz
