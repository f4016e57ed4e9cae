// systolize — command-line front end.
//
//   systolize list
//   systolize report <design | file.sa>
//   systolize emit   <design | file.sa> [--syntax=paper|occam|c]
//   systolize run    <design | file.sa> [--n=N] [--m=M] [--capacity=K]
//                    [--merge-buffers] [--partition=G]
//                    [--verify | --no-verify] [--verify-plan]
//                    [--inject=PLAN] [--watchdog-rounds=N]
//                    [--watchdog-blocked=N] [--deadlock-report]
//   systolize graph  <design | file.sa> [--n=N] [--m=M]     (the plan as
//                    Graphviz dot; nothing runs)
//   systolize schedule <design | file.sa> [--n=N] [--m=M]   (space-time table)
//   systolize verify <design | file.sa | all> [--n=N] [--m=M] [--capacity=K]
//                    [--merge-buffers] [--partition=G]
//                    [--format=text|json] [--allow=rule,rule...]
//   systolize analyze <design | file.sa> [--sizes=4,8] [--m=M]
//                    [--format=text|json]              (static cost report)
//   systolize explore <design | file.sa> [--coeff-range=K] [--sizes=4]
//                    [--top=N] [--moving-only] [--same-projection]
//                    [--export=FILE] [--format=text|json]
//
// <design> is a catalog name (see `systolize list`); anything containing a
// '.' or '/' is treated as a .sa file path. Each command takes only the
// flags it reads: a flag of another command is error [Validation] (exit
// 1), a flag no command knows a usage error (exit 2).
//
// `verify` runs the static pipeline (verify_design, docs/static-
// analysis.md), the one the serve verify op and the run gate run too:
// spec, program and plan-level rules, zero scheduler rounds. It exits
// non-zero iff any error-severity finding remains; --allow downgrades
// the named rules (or whole categories, e.g. "guard") to info.
//
// --inject takes the fault-plan syntax of FaultPlan::parse (';'-separated
// directives, e.g. "seed=42;stall=0.1:4;delay=0.05:3" or
// "kill@comp:(1)=2"); see docs/fault-model.md. --deadlock-report prints
// the machine-readable JSON forensics payload when a run stalls.
#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/cost.hpp"
#include "analysis/verify.hpp"
#include "ast/builder.hpp"
#include "ast/print.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "frontend/render.hpp"
#include "fuzz/fuzz.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/network.hpp"
#include "systolic/enumerate.hpp"
#include "scheme/compiler.hpp"
#include "scheme/report.hpp"
#include "scheme/schedule.hpp"
#include "service/checked_run.hpp"
#include "service/client.hpp"
#include "service/executor.hpp"
#include "service/server.hpp"

namespace {

using namespace systolize;

int usage() {
  std::cerr <<
      "usage:\n"
      "  systolize help\n"
      "  systolize list\n"
      "  systolize report <design | file.sa>\n"
      "  systolize emit   <design | file.sa> [--syntax=paper|occam|c]\n"
      "  systolize run    <design | file.sa> [--n=N] [--m=M] [--capacity=K]\n"
      "                   [--merge-buffers] [--partition=G]\n"
      "                   [--verify | --no-verify] [--verify-plan]\n"
      "                   [--inject=PLAN] [--watchdog-rounds=N]\n"
      "                   [--watchdog-blocked=N] [--deadlock-report]\n"
      "                   [--threads=N]\n"
      "                   [--round-budget=N] [--wall-timeout-ms=N]\n"
      "                   [--backend=interp|bytecode] [--batch=N]\n"
      "  systolize graph  <design | file.sa> [--n=N] [--m=M]\n"
      "  systolize schedule <design | file.sa> [--n=N] [--m=M]\n"
      "  systolize verify <design | file.sa | all> [--n=N] [--m=M]\n"
      "                   [--capacity=K] [--merge-buffers] [--partition=G]\n"
      "                   [--format=text|json] [--allow=rule,rule...]\n"
      "  systolize analyze <design | file.sa> [--sizes=4,8] [--m=M]\n"
      "                   [--capacity=K] [--merge-buffers] [--partition=G]\n"
      "                   [--format=text|json]\n"
      "  systolize explore <design | file.sa> [--coeff-range=K]\n"
      "                   [--sizes=4] [--m=M] [--top=N] [--moving-only]\n"
      "                   [--same-projection] [--export=FILE]\n"
      "                   [--format=text|json]\n"
      "  systolize fuzz   [--seed=S] [--count=N] [--no-shrink]\n"
      "                   [--corpus-dir=DIR] [--keep-rejects] [--replay]\n"
      "                   [--mutate-rate=P] [--coeff-range=K] [--batch=N]\n"
      "                   [--format=text|json]\n"
      "  systolize serve  --socket=PATH [--workers=N] [--queue-depth=N]\n"
      "                   [--tenant-cap=N] [--round-budget=N]\n"
      "                   [--wall-timeout-ms=N] [--max-retries=N]\n"
      "                   [--plan-cache-bytes=N]\n"
      "  systolize client --socket=PATH --op=OP [--design=NAME] [--n=N]\n"
      "                   [--m=M] [--capacity=K] [--merge-buffers]\n"
      "                   [--partition=G] [--threads=N]\n"
      "                   [--tenant=T] [--inject=PLAN] [--verify]\n"
      "                   [--round-budget=N] [--wall-timeout-ms=N]\n"
      "                   [--fail-attempts=N] [--count=N] [--retry]\n"
      "                   [--backend=interp|bytecode] [--batch=N]\n"
      "\n"
      "see `systolize help` for exit codes and the serve protocol.\n";
  return 2;
}

int cmd_help() {
  std::cout <<
      "systolize — systolizing-compilation-scheme toolchain.\n"
      "\n"
      "exit codes (run, client and serve commands):\n"
      "  0  success — the run completed (and verified, unless --no-verify)\n"
      "  1  classified error — compile/validation failure (a flag the\n"
      "     command does not take, or a malformed or out-of-range number\n"
      "     in an integer flag, included), injected-fault deadlock,\n"
      "     differential-verify mismatch, or error [Internal] for any\n"
      "     other failure; details on stderr, and with --deadlock-report\n"
      "     the forensic JSON on stdout\n"
      "  2  usage error — unknown command or flag\n"
      "  3  timeout — the watchdog round budget (--round-budget) or the\n"
      "     wall-clock deadline (--wall-timeout-ms) expired before the run\n"
      "     finished; rerun with a larger budget or inspect the partial\n"
      "     forensics\n"
      "\n"
      "one-shot deadlines:\n"
      "  --round-budget=N     abort the run after N scheduler rounds\n"
      "                       (cooperative rounds are the runtime's time\n"
      "                       base, so this bounds livelock deterministically)\n"
      "  --wall-timeout-ms=N  abort the run N milliseconds after it starts\n"
      "                       (checked at round boundaries — a wedged run is\n"
      "                       cancelled cleanly, with forensics)\n"
      "\n"
      "differential fuzzing (docs/static-analysis.md):\n"
      "  systolize fuzz samples random Appendix-A loop nests plus compatible\n"
      "  (step, place) designs and cross-checks the static verifier against\n"
      "  both execution engines (the interpreter, the bytecode VM solo and\n"
      "  batched) and the sequential baseline. Exit 0 = the oracles agreed\n"
      "  on every sample.\n"
      "  --seed=S         campaign seed; sample #i is a pure function of\n"
      "                   (S, i), so any sample replays in isolation and the\n"
      "                   same seed always yields the same samples and\n"
      "                   verdicts\n"
      "  --count=N        number of samples (default 100)\n"
      "  --no-shrink      write findings un-minimized (default: greedy\n"
      "                   structural shrinking toward a fixpoint first)\n"
      "  --corpus-dir=DIR reproducer directory (default designs/fuzz-corpus);\n"
      "                   disagreements are written there as .sa files with\n"
      "                   the seed, index, probe sizes and finding embedded\n"
      "                   as comments\n"
      "  --keep-rejects   also write (shrunk) reproducers for consistent\n"
      "                   static rejections — seeds the corpus with verifier\n"
      "                   counterexamples\n"
      "  --replay         re-run the differential oracle on every .sa file\n"
      "                   under --corpus-dir instead of generating; exit 1\n"
      "                   if any reproducer still witnesses a disagreement\n"
      "  --mutate-rate=P  percent of samples given one deliberate breakage\n"
      "                   (default 20), to test verifier/runtime agreement\n"
      "\n"
      "daemon mode (docs/service.md):\n"
      "  systolize serve  — long-running compile-and-run daemon on a Unix\n"
      "                     socket; newline-delimited JSON requests, shared\n"
      "                     plan cache, admission control, per-request\n"
      "                     deadlines, graceful SIGTERM drain (exit 0)\n"
      "  systolize client — send requests to a running daemon; prints one\n"
      "                     response JSON line per request\n";
  return 0;
}

Design load_design(const std::string& what) {
  if (what.find('.') == std::string::npos &&
      what.find('/') == std::string::npos) {
    return design_by_name(what);
  }
  std::ifstream in(what);
  if (!in) {
    raise(ErrorKind::Parse, "cannot open '" + what + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return frontend::parse_design(buf.str());
}

struct Options {
  Int n = 8;
  Int m = 3;
  Int capacity = 0;
  Int partition = 0;
  bool merge_buffers = false;
  bool verify = true;
  std::string syntax = "paper";
  std::string inject;            ///< FaultPlan::parse syntax; empty = none
  Int watchdog_rounds = 0;       ///< 0 = unbounded
  Int watchdog_blocked = 0;      ///< 0 = unbounded
  bool deadlock_report = false;  ///< print JSON forensics on stall
  Int threads = 0;               ///< lane workers of a batched VM run
  std::string backend;           ///< "", "interp" or "bytecode"
  Int batch = 1;                 ///< problem instances per dispatch
  Int plan_cache_bytes = -1;     ///< serve: >=0 sizes the plan cache
  bool verify_plan = false;      ///< run: static verification gate first
  std::string format = "text";   ///< verify: text | json
  std::string allow;             ///< verify: comma-separated rule ids
  Int round_budget = 0;          ///< run/client: scheduler-round deadline
  Int wall_timeout_ms = 0;       ///< run/client: wall-clock deadline
  // --- serve / client ---
  std::string socket;            ///< Unix-domain socket path
  Int workers = 4;
  Int queue_depth = 64;
  Int tenant_cap = 16;
  Int max_retries = 2;
  std::string op = "run";        ///< client: request op
  std::string design_name;       ///< client: design catalog name
  std::string tenant;            ///< client: admission bucket
  Int fail_attempts = 0;         ///< client: transient-failure test hook
  Int count = 1;                 ///< client: pipelined request count
  bool retry = false;            ///< client: honor retry-after hints
  bool client_verify = false;    ///< client: differential-check runs
  // --- analyze / explore ---
  std::string sizes_list;        ///< comma-separated probe sizes
  Int coeff_range = 1;           ///< explore: coefficients in [-K, K]
  Int top = 10;                  ///< explore: ranked table length
  bool moving_only = false;      ///< explore: no stationary streams
  bool same_projection = false;  ///< explore: keep the seed's null.place
  std::string export_path;       ///< explore: write the winner as .sa
  // --- fuzz ---
  std::uint64_t seed = 20260808;     ///< campaign seed
  bool count_set = false;            ///< --count given (fuzz defaults to 100)
  bool fuzz_shrink = true;           ///< minimize findings before writing
  std::string corpus_dir = "designs/fuzz-corpus";
  bool keep_rejects = false;         ///< corpus-ify consistent rejects too
  bool replay = false;               ///< re-run the corpus instead
  Int mutate_rate = 20;              ///< deliberate-breakage percentage
};

/// The integer in `text`, the value of `flag`: the whole text must be a
/// base-10 integer that fits T, else error [Validation] naming the flag.
template <class T>
T integer_flag(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    raise(ErrorKind::Validation,
          "malformed " + std::string(flag) + " value '" + std::string(text) +
              "': " +
              (ec == std::errc::result_out_of_range ||
                       (std::is_unsigned_v<T> && text.starts_with('-'))
                   ? "out of range"
                   : "not an integer"));
  }
  return value;
}

// Every flag, by the Options field it sets: integer flags (--name=N),
// text flags (--name=TEXT) and switches (--name).
template <class T>
struct Flag {
  std::string_view name;
  T Options::*field;
};
constexpr Flag<Int> kIntFlags[] = {
    {"--n", &Options::n}, {"--m", &Options::m},
    {"--capacity", &Options::capacity}, {"--partition", &Options::partition},
    {"--watchdog-rounds", &Options::watchdog_rounds},
    {"--watchdog-blocked", &Options::watchdog_blocked},
    {"--threads", &Options::threads}, {"--batch", &Options::batch},
    {"--plan-cache-bytes", &Options::plan_cache_bytes},
    {"--round-budget", &Options::round_budget},
    {"--wall-timeout-ms", &Options::wall_timeout_ms},
    {"--workers", &Options::workers}, {"--queue-depth", &Options::queue_depth},
    {"--tenant-cap", &Options::tenant_cap},
    {"--max-retries", &Options::max_retries},
    {"--fail-attempts", &Options::fail_attempts},
    {"--count", &Options::count}, {"--mutate-rate", &Options::mutate_rate},
    {"--coeff-range", &Options::coeff_range}, {"--top", &Options::top}};

constexpr Flag<std::string> kTextFlags[] = {
    {"--syntax", &Options::syntax}, {"--inject", &Options::inject},
    {"--backend", &Options::backend}, {"--format", &Options::format},
    {"--allow", &Options::allow}, {"--socket", &Options::socket},
    {"--op", &Options::op}, {"--design", &Options::design_name},
    {"--tenant", &Options::tenant}, {"--corpus-dir", &Options::corpus_dir},
    {"--sizes", &Options::sizes_list}, {"--export", &Options::export_path}};

struct Switch {
  std::string_view name;
  bool Options::*field;
  bool value;
};
constexpr Switch kSwitches[] = {
    {"--merge-buffers", &Options::merge_buffers, true},
    {"--no-verify", &Options::verify, false},
    {"--deadlock-report", &Options::deadlock_report, true},
    {"--verify-plan", &Options::verify_plan, true},
    {"--no-shrink", &Options::fuzz_shrink, false},
    {"--keep-rejects", &Options::keep_rejects, true},
    {"--replay", &Options::replay, true}, {"--retry", &Options::retry, true},
    {"--moving-only", &Options::moving_only, true},
    {"--same-projection", &Options::same_projection, true}};

/// Apply one flag to opt; false when no command knows it.
bool parse_flag(const std::string& arg, Options& opt) {
  const std::size_t eq = arg.find('=');
  const std::string_view name = std::string_view(arg).substr(0, eq);
  if (eq == std::string::npos) {
    if (arg == "--verify") {
      opt.verify = true;  // run: the explicit form of the default
      opt.client_verify = true;
      return true;
    }
    for (const Switch& f : kSwitches) {
      if (name != f.name) continue;
      opt.*f.field = f.value;
      return true;
    }
    return false;
  }
  const std::string_view value = std::string_view(arg).substr(eq + 1);
  if (name == "--seed") {
    opt.seed = integer_flag<std::uint64_t>(name, value);
    return true;
  }
  for (const Flag<Int>& f : kIntFlags) {
    if (name != f.name) continue;
    opt.*f.field = integer_flag<Int>(name, value);
    opt.count_set = opt.count_set || name == "--count";
    return true;
  }
  for (const Flag<std::string>& f : kTextFlags) {
    if (name != f.name) continue;
    opt.*f.field = std::string(value);
    return true;
  }
  return false;
}

using FlagSet = std::vector<std::string_view>;

/// The flags a command takes: those whose Options fields its cmd_*
/// function reads. nullopt for an unknown command.
std::optional<FlagSet> flags_of(const std::string& cmd) {
  if (cmd == "help" || cmd == "list" || cmd == "report") return FlagSet{};
  if (cmd == "emit") return FlagSet{"--syntax"};
  if (cmd == "graph" || cmd == "schedule") return FlagSet{"--n", "--m"};
  if (cmd == "run") {
    return FlagSet{"--n", "--m", "--capacity", "--merge-buffers",
                   "--partition", "--no-verify", "--verify", "--verify-plan",
                   "--inject", "--watchdog-rounds", "--watchdog-blocked",
                   "--deadlock-report", "--threads", "--round-budget",
                   "--wall-timeout-ms", "--backend", "--batch"};
  }
  if (cmd == "verify") {
    return FlagSet{"--n", "--m", "--capacity", "--merge-buffers",
                   "--partition", "--format", "--allow"};
  }
  if (cmd == "analyze") {
    return FlagSet{"--sizes", "--m", "--capacity", "--merge-buffers",
                   "--partition", "--format"};
  }
  if (cmd == "explore") {
    return FlagSet{"--coeff-range", "--sizes", "--m", "--top",
                   "--moving-only", "--same-projection", "--export",
                   "--format"};
  }
  if (cmd == "fuzz") {
    return FlagSet{"--seed", "--count", "--no-shrink", "--corpus-dir",
                   "--keep-rejects", "--replay", "--mutate-rate",
                   "--coeff-range", "--batch", "--format"};
  }
  if (cmd == "serve") {
    return FlagSet{"--socket", "--workers", "--queue-depth", "--tenant-cap",
                   "--round-budget", "--wall-timeout-ms", "--max-retries",
                   "--plan-cache-bytes"};
  }
  if (cmd == "client") {
    return FlagSet{"--socket", "--op", "--design", "--n", "--m",
                   "--capacity", "--partition", "--merge-buffers",
                   "--threads", "--tenant", "--inject", "--verify",
                   "--round-budget", "--wall-timeout-ms", "--fail-attempts",
                   "--count", "--retry", "--backend", "--batch"};
  }
  return std::nullopt;
}

/// Apply argv[first..argc) to opt. A flag no command knows is a usage
/// error (false); a known flag that `cmd` does not take raises Validation.
bool parse_flags(const std::string& cmd, const FlagSet& allowed, int first,
                 int argc, char** argv, Options& opt) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    Options known;
    if (!parse_flag(arg, known)) {
      std::cerr << "unknown flag '" << arg << "'\n";
      return false;
    }
    const std::string_view name =
        std::string_view(arg).substr(0, arg.find('='));
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      raise(ErrorKind::Validation,
            "'" + cmd + "' does not take " + std::string(name));
    }
    (void)parse_flag(arg, opt);
  }
  return true;
}

Env sizes_of(const Design& design, const Options& opt) {
  return service::sizes_of(design.nest, opt.n, opt.m);
}

int cmd_list() {
  const std::vector<Design> designs = all_designs();
  const std::vector<std::string> names = catalog_names();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    std::cout << names[i] << ": " << designs[i].description << "\n";
  }
  std::cout << "\ncatalog names:";
  for (const std::string& name : names) std::cout << " " << name;
  std::cout << "\n";
  return 0;
}

int cmd_report(const Design& design) {
  CompiledProgram prog = compile(design.nest, design.spec);
  std::cout << derivation_report(prog, design.nest, design.spec);
  return 0;
}

int cmd_emit(const Design& design, const Options& opt) {
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tree = ast::build_ast(prog, design.nest);
  if (opt.syntax == "paper") {
    std::cout << ast::to_paper_notation(*tree);
  } else if (opt.syntax == "occam") {
    std::cout << ast::to_occam(*tree);
  } else if (opt.syntax == "c") {
    std::cout << ast::to_c(*tree);
  } else {
    std::cerr << "unknown syntax '" << opt.syntax << "'\n";
    return 2;
  }
  return 0;
}

/// The plan's picture; the design is not run.
int cmd_graph(const Design& design, const Options& opt) {
  CompiledProgram prog = compile(design.nest, design.spec);
  const auto plan =
      build_plan(prog, design.nest, sizes_of(design, opt), PlanShape{});
  std::cout << to_dot(network_graph(*plan));
  return 0;
}

int cmd_schedule(const Design& design, const Options& opt) {
  Env sizes = sizes_of(design, opt);
  Schedule s = derive_schedule(design.nest, design.spec, sizes);
  std::cout << "span = " << s.span() << " steps, peak parallelism = "
            << s.max_width() << "\n";
  if (design.nest.depth() == 2) {
    CompiledProgram prog = compile(design.nest, design.spec);
    std::cout << render_schedule_1d(s, prog.ps.min.evaluate(sizes),
                                    prog.ps.max.evaluate(sizes));
  } else {
    std::cout << "parallelism profile per step:\n";
    for (Int t = s.min_step; t <= s.max_step; ++t) {
      std::cout << "  step " << t << ": " << s.width_at(t) << "\n";
    }
  }
  return 0;
}

int cmd_run(const Design& design, const Options& opt) {
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_of(design, opt);

  InstantiateOptions iopt = service::shaped_options(service::plan_shape(
      design.nest, opt.capacity, opt.merge_buffers, opt.partition));
  const std::optional<Backend> backend = service::backend_named(opt.backend);
  if (!backend.has_value()) {
    std::cerr << "unknown backend '" << opt.backend
              << "' (expected interp or bytecode)\n";
    return 2;
  }
  iopt.backend = *backend;
  if (opt.batch < 1) {
    std::cerr << "--batch needs a positive instance count\n";
    return 2;
  }
  FaultPlan plan;
  if (!opt.inject.empty()) {
    plan = FaultPlan::parse(opt.inject);
    iopt.faults = &plan;
    std::cout << "inject: " << plan.to_string() << "\n";
  }
  iopt.watchdog.max_rounds = opt.watchdog_rounds;
  iopt.watchdog.max_blocked_rounds = opt.watchdog_blocked;
  // --round-budget is the service-style spelling of a run deadline in the
  // runtime's own time base; it rides the same watchdog as
  // --watchdog-rounds (the tighter of the two wins).
  if (opt.round_budget > 0 &&
      (iopt.watchdog.max_rounds == 0 ||
       opt.round_budget < iopt.watchdog.max_rounds)) {
    iopt.watchdog.max_rounds = opt.round_budget;
  }
  if (opt.threads > 0) iopt.threads = static_cast<unsigned>(opt.threads);
  iopt.verify_plan = opt.verify_plan;
  const std::size_t batch = static_cast<std::size_t>(opt.batch);

  if (batch > 1 && iopt.faults != nullptr) {
    // Faults are per-instance by nature: each instance replays on its
    // own with its own derived fault seed, and gets its own verdict
    // instead of failing the batch.
    int worst = 0;
    const std::vector<service::InstanceRun> runs =
        service::run_faulted(prog, design.nest, sizes, batch, plan, iopt,
                             opt.wall_timeout_ms, opt.verify);
    for (std::size_t b = 0; b < batch; ++b) {
      const service::InstanceRun& run = runs[b];
      if (run.error.has_value()) {
        const std::string what = run.error->what();
        std::cout << "instance " << b << ": error ["
                  << error_kind_name(run.error->kind()) << "] "
                  << what.substr(0, what.find('\n')) << "\n";
        worst = std::max(
            worst, run.error->kind() == ErrorKind::Timeout ? 3 : 1);
        continue;
      }
      std::string verdict = "ok";
      if (!run.divergence.empty()) {
        verdict = "verify-failed " + run.divergence;
        worst = std::max(worst, 1);
      }
      std::cout << "instance " << b << ": " << verdict
                << " faults=" << run.metrics.faults_injected
                << " makespan=" << run.metrics.makespan << "\n";
    }
    return worst;
  }

  // Instance b of a batch is seeded as lane b (service/checked_run.hpp):
  // lane 0 is the single-run seeding, later lanes carry different data.
  std::vector<Int> instances(batch);
  std::iota(instances.begin(), instances.end(), Int{0});
  const service::CheckedRun run =
      service::run_checked(prog, design.nest, sizes, instances, iopt,
                           opt.wall_timeout_ms, opt.verify);
  std::cout << run.metrics.to_string() << "\n";
  if (batch == 1 && opt.partition > 0) {
    std::cout << "physical processors: " << run.metrics.physical_processors
              << "\n";
  }
  if (!opt.verify) return 0;
  for (std::size_t b = 0; b < batch; ++b) {
    if (run.divergence[b].empty()) continue;
    std::cout << "VERIFY FAILED for "
              << (batch > 1 ? "instance " + std::to_string(b) + " " : "")
              << run.divergence[b] << "\n";
    return 1;
  }
  if (batch > 1) {
    std::cout << "verify: OK (all " << batch
              << " instances match sequential execution)\n";
  } else {
    std::cout << "verify: OK (matches sequential execution)\n";
  }
  return 0;
}

/// The static pipeline on one design (verify_design), labelled `label`,
/// with --allow applied. Compile or interning failures become findings
/// instead of aborting a sweep.
VerifyReport verify_one(const Design& design, const std::string& label,
                        const Options& opt) {
  PipelineOptions popt;
  popt.shape = service::plan_shape(design.nest, opt.capacity,
                                   opt.merge_buffers, opt.partition);
  VerifyReport rep =
      verify_design(design.nest, design.spec, sizes_of(design, opt), popt);
  rep.design = label;
  // --allow downgrades (exact rule ids or whole categories).
  std::istringstream allow(opt.allow);
  std::string rule;
  while (std::getline(allow, rule, ',')) {
    if (!rule.empty()) rep.allow(rule);
  }
  return rep;
}

int cmd_verify(const std::string& what, const Options& opt) {
  std::vector<VerifyReport> reports;
  if (what == "all") {
    // Catalog names, not nest names — several designs share a nest.
    for (const std::string& name : catalog_names()) {
      reports.push_back(verify_one(design_by_name(name), name, opt));
    }
  } else {
    reports.push_back(verify_one(load_design(what), what, opt));
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const VerifyReport& rep : reports) {
    errors += rep.errors();
    warnings += rep.warnings();
  }
  if (opt.format == "json") {
    if (what == "all") {
      std::cout << '[';
      for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i != 0) std::cout << ',';
        std::cout << reports[i].to_json();
      }
      std::cout << "]\n";
    } else {
      std::cout << reports.front().to_json() << "\n";
    }
  } else if (opt.format == "text") {
    for (const VerifyReport& rep : reports) {
      std::cout << rep.to_string() << "\n";
    }
    if (what == "all") {
      std::cout << "verified " << reports.size() << " design(s): " << errors
                << " error(s), " << warnings << " warning(s)\n";
    }
  } else {
    std::cerr << "unknown format '" << opt.format << "'\n";
    return 2;
  }
  return errors == 0 ? 0 : 1;
}

/// --sizes=4,8 → one Env per listed value (every size symbol gets the
/// value, except "m" which keeps --m, matching sizes_of). Defaults to
/// 4 and 8 for analyze, 4 for explore (the caller passes the default).
std::vector<Env> probe_sizes(const Design& design, const Options& opt,
                             const std::string& fallback) {
  std::vector<Env> envs;
  std::string list = opt.sizes_list.empty() ? fallback : opt.sizes_list;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    envs.push_back(service::sizes_of(
        design.nest, integer_flag<Int>("--sizes", item), opt.m));
  }
  if (envs.empty()) {
    raise(ErrorKind::Validation, "--sizes needs at least one value");
  }
  return envs;
}

/// Static cost report. Verifier-first: a broken design yields its
/// findings (exit 1), never a crash — the cost model only runs on specs
/// the verifier proves clean at spec and program level (analyze_design).
int cmd_analyze(const std::string& what, const Options& opt) {
  const Design design = load_design(what);
  PipelineOptions popt;
  popt.shape = service::plan_shape(design.nest, opt.capacity,
                                   opt.merge_buffers, opt.partition);
  CostReport cost;
  VerifyReport rep = analyze_design(design.nest, design.spec,
                                    probe_sizes(design, opt, "4,8"), popt,
                                    cost);
  rep.design = what;
  if (rep.errors() > 0) {
    std::cout << (opt.format == "json" ? rep.to_json() : rep.to_string())
              << "\n";
    return 1;
  }
  if (opt.format == "json") {
    std::cout << cost.to_json() << "\n";
  } else if (opt.format == "text") {
    std::cout << cost.to_string();
  } else {
    std::cerr << "unknown format '" << opt.format << "'\n";
    return 2;
  }
  return 0;
}

/// Design-space search over the seed design's loop nest.
int cmd_explore(const std::string& what, const Options& opt) {
  const Design design = load_design(what);

  // A broken seed reports its findings instead of searching: the nest the
  // search would cover is only trustworthy when the seed's own spec rules
  // hold (stream ranks, dependence directions).
  VerifyReport rep = verify_spec(design.nest, design.spec);
  if (rep.errors() > 0) {
    std::cout << (opt.format == "json" ? rep.to_json() : rep.to_string())
              << "\n";
    return 1;
  }

  EnumerateOptions eopt;
  eopt.coeff_range = opt.coeff_range;
  eopt.sizes = probe_sizes(design, opt, "4");
  eopt.top_k = static_cast<std::size_t>(opt.top);
  eopt.moving_only = opt.moving_only;
  eopt.same_projection = opt.same_projection;
  const ExploreResult result =
      enumerate_designs(design.nest, &design.spec, eopt);

  if (opt.format == "json") {
    std::cout << "{\"design\":\"" << design.nest.name() << "\",\"survivors\":"
              << result.stats.survivors << ",\"enumerated\":"
              << result.stats.enumerated << ",\"ranked\":[";
    for (std::size_t i = 0; i < result.ranked.size(); ++i) {
      const ExploreCandidate& c = result.ranked[i];
      if (i != 0) std::cout << ',';
      std::cout << "{\"rank\":" << (i + 1) << ",\"step\":\""
                << frontend::lin_expr_text(c.step.coeffs(), design.nest)
                << "\",\"place\":\""
                << frontend::place_text(c.place.matrix(), design.nest)
                << "\",\"seed\":" << (c.matches_seed ? "true" : "false")
                << ",\"cost\":" << c.cost.to_json() << '}';
    }
    std::cout << "]}\n";
  } else if (opt.format == "text") {
    std::cout << "explore " << design.nest.name() << " (seed: step "
              << frontend::lin_expr_text(design.spec.step().coeffs(),
                                         design.nest)
              << ", place "
              << frontend::place_text(design.spec.place().matrix(),
                                      design.nest)
              << ")\n"
              << result.stats.to_string() << "\n";
    for (std::size_t i = 0; i < result.ranked.size(); ++i) {
      const ExploreCandidate& c = result.ranked[i];
      const CostMetrics& m = c.cost.at.back().metrics;
      std::cout << "  #" << (i + 1) << (c.matches_seed ? " [seed]" : "")
                << " step " << frontend::lin_expr_text(c.step.coeffs(),
                                                       design.nest)
                << "  place "
                << frontend::place_text(c.place.matrix(), design.nest)
                << "\n     makespan=" << m.makespan << " processes="
                << m.processes << " (comp=" << m.comp << " io=" << m.io
                << " buffer=" << m.buffer << ") channels=" << m.channels
                << " soak<=" << m.soak_max << " drain<=" << m.drain_max
                << " imbalance=" << m.imbalance.to_string() << "\n";
    }
  } else {
    std::cerr << "unknown format '" << opt.format << "'\n";
    return 2;
  }

  if (result.ranked.empty()) {
    std::cerr << "no verifier-clean candidate survived the search\n";
    return 1;
  }
  if (!opt.export_path.empty()) {
    const ExploreCandidate& winner = result.ranked.front();
    ArraySpec winner_spec(winner.step, winner.place, winner.loading);
    std::ofstream out(opt.export_path);
    if (!out) {
      raise(ErrorKind::Io, "cannot write '" + opt.export_path + "'");
    }
    out << frontend::render_design(
        design.nest, winner_spec,
        "Exported by `systolize explore " + what + "`: rank 1 of " +
            std::to_string(result.stats.survivors) +
            " verifier-clean candidate(s).");
    std::cout << "exported rank-1 design to " << opt.export_path << "\n";
  }
  return 0;
}

int cmd_serve(const Options& opt) {
  service::ServerConfig cfg;
  cfg.socket_path = opt.socket;
  cfg.workers = static_cast<std::size_t>(opt.workers);
  cfg.queue_depth = static_cast<std::size_t>(opt.queue_depth);
  cfg.tenant_cap = static_cast<std::size_t>(opt.tenant_cap);
  if (opt.round_budget > 0) cfg.executor.default_round_budget = opt.round_budget;
  if (opt.wall_timeout_ms > 0) {
    cfg.executor.default_wall_timeout_ms = opt.wall_timeout_ms;
  }
  cfg.executor.max_retries = opt.max_retries;
  if (opt.plan_cache_bytes >= 0) {
    cfg.executor.cache_budget = static_cast<std::size_t>(opt.plan_cache_bytes);
  }
  service::Server::install_signal_handlers();
  service::Server server(cfg);
  server.start();
  std::cout << "systolize serve: listening on " << opt.socket << "\n"
            << std::flush;
  server.wait();
  std::cout << "systolize serve: drained, final stats: "
            << server.final_stats() << "\n";
  return 0;
}

int cmd_fuzz(const Options& opt) {
  fuzz::OracleOptions oracle;
  oracle.batch = opt.batch > 1 ? static_cast<std::size_t>(opt.batch) : 3u;

  if (opt.replay) {
    const fuzz::ReplayResult result =
        fuzz::replay_corpus(opt.corpus_dir, oracle);
    std::cout << "fuzz replay: " << result.files << " reproducer(s), "
              << result.disagreements << " disagreement(s)\n";
    for (const std::string& v : result.violations) {
      std::cout << "  " << v << "\n";
    }
    return result.clean() ? 0 : 1;
  }

  fuzz::FuzzOptions fo;
  fo.seed = opt.seed;
  fo.count = opt.count_set ? static_cast<std::size_t>(opt.count) : 100u;
  fo.shrink = opt.fuzz_shrink;
  fo.corpus_dir = opt.corpus_dir;
  fo.keep_rejects = opt.keep_rejects;
  fo.gen.coeff_range = opt.coeff_range;
  fo.gen.mutate_percent = static_cast<unsigned>(opt.mutate_rate);
  fo.oracle = oracle;
  const fuzz::FuzzReport report = fuzz::run_campaign(fo);
  std::cout << (opt.format == "json" ? report.to_json() : report.to_string())
            << "\n";
  return report.clean() ? 0 : 1;
}

int cmd_client(const Options& opt) {
  service::Client client(opt.socket);
  std::vector<service::Request> reqs;
  for (Int i = 0; i < opt.count; ++i) {
    service::Request req;
    req.id = i + 1;
    req.op = opt.op;
    req.tenant = opt.tenant;
    req.design = opt.design_name;
    req.n = opt.n;
    req.m = opt.m;
    req.capacity = opt.capacity;
    req.partition = opt.partition;
    req.merge_buffers = opt.merge_buffers;
    req.threads = opt.threads;
    req.verify = opt.client_verify;
    req.inject = opt.inject;
    req.backend = opt.backend;
    req.batch = opt.batch;
    req.round_budget = opt.round_budget;
    req.wall_timeout_ms = opt.wall_timeout_ms;
    req.fail_attempts = opt.fail_attempts;
    reqs.push_back(req);
  }
  bool any_error = false;
  bool any_timeout = false;
  if (opt.retry) {
    for (const service::Request& req : reqs) {
      service::Response r = client.call_with_retry(req);
      std::cout << r.to_json() << "\n";
      any_error |= r.status != "ok";
      any_timeout |= r.kind == "Timeout";
    }
  } else {
    // Pipelined: fire everything, then collect one response per request
    // (responses may arrive in any order — correlate by id).
    for (const service::Request& req : reqs) client.send(req);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      service::Response r = client.recv();
      std::cout << r.to_json() << "\n";
      any_error |= r.status != "ok";
      any_timeout |= r.kind == "Timeout";
    }
  }
  if (any_timeout) return 3;
  return any_error ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    const std::optional<FlagSet> allowed = flags_of(cmd);
    if (!allowed) return usage();
    // Every command but these names its design (or "all") first.
    const bool targeted = cmd != "help" && cmd != "list" && cmd != "fuzz" &&
                          cmd != "serve" && cmd != "client";
    if (targeted && argc < 3) return usage();
    if (!parse_flags(cmd, *allowed, targeted ? 3 : 2, argc, argv, opt)) {
      return usage();
    }
    if (cmd == "help") return cmd_help();
    if (cmd == "list") return cmd_list();
    if (cmd == "fuzz") return cmd_fuzz(opt);
    if (cmd == "serve" || cmd == "client") {
      if (opt.socket.empty()) {
        std::cerr << cmd << " needs --socket=PATH\n";
        return usage();
      }
      return cmd == "serve" ? cmd_serve(opt) : cmd_client(opt);
    }
    if (cmd == "verify") return cmd_verify(argv[2], opt);
    if (cmd == "analyze") return cmd_analyze(argv[2], opt);
    if (cmd == "explore") return cmd_explore(argv[2], opt);
    Design design = load_design(argv[2]);
    if (cmd == "report") return cmd_report(design);
    if (cmd == "emit") return cmd_emit(design, opt);
    if (cmd == "run") return cmd_run(design, opt);
    if (cmd == "graph") return cmd_graph(design, opt);
    if (cmd == "schedule") return cmd_schedule(design, opt);
    return usage();
  } catch (const systolize::Error& e) {
    std::cerr << "error [" << systolize::error_kind_name(e.kind())
              << "]: " << e.what() << "\n";
    if (opt.deadlock_report && !e.diagnostic().empty()) {
      std::cout << e.diagnostic() << "\n";
    }
    // Deadline expiry (round budget or wall clock) is distinguishable
    // from ordinary failure: exit 3 (see `systolize help`).
    return e.kind() == systolize::ErrorKind::Timeout ? 3 : 1;
  } catch (const std::exception& e) {
    // Anything else is a bug, classified as the serve executor does.
    std::cerr << "error ["
              << systolize::error_kind_name(systolize::ErrorKind::Internal)
              << "]: " << e.what() << "\n";
    return 1;
  }
}
