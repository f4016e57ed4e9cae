// Golden numbers for the interpreter on the shapes only it runs: channel
// capacity, merged buffers, partitioning, tracing and injected faults.
// The differential suites compare the interpreter with the VM on
// rendezvous plans only, so nothing else pins these. Each row records the
// schedule metrics and a 64-bit hash of what the run produced; a changed
// row prints its new literal, so a deliberate change is one paste.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/faults.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/trace.hpp"
#include "scheme/compiler.hpp"

#include "pseudo_random.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize {
namespace {

using testutil::pseudo_random;

/// What one run gave.
struct Row {
  std::string key;
  Int makespan = 0;
  Int transfers = 0;
  Int statements = 0;
  Int rounds = 0;
  std::string outcome = "ok";  ///< or the ErrorKind name of a failed run
  std::uint64_t hash = 0;

  friend bool operator==(const Row&, const Row&) = default;
};

// Generated at the commit before the interpreter stepped the lowered
// bytecode, by running this test against an empty table and pasting the
// rows it printed.
const Row kGolden[] = {
    {"polyprod1 n=2 cap1", 29, 53, 9, 10, "ok", 0x60d4fe71b089447aULL},
    {"polyprod1 n=2 cap2", 29, 53, 9, 7, "ok", 0x60d4fe71b089447aULL},
    {"polyprod1 n=2 merged", 29, 44, 9, 18, "ok", 0xc3ad616650705a07ULL},
    {"polyprod1 n=2 grid2", 44, 53, 9, 18, "ok", 0x60d4fe71b089447aULL},
    {"polyprod1 n=4 cap1", 53, 139, 25, 20, "ok", 0xf76bbde662b1d45eULL},
    {"polyprod1 n=4 cap2", 53, 139, 25, 16, "ok", 0xf76bbde662b1d45eULL},
    {"polyprod1 n=4 merged", 53, 114, 25, 33, "ok", 0xad40dc674a9be47bULL},
    {"polyprod1 n=4 grid2", 115, 139, 25, 37, "ok", 0xf76bbde662b1d45eULL},
    {"polyprod2 n=2 cap1", 43, 81, 9, 19, "ok", 0x1e8f7faf62ea932eULL},
    {"polyprod2 n=2 cap2", 43, 81, 9, 14, "ok", 0x1e8f7faf62ea932eULL},
    {"polyprod2 n=2 merged", 43, 66, 9, 25, "ok", 0xb67cdcdc906f8581ULL},
    {"polyprod2 n=2 grid2", 72, 81, 9, 26, "ok", 0x1e8f7faf62ea932eULL},
    {"polyprod2 n=4 cap1", 81, 235, 25, 33, "ok", 0x552bb4b5ed5e3be6ULL},
    {"polyprod2 n=4 cap2", 81, 235, 25, 28, "ok", 0x552bb4b5ed5e3be6ULL},
    {"polyprod2 n=4 merged", 81, 190, 25, 50, "ok", 0x8c5d45a93d545a87ULL},
    {"polyprod2 n=4 grid2", 203, 235, 25, 53, "ok", 0x552bb4b5ed5e3be6ULL},
    {"matmul1 n=2 cap1", 27, 108, 27, 9, "ok", 0x30f0401585c4d57ULL},
    {"matmul1 n=2 cap2", 27, 108, 27, 4, "ok", 0x30f0401585c4d57ULL},
    {"matmul1 n=2 merged", 27, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"matmul1 n=2 grid2", 61, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"matmul1 n=4 cap1", 49, 450, 125, 19, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul1 n=4 cap2", 49, 450, 125, 12, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul1 n=4 merged", 49, 450, 125, 26, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul1 n=4 grid2", 194, 450, 125, 26, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul2 n=2 cap1", 19, 154, 27, 12, "ok", 0xd145fb44eb2d1891ULL},
    {"matmul2 n=2 cap2", 19, 154, 27, 12, "ok", 0xd145fb44eb2d1891ULL},
    {"matmul2 n=2 merged", 19, 154, 27, 12, "ok", 0xd145fb44eb2d1891ULL},
    {"matmul2 n=2 grid2", 58, 154, 27, 12, "ok", 0xd145fb44eb2d1891ULL},
    {"matmul2 n=4 cap1", 35, 710, 125, 22, "ok", 0xdc4ec004cc945110ULL},
    {"matmul2 n=4 cap2", 35, 710, 125, 22, "ok", 0xdc4ec004cc945110ULL},
    {"matmul2 n=4 merged", 35, 710, 125, 22, "ok", 0xdc4ec004cc945110ULL},
    {"matmul2 n=4 grid2", 239, 710, 125, 22, "ok", 0xdc4ec004cc945110ULL},
    {"matmul3 n=2 cap1", 27, 108, 27, 9, "ok", 0x30f0401585c4d57ULL},
    {"matmul3 n=2 cap2", 27, 108, 27, 4, "ok", 0x30f0401585c4d57ULL},
    {"matmul3 n=2 merged", 27, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"matmul3 n=2 grid2", 61, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"matmul3 n=4 cap1", 49, 450, 125, 19, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul3 n=4 cap2", 49, 450, 125, 12, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul3 n=4 merged", 49, 450, 125, 26, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul3 n=4 grid2", 194, 450, 125, 26, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul4 n=2 cap1", 27, 108, 27, 9, "ok", 0x30f0401585c4d57ULL},
    {"matmul4 n=2 cap2", 27, 108, 27, 4, "ok", 0x30f0401585c4d57ULL},
    {"matmul4 n=2 merged", 27, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"matmul4 n=2 grid2", 61, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"matmul4 n=4 cap1", 49, 450, 125, 19, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul4 n=4 cap2", 49, 450, 125, 12, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul4 n=4 merged", 49, 450, 125, 26, "ok", 0x3fd31ee20cee9644ULL},
    {"matmul4 n=4 grid2", 194, 450, 125, 26, "ok", 0x3fd31ee20cee9644ULL},
    {"polyprod3 n=2 cap1", 31, 44, 9, 19, "ok", 0xc3ad616650705a07ULL},
    {"polyprod3 n=2 cap2", 31, 44, 9, 14, "ok", 0xc3ad616650705a07ULL},
    {"polyprod3 n=2 merged", 31, 44, 9, 20, "ok", 0xc3ad616650705a07ULL},
    {"polyprod3 n=2 grid2", 39, 44, 9, 20, "ok", 0xc3ad616650705a07ULL},
    {"polyprod3 n=4 cap1", 59, 114, 25, 34, "ok", 0xad40dc674a9be47bULL},
    {"polyprod3 n=4 cap2", 59, 114, 25, 34, "ok", 0xad40dc674a9be47bULL},
    {"polyprod3 n=4 merged", 59, 114, 25, 41, "ok", 0xad40dc674a9be47bULL},
    {"polyprod3 n=4 grid2", 84, 114, 25, 41, "ok", 0xad40dc674a9be47bULL},
    {"convolution n=2 cap1", 27, 36, 6, 17, "ok", 0x7a116874e24eaca1ULL},
    {"convolution n=2 cap2", 27, 36, 6, 12, "ok", 0x7a116874e24eaca1ULL},
    {"convolution n=2 merged", 27, 36, 6, 18, "ok", 0x7a116874e24eaca1ULL},
    {"convolution n=2 grid2", 32, 36, 6, 18, "ok", 0x7a116874e24eaca1ULL},
    {"convolution n=4 cap1", 55, 102, 20, 32, "ok", 0x4cc6ee5f87d925d9ULL},
    {"convolution n=4 cap2", 55, 102, 20, 32, "ok", 0x4cc6ee5f87d925d9ULL},
    {"convolution n=4 merged", 55, 102, 20, 39, "ok", 0x4cc6ee5f87d925d9ULL},
    {"convolution n=4 grid2", 77, 102, 20, 39, "ok", 0x4cc6ee5f87d925d9ULL},
    {"correlation n=2 cap1", 31, 74, 9, 15, "ok", 0x33b7f5ce4863fcc8ULL},
    {"correlation n=2 cap2", 31, 74, 9, 13, "ok", 0x33b7f5ce4863fcc8ULL},
    {"correlation n=2 merged", 31, 44, 9, 17, "ok", 0x11f86c5c1c74f97eULL},
    {"correlation n=2 grid2", 63, 74, 9, 23, "ok", 0x33b7f5ce4863fcc8ULL},
    {"correlation n=4 cap1", 57, 204, 25, 29, "ok", 0x455c4c45895e37bdULL},
    {"correlation n=4 cap2", 57, 204, 25, 24, "ok", 0x455c4c45895e37bdULL},
    {"correlation n=4 merged", 57, 114, 25, 30, "ok", 0xbb0a5710d19c0b3ULL},
    {"correlation n=4 grid2", 158, 204, 25, 40, "ok", 0x455c4c45895e37bdULL},
    {"fir_bank n=2 cap1", 27, 72, 12, 17, "ok", 0xc002422af281cafaULL},
    {"fir_bank n=2 cap2", 27, 72, 12, 12, "ok", 0xc002422af281cafaULL},
    {"fir_bank n=2 merged", 27, 72, 12, 18, "ok", 0xc002422af281cafaULL},
    {"fir_bank n=2 grid2", 32, 72, 12, 18, "ok", 0xc002422af281cafaULL},
    {"fir_bank n=4 cap1", 55, 408, 80, 32, "ok", 0xb92c9faae057eefcULL},
    {"fir_bank n=4 cap2", 55, 408, 80, 32, "ok", 0xb92c9faae057eefcULL},
    {"fir_bank n=4 merged", 55, 408, 80, 39, "ok", 0xb92c9faae057eefcULL},
    {"fir_bank n=4 grid2", 155, 408, 80, 39, "ok", 0xb92c9faae057eefcULL},
    {"closure n=2 cap1", 27, 108, 27, 9, "ok", 0x6c09fb2940ba38bfULL},
    {"closure n=2 cap2", 27, 108, 27, 4, "ok", 0x6c09fb2940ba38bfULL},
    {"closure n=2 merged", 27, 108, 27, 15, "ok", 0x6c09fb2940ba38bfULL},
    {"closure n=2 grid2", 61, 108, 27, 15, "ok", 0x6c09fb2940ba38bfULL},
    {"closure n=4 cap1", 49, 450, 125, 19, "ok", 0x84cc6e53fd79b271ULL},
    {"closure n=4 cap2", 49, 450, 125, 12, "ok", 0x84cc6e53fd79b271ULL},
    {"closure n=4 merged", 49, 450, 125, 26, "ok", 0x84cc6e53fd79b271ULL},
    {"closure n=4 grid2", 194, 450, 125, 26, "ok", 0x84cc6e53fd79b271ULL},
    {"masked_polyprod n=2 cap1", 29, 53, 9, 10, "ok", 0x668eba28b872b6a7ULL},
    {"masked_polyprod n=2 cap2", 29, 53, 9, 7, "ok", 0x668eba28b872b6a7ULL},
    {"masked_polyprod n=2 merged", 29, 44, 9, 18, "ok", 0xb057bb02ced65eaULL},
    {"masked_polyprod n=2 grid2", 44, 53, 9, 18, "ok", 0x668eba28b872b6a7ULL},
    {"masked_polyprod n=4 cap1", 53, 139, 25, 20, "ok", 0xeb7699480112e717ULL},
    {"masked_polyprod n=4 cap2", 53, 139, 25, 16, "ok", 0xeb7699480112e717ULL},
    {"masked_polyprod n=4 merged", 53, 114, 25, 33, "ok", 0xa10c234df7417cf2ULL},
    {"masked_polyprod n=4 grid2", 115, 139, 25, 37, "ok", 0xeb7699480112e717ULL},
    {"banded_matmul n=2 cap1", 27, 108, 27, 9, "ok", 0x30f0401585c4d57ULL},
    {"banded_matmul n=2 cap2", 27, 108, 27, 4, "ok", 0x30f0401585c4d57ULL},
    {"banded_matmul n=2 merged", 27, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"banded_matmul n=2 grid2", 61, 108, 27, 15, "ok", 0x30f0401585c4d57ULL},
    {"banded_matmul n=4 cap1", 49, 450, 125, 19, "ok", 0xbf55b66a89bb7762ULL},
    {"banded_matmul n=4 cap2", 49, 450, 125, 12, "ok", 0xbf55b66a89bb7762ULL},
    {"banded_matmul n=4 merged", 49, 450, 125, 26, "ok", 0xbf55b66a89bb7762ULL},
    {"banded_matmul n=4 grid2", 194, 450, 125, 26, "ok", 0xbf55b66a89bb7762ULL},
    {"polyprod1 trace", 43, 91, 16, 26, "ok", 0x8e1c8dadefed0ffeULL},
    {"polyprod1 stall+delay", 43, 91, 16, 57, "ok", 0x7034caffaf599c33ULL},
    {"polyprod1 kill", 0, 0, 0, 0, "Runtime", 0x3a90153c4335e90cULL},
    {"polyprod2 trace", 63, 148, 16, 39, "ok", 0x21cbec5d0b1e09f2ULL},
    {"polyprod2 stall+delay", 63, 148, 16, 88, "ok", 0x8a29cf667bb0b1eaULL},
    {"polyprod2 kill", 0, 0, 0, 0, "Runtime", 0x76d8278519780475ULL},
    {"matmul1 trace", 38, 240, 64, 19, "ok", 0xe304680b01f84e87ULL},
    {"matmul1 stall+delay", 38, 240, 64, 51, "ok", 0x86ea4db4967d3187ULL},
    {"matmul1 kill", 0, 0, 0, 0, "Runtime", 0x1a65ed7757835f36ULL},
    {"matmul2 trace", 27, 364, 64, 17, "ok", 0x8477d4e47b9ed9d3ULL},
    {"matmul2 stall+delay", 27, 364, 64, 38, "ok", 0x667d761a51251753ULL},
    {"matmul2 kill", 0, 0, 0, 0, "Runtime", 0xc3684bfbda3fbbc0ULL},
    {"matmul3 trace", 38, 240, 64, 19, "ok", 0xbae1a63a18a58547ULL},
    {"matmul3 stall+delay", 38, 240, 64, 60, "ok", 0x86ea4db4967d3187ULL},
    {"matmul3 kill", 0, 0, 0, 0, "Runtime", 0x488348426626a429ULL},
    {"matmul4 trace", 38, 240, 64, 19, "ok", 0xe304680b01f84e87ULL},
    {"matmul4 stall+delay", 38, 240, 64, 55, "ok", 0x86ea4db4967d3187ULL},
    {"matmul4 kill", 0, 0, 0, 0, "Runtime", 0x1a65ed7757835f36ULL},
    {"polyprod3 trace", 45, 75, 16, 30, "ok", 0x2f7bb3b4f72d7f03ULL},
    {"polyprod3 stall+delay", 45, 75, 16, 62, "ok", 0x3e707427f8fb7723ULL},
    {"polyprod3 kill", 0, 0, 0, 0, "Runtime", 0xec4cafd119a4b496ULL},
    {"convolution trace", 41, 65, 12, 28, "ok", 0xa2e8b353cd2d9f5ULL},
    {"convolution stall+delay", 41, 65, 12, 61, "ok", 0xdf2cb6bdfd085a6dULL},
    {"convolution kill", 0, 0, 0, 0, "Runtime", 0x75f1b445061b0c34ULL},
    {"correlation trace", 44, 131, 16, 29, "ok", 0xcdf894508a4b54b2ULL},
    {"correlation stall+delay", 44, 131, 16, 66, "ok", 0x6a7a494704aa0622ULL},
    {"correlation kill", 0, 0, 0, 0, "Runtime", 0x6d845676af9a2c7bULL},
    {"fir_bank trace", 41, 195, 36, 28, "ok", 0x128afc3cbc920effULL},
    {"fir_bank stall+delay", 41, 195, 36, 60, "ok", 0x723439b813915e67ULL},
    {"fir_bank kill", 0, 0, 0, 0, "Runtime", 0x4ff7c991e1544854ULL},
    {"closure trace", 38, 240, 64, 19, "ok", 0xa30991db2f2369e1ULL},
    {"closure stall+delay", 38, 240, 64, 51, "ok", 0xdf15188b6e0b4e1ULL},
    {"closure kill", 0, 0, 0, 0, "Runtime", 0x803a87a405d99ca9ULL},
    {"masked_polyprod trace", 43, 91, 16, 26, "ok", 0x9cba3c4f14021787ULL},
    {"masked_polyprod stall+delay", 43, 91, 16, 57, "ok", 0x2ddac170e7c2658aULL},
    {"masked_polyprod kill", 0, 0, 0, 0, "Runtime", 0x3a90153c4335e90cULL},
    {"banded_matmul trace", 38, 240, 64, 19, "ok", 0x6469bf9cf3551be5ULL},
    {"banded_matmul stall+delay", 38, 240, 64, 51, "ok", 0x1b6d84bcb4655ee5ULL},
    {"banded_matmul kill", 0, 0, 0, 0, "Runtime", 0x1a65ed7757835f36ULL},
};

/// FNV-1a over the bytes fed to it.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ULL;
    }
  }
  void num(Int v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    num(static_cast<Int>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// The 13 shipped designs: the catalog plus the two guarded ones.
std::vector<std::string> shipped_designs() {
  std::vector<std::string> names = catalog_names();
  names.push_back("masked_polyprod");
  names.push_back("banded_matmul");
  return names;
}

Design load_design(const std::string& name) {
  const std::vector<std::string> catalog = catalog_names();
  if (std::find(catalog.begin(), catalog.end(), name) != catalog.end()) {
    return design_by_name(name);
  }
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa");
  std::ostringstream text;
  text << in.rdbuf();
  return frontend::parse_design(text.str());
}

Env sizes_for(const Design& design, Int n) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    if (!env.contains(s.name())) {
      env[s.name()] = Rational(std::max<Int>(1, n - 1));
    }
  }
  return env;
}

IndexedStore seeded(const Design& design, const Env& sizes) {
  return make_initial_store(design.nest, sizes,
                            [](const auto& v, const auto& p) {
                              return pseudo_random(v, p);
                            });
}

/// transfers_per_stream and every stream's array (box and values).
void hash_run(Fnv& h, const Design& design, const RunMetrics& m,
              const IndexedStore& store) {
  for (const auto& [stream, count] : m.transfers_per_stream) {
    h.str(stream);
    h.num(count);
  }
  for (const Stream& s : design.nest.streams()) {
    const IndexedStore::Array& a = store.elements(s.name());
    h.str(s.name());
    for (Int v : a.box().lower) h.num(v);
    for (Int v : a.box().extent) h.num(v);
    h.bytes(a.data(), a.size() * sizeof(Value));
  }
}

std::string literal(const Row& r) {
  std::ostringstream os;
  os << "    {\"" << r.key << "\", " << r.makespan << ", " << r.transfers
     << ", " << r.statements << ", " << r.rounds << ", \"" << r.outcome
     << "\", 0x" << std::hex << r.hash << "ULL},";
  return os.str();
}

void expect_golden(const Row& got) {
  const Row* want = nullptr;
  for (const Row& r : kGolden) {
    if (r.key == got.key) want = &r;
  }
  EXPECT_TRUE(want != nullptr && *want == got)
      << "golden row differs or is missing; this run gives\n"
      << literal(got);
}

/// Run one instance on the interpreter and fill a row. A failed run
/// records its ErrorKind and the hash of its message, which is the
/// DeadlockReport's text for stalls.
Row run_row(const std::string& key, const Design& design,
            const CompiledProgram& prog, Int n, InstantiateOptions opt,
            Trace* trace = nullptr) {
  opt.backend = Backend::Interp;
  opt.trace = trace;
  const Env sizes = sizes_for(design, n);
  IndexedStore store = seeded(design, sizes);
  Row row;
  row.key = key;
  Fnv h;
  try {
    const RunMetrics m = execute(prog, design.nest, sizes, store, opt);
    row.makespan = m.makespan;
    row.transfers = m.total_transfers;
    row.statements = m.statements;
    row.rounds = m.scheduler_rounds;
    hash_run(h, design, m, store);
  } catch (const Error& e) {
    row.outcome = error_kind_name(e.kind());
    h.str(e.what());
  }
  if (trace != nullptr) {
    for (const StatementEvent& ev : trace->statements) {
      for (std::size_t i = 0; i < ev.process.dim(); ++i) h.num(ev.process[i]);
      h.num(ev.iteration);
      h.num(ev.time);
    }
  }
  row.hash = h.value();
  return row;
}

/// The first computation process that runs a statement: its kill at the
/// first statement strands every neighbour.
std::string first_busy_comp(const CompiledProgram& prog, const Design& design,
                            Int n) {
  const std::unique_ptr<NetworkPlan> plan =
      build_plan(prog, design.nest, sizes_for(design, n), PlanShape{});
  for (std::size_t i = 0; i < plan->procs.size(); ++i) {
    const NetworkPlan::ProcSpec& p = plan->procs[i];
    if (p.kind == NetworkPlan::ProcKind::Comp && p.count > 0) {
      return proc_name(*plan, i);
    }
  }
  return {};
}

class InterpGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(InterpGolden, ShapesMatchTheRecordedNumbers) {
  const Design design = load_design(GetParam());
  const CompiledProgram prog = compile(design.nest, design.spec);
  const std::vector<Int> grid(design.nest.depth() - 1, 2);
  for (Int n : {2, 4}) {
    const std::string at = GetParam() + " n=" + std::to_string(n);
    InstantiateOptions cap1;
    cap1.channel_capacity = 1;
    InstantiateOptions cap2;
    cap2.channel_capacity = 2;
    InstantiateOptions merged;
    merged.merge_internal_buffers = true;
    InstantiateOptions part;
    part.partition_grid = IntVec(grid);
    expect_golden(run_row(at + " cap1", design, prog, n, cap1));
    expect_golden(run_row(at + " cap2", design, prog, n, cap2));
    expect_golden(run_row(at + " merged", design, prog, n, merged));
    expect_golden(run_row(at + " grid2", design, prog, n, part));
  }
}

TEST_P(InterpGolden, TraceAndFaultsMatchTheRecordedNumbers) {
  const Design design = load_design(GetParam());
  const CompiledProgram prog = compile(design.nest, design.spec);
  const Int n = 3;
  Trace trace;
  expect_golden(run_row(GetParam() + " trace", design, prog, n, {}, &trace));

  // Stalls and delays only reorder the rounds: the run completes.
  const FaultPlan survivable =
      FaultPlan::parse("seed=7;stall=0.3:5;delay=0.2:4");
  InstantiateOptions stall;
  stall.faults = &survivable;
  const Row stalled =
      run_row(GetParam() + " stall+delay", design, prog, n, stall);
  EXPECT_EQ(stalled.outcome, "ok") << GetParam();
  expect_golden(stalled);

  // A killed computation process strands its neighbours: a deadlock,
  // reported with the runtime forensics.
  const std::string victim = first_busy_comp(prog, design, n);
  ASSERT_FALSE(victim.empty()) << GetParam();
  const FaultPlan fatal = FaultPlan::parse("seed=3;kill@" + victim + "=1");
  InstantiateOptions kill;
  kill.faults = &fatal;
  const Row killed = run_row(GetParam() + " kill", design, prog, n, kill);
  EXPECT_EQ(killed.outcome, "Runtime") << GetParam();
  expect_golden(killed);
}

INSTANTIATE_TEST_SUITE_P(Catalog, InterpGolden,
                         ::testing::ValuesIn(shipped_designs()));

}  // namespace
}  // namespace systolize
