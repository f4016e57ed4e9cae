// FIR convolution on the systolic substrate, plus the three concrete
// renderings of the generated abstract program (paper notation, occam-like
// and C-like — the "translatable to any distributed language" claim of
// Sect. 1 exercised mechanically instead of by hand translation).
#include <iostream>

#include "ast/builder.hpp"
#include "ast/print.hpp"
#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

using namespace systolize;

int main() {
  Design design = convolution_design();
  CompiledProgram prog = compile(design.nest, design.spec);
  std::cout << "design: " << design.description << "\n";
  std::cout << "flows: w=" << prog.stream_plan("w").motion.flow
            << " x=" << prog.stream_plan("x").motion.flow
            << " y=" << prog.stream_plan("y").motion.flow
            << " (stationary, loading vector "
            << prog.stream_plan("y").motion.direction << ")\n\n";

  auto tree = ast::build_ast(prog, design.nest);
  std::cout << "---------- paper notation ----------\n"
            << ast::to_paper_notation(*tree) << "\n";
  std::cout << "---------- occam rendering ----------\n"
            << ast::to_occam(*tree) << "\n";
  std::cout << "---------- C rendering ----------\n"
            << ast::to_c(*tree) << "\n";

  // Smooth a step signal with a 4-tap box filter: n = 11 outputs, m = 3.
  Env sizes{{"n", Rational(11)}, {"m", Rational(3)}};
  IndexedStore store;
  store.fill(design.nest.stream("w"), sizes, [](const IntVec&) { return 1; });
  store.fill(design.nest.stream("x"), sizes,
             [](const IntVec& p) { return p[0] >= 7 ? 4 : 0; });
  store.fill(design.nest.stream("y"), sizes, [](const IntVec&) { return 0; });
  IndexedStore check = store;
  run_sequential(design.nest, sizes, check);

  RunMetrics metrics = execute(prog, design.nest, sizes, store);
  std::cout << "run: " << metrics.to_string() << "\n";
  std::cout << "filtered signal:";
  for (const IntVec& p : IndexedStore::domain(design.nest.stream("y"), sizes)) {
    std::cout << ' ' << store.get("y", p);
  }
  std::cout << "\n";
  bool ok = store.elements("y") == check.elements("y");
  std::cout << (ok ? "matches sequential ground truth\n"
                   : "MISMATCH against sequential ground truth\n");
  return ok ? 0 : 1;
}
