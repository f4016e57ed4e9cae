// Quickstart: compile the paper's running example (polynomial product,
// Appendix D.1), print the generated abstract program, and execute it on
// the message-passing simulator at a concrete problem size.
#include <iostream>

#include "ast/builder.hpp"
#include "ast/print.hpp"
#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

using namespace systolize;

int main() {
  // 1. A source program + systolic array from the catalog. The design is
  //    Appendix D.1: polynomial product with place.(i,j) = i.
  Design design = polyprod_design1();
  std::cout << "design: " << design.description << "\n\n";

  // 2. Run the systolizing compilation scheme (problem-size independent).
  CompiledProgram prog = compile(design.nest, design.spec);
  std::cout << "increment = " << prog.repeater.increment << "\n";
  std::cout << "PS = [" << prog.ps.min << " .. " << prog.ps.max << "]\n\n";

  // 3. Render the generated program in the paper's notation.
  auto tree = ast::build_ast(prog, design.nest);
  std::cout << ast::to_paper_notation(*tree) << "\n";

  // 4. Execute at n = 4: multiply (1 + 2x + 3x^2 + 4x^3 + 5x^4) by
  //    (2 + x + x^2 + x^3 + x^4).
  Env sizes{{"n", Rational(4)}};
  IndexedStore store;
  store.fill(design.nest.stream("a"), sizes,
             [](const IntVec& p) { return p[0] + 1; });
  store.fill(design.nest.stream("b"), sizes,
             [](const IntVec& p) { return p[0] == 0 ? 2 : 1; });
  store.fill(design.nest.stream("c"), sizes, [](const IntVec&) { return 0; });

  RunMetrics metrics = execute(prog, design.nest, sizes, store);
  std::cout << "run: " << metrics.to_string() << "\n";
  std::cout << "product coefficients:";
  for (const IntVec& p : IndexedStore::domain(design.nest.stream("c"), sizes)) {
    std::cout << ' ' << store.get("c", p);
  }
  std::cout << "\n";

  // 5. Cross-check against the sequential execution of the source program.
  IndexedStore check;
  check.fill(design.nest.stream("a"), sizes,
             [](const IntVec& p) { return p[0] + 1; });
  check.fill(design.nest.stream("b"), sizes,
             [](const IntVec& p) { return p[0] == 0 ? 2 : 1; });
  check.fill(design.nest.stream("c"), sizes, [](const IntVec&) { return 0; });
  run_sequential(design.nest, sizes, check);
  std::cout << (store.elements("c") == check.elements("c")
                    ? "matches sequential ground truth\n"
                    : "MISMATCH against sequential ground truth\n");
  return store.elements("c") == check.elements("c") ? 0 : 1;
}
