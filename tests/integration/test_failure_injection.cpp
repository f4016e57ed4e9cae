// Failure injection: corrupted compiled programs must be rejected loudly —
// either by the instantiation-time conservation law (soak + uses + drain
// must equal the pipeline length) or by the scheduler's deadlock detector.
// Silent wrong answers are the failure mode a distributed runtime must
// never have.
#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

Env sizes3() { return Env{{"n", Rational(3)}}; }

IndexedStore seed(const Design& d) {
  return make_initial_store(
      d.nest, sizes3(), [](const std::string&, const IntVec&) { return 1; });
}

TEST(FailureInjection, CorruptedSoakCountViolatesConservation) {
  Design d = polyprod_design2();
  CompiledProgram prog = compile(d.nest, d.spec);
  // Claim one extra soaked element of stream a at every process.
  Piecewise<AffineExpr> corrupted;
  for (const auto& piece : prog.streams[0].soak.pieces()) {
    corrupted.add(piece.guard, piece.value + AffineExpr(1));
  }
  prog.streams[0].soak = corrupted;
  IndexedStore store = seed(d);
  try {
    (void)execute(prog, d.nest, sizes3(), store);
    FAIL() << "expected conservation failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Inconsistent) << e.what();
    EXPECT_NE(std::string(e.what()).find("soak+uses+drain"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureInjection, OverlongPipelineCountDeadlocks) {
  Design d = polyprod_design1();
  CompiledProgram prog = compile(d.nest, d.spec);
  // Inflate stream b's pipeline count: the input process offers more
  // elements than anyone consumes and blocks forever. The conservation
  // check cannot see this (it compares against the same corrupted count),
  // but the deadlock detector fires.
  Piecewise<AffineExpr> corrupted;
  for (const auto& piece : prog.stream_plan("b").io.count_s.pieces()) {
    corrupted.add(piece.guard, piece.value + AffineExpr(1));
  }
  for (StreamPlan& plan : prog.streams) {
    if (plan.name == "b") plan.io.count_s = corrupted;
  }
  IndexedStore store = seed(d);
  try {
    (void)execute(prog, d.nest, sizes3(), store);
    FAIL() << "expected a failure";
  } catch (const Error& e) {
    // Either the conservation law or the deadlock detector must fire.
    EXPECT_TRUE(e.kind() == ErrorKind::Runtime ||
                e.kind() == ErrorKind::Inconsistent)
        << e.what();
  }
}

TEST(FailureInjection, RepeaterCountMismatchIsCaught) {
  Design d = matmul_design1();
  CompiledProgram prog = compile(d.nest, d.spec);
  // One fewer statement per process: uses no longer match the pipelines.
  Piecewise<AffineExpr> corrupted;
  for (const auto& piece : prog.repeater.count.pieces()) {
    corrupted.add(piece.guard, piece.value - AffineExpr(1));
  }
  prog.repeater.count = corrupted;
  IndexedStore store = seed(d);
  try {
    (void)execute(prog, d.nest, sizes3(), store);
    FAIL() << "expected conservation failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Inconsistent) << e.what();
  }
}

TEST(FailureInjection, NestWithReorderedStreamsIsRejected) {
  // The statement's slots are the nest's stream positions and a plan's
  // stream ids the program's: running a program with a nest that lists
  // the same streams in another order must fail loudly, not mix operands.
  Design d = polyprod_design1();
  CompiledProgram prog = compile(d.nest, d.spec);
  std::vector<Stream> streams = d.nest.streams();
  std::swap(streams[0], streams[1]);
  LoopNest swapped(
      d.nest.name(), d.nest.loops(), streams, d.nest.sizes(),
      d.nest.size_assumptions(),
      frontend::parse_statement("c := c + a * b", streams, d.nest.loops()));
  IndexedStore store = seed(d);
  try {
    (void)execute(prog, swapped, sizes3(), store);
    FAIL() << "expected the stream orders to be refused";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation) << e.what();
    EXPECT_NE(std::string(e.what()).find("order streams apart"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace systolize
