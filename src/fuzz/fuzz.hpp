// Differential fuzzing: a seeded, replayable generator of random source
// programs satisfying the Appendix-A restrictions, paired with compatible
// (step, place) designs sampled from the enumerate.cpp pruning pipeline,
// driven through the full differential stack —
//
//   parse -> compile -> static verify -> plan (template compile +
//   expand) -> run on both engines (the interpreter, the bytecode VM solo
//   and over --batch=N SoA lanes)
//
// — with every result, makespan and transfer count cross-checked against
// the src/baseline/ sequential ground truth, and every static-verifier
// rejection cross-checked against an actual runtime failure or result
// divergence. Disagreements between the two oracles are auto-shrunk to
// minimized `.sa` reproducers (generator seed embedded) under
// designs/fuzz-corpus/, so every find becomes a permanent regression
// test. docs/static-analysis.md "Differential fuzzing" documents the
// generator's contract and the oracle matrix.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "designs/catalog.hpp"

namespace systolize::fuzz {

// ---- structured samples ---------------------------------------------------
//
// The generator works on a structured description (not raw text) so the
// shrinker can apply type-correct reductions; to_sa() renders it as `.sa`
// source and the parser is the single authority on what it means.

/// One sampled loop `loop <index> = 0 .. <upper> [by -1]`. Lower bounds
/// are always 0, which keeps the conservative variable-domain bounds of
/// to_sa() exact (min/max of c*x over [0, U] is one of {0, c*U}).
struct GenLoop {
  std::string index;
  std::map<std::string, Int> upper;  ///< size-symbol coefficients of rb
  Int upper_const = 0;               ///< constant part of rb
  Int dir = 1;                       ///< execution order: +1 or -1
};

/// One sampled stream: an (r-1) x r index map of full rank r-1 (resampled
/// until so, per Appendix A) and its access mode.
struct GenStream {
  std::string name;
  std::vector<std::vector<Int>> map;  ///< (r-1) rows of r coefficients
  bool update = false;
};

/// One additive term of the body: `[-] [scale*] s1 * s2 * ...` over read
/// streams (by index into FuzzSample::streams).
struct GenTerm {
  std::vector<std::size_t> streams;
  Int scale = 1;
  bool negate = false;
};

/// The sampled (step, place, loading) design; `present` is false when the
/// spec-candidate pool for the sampled source was empty.
struct GenSpec {
  bool present = false;
  std::vector<Int> step;
  std::vector<std::vector<Int>> place;
  std::map<std::string, std::vector<Int>> loading;
};

struct FuzzSample {
  std::uint64_t seed = 0;
  std::size_t index = 0;
  std::vector<std::string> size_syms;  ///< "n", optionally "m" (all >= 1)
  std::vector<GenLoop> loops;
  std::vector<GenStream> streams;  ///< exactly one update stream
  std::vector<GenTerm> terms;      ///< body: u := u (+|-) term ...
  bool guarded = false;
  std::vector<Int> guard_coeffs;  ///< over loop indices
  Int guard_const = 0;            ///< guard: coeffs . x + const >= 0
  GenSpec spec;
  std::string mutation;            ///< "" or the seeded-breakage kind
  std::map<std::string, Int> probe;  ///< concrete sizes the oracle runs at
};

/// Render as `.sa` source, guard included. parse_design() of the result
/// is the authoritative meaning of the sample.
[[nodiscard]] std::string to_sa(const FuzzSample& sample);

// ---- generator ------------------------------------------------------------

struct GeneratorOptions {
  /// Coefficient range [-K, K] for the sampled (step, place) pair.
  Int coeff_range = 1;
  /// Cap on the spec-candidate pool sampled from (keeps generation cheap;
  /// the pool order is the deterministic enumeration order).
  std::size_t spec_limit = 512;
  /// Percentage of samples that get one deliberate breakage (mutation)
  /// seeded in, to exercise the verifier/runtime agreement oracle.
  unsigned mutate_percent = 20;
};

/// Sample #`index` of campaign seed `seed` — a pure function of
/// (seed, index, options), so any sample is replayable in isolation.
[[nodiscard]] FuzzSample generate_sample(std::uint64_t seed,
                                         std::size_t index,
                                         const GeneratorOptions& options);

// ---- differential oracle --------------------------------------------------

enum class Outcome {
  /// Statically clean; every backend agreed with the sequential baseline.
  Pass,
  /// Verifier rejected AND the runtime confirmed (compile/plan/run failed
  /// or results diverged from the baseline) — the oracles agree.
  StaticReject,
  /// validate_source refused the nest and compile() refused it too.
  SourceReject,
  /// No (step, place) candidate survived spec pruning; nothing to run.
  NoDesign,
  /// DISAGREEMENT: statically clean but a backend failed or diverged.
  FalseAccept,
  /// DISAGREEMENT: rejected on a semantic rule, yet the run completed and
  /// matched the baseline on every backend.
  FalseReject,
};

[[nodiscard]] const char* outcome_name(Outcome o) noexcept;
[[nodiscard]] bool is_disagreement(Outcome o) noexcept;

struct OracleOptions {
  /// Bytecode SoA lane count cross-checked (<= 1 skips the batched run).
  std::size_t batch = 3;
};

struct OracleResult {
  Outcome outcome = Outcome::Pass;
  /// Verifier rule ids seen on the static path (errors only).
  std::vector<std::string> rules;
  /// First divergence / error message, for reports and reproducers.
  std::string detail;
};

/// The full differential stack on one parsed design at one size binding.
[[nodiscard]] OracleResult run_oracle(const Design& design, const Env& sizes,
                                      const OracleOptions& options);

/// to_sa -> parse -> run_oracle at the sample's probe sizes. Parse
/// failures of generated text are reported as FalseAccept (a generator
/// bug is a finding too, not a crash).
[[nodiscard]] OracleResult classify(const FuzzSample& sample,
                                    const OracleOptions& options);

// ---- shrinker -------------------------------------------------------------

struct ShrinkResult {
  FuzzSample sample;
  std::size_t steps = 0;  ///< accepted reductions
};

/// Greedy fixpoint reduction: drop the guard, drop read streams, shrink
/// index-map/step/place coefficients and loop bounds toward zero — keeping
/// a candidate reduction only when `keep(classify(candidate))` still
/// holds. Deterministic.
[[nodiscard]] ShrinkResult shrink(
    const FuzzSample& sample, const OracleOptions& options,
    const std::function<bool(const OracleResult&)>& keep);

// ---- campaign driver ------------------------------------------------------

struct FuzzOptions {
  std::uint64_t seed = 20260808;
  std::size_t count = 100;
  bool shrink = true;          ///< minimize findings before writing them
  std::string corpus_dir;      ///< reproducer directory ("" = don't write)
  /// Also write (shrunk) reproducers for consistent static rejects — the
  /// mode that seeds the checked-in corpus with verifier counterexamples.
  bool keep_rejects = false;
  GeneratorOptions gen;
  OracleOptions oracle;
};

struct SampleRecord {
  std::size_t index = 0;
  Outcome outcome = Outcome::Pass;
  std::vector<std::string> rules;
  std::string detail;
  std::string reproducer;  ///< corpus path, when one was written
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::size_t count = 0;
  std::size_t passed = 0;
  std::size_t static_rejects = 0;
  std::size_t source_rejects = 0;
  std::size_t no_design = 0;
  std::size_t disagreements = 0;
  /// Every non-Pass sample, in index order.
  std::vector<SampleRecord> records;

  [[nodiscard]] bool clean() const noexcept { return disagreements == 0; }
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::string to_json() const;
};

/// Generate, classify, shrink and corpus-ify `count` samples.
[[nodiscard]] FuzzReport run_campaign(const FuzzOptions& options);

// ---- corpus replay --------------------------------------------------------

struct ReplayResult {
  std::size_t files = 0;
  std::size_t disagreements = 0;
  /// One line per re-found disagreement: "<file>: <outcome> <detail>".
  std::vector<std::string> violations;

  [[nodiscard]] bool clean() const noexcept { return disagreements == 0; }
};

/// Re-run the differential oracle on every `.sa` file under `dir`
/// (sorted by name). A reproducer passes replay when the two oracles
/// agree on it — i.e. the bug it once witnessed stays fixed.
[[nodiscard]] ReplayResult replay_corpus(const std::string& dir,
                                         const OracleOptions& options);

/// The corpus reproducer text: `.sa` source prefixed with `#` comment
/// lines embedding the campaign seed, sample index and finding.
[[nodiscard]] std::string reproducer_text(const FuzzSample& sample,
                                          const OracleResult& verdict);

}  // namespace systolize::fuzz
