// Ground truth: execute the source program sequentially on the host store.
#pragma once

#include "runtime/host.hpp"
#include "systolic/step_place.hpp"

namespace systolize {

/// Run the loop nest in its sequential order (steps honoured) at a
/// concrete problem size, reading and updating `store` in place. A stream
/// missing from the store is created zero-filled over its declared box.
/// Raises Error(Validation) when an index map reaches outside its
/// stream's declared box (see make_initial_store).
void run_sequential(const LoopNest& nest, const Env& env, IndexedStore& store);

/// Convenience: a store with every Read stream filled by `init` and every
/// Update stream zero-initialized, each over its declared box. Before
/// allocating anything, raises Error(Overflow) naming the stream when a
/// box's extent, volume or byte count overflows Int, and
/// Error(Validation) naming the stream, the dimension and both ranges
/// when an index map's image over the loop bounds leaves the box.
[[nodiscard]] IndexedStore make_initial_store(
    const LoopNest& nest, const Env& env,
    const std::function<Value(const std::string&, const IntVec&)>& init);

/// The deterministic seeding the CLI and the serve daemon verify against:
/// element p of Read stream v gets (h + 13 * lane) % 23 - 11, where h
/// starts at the first character of v's name (1 for an empty name) and
/// folds in each coordinate as h = h * 31 + p[i]. Update streams start at
/// zero; lane 0 is the single-run seeding. Same checks as
/// make_initial_store.
[[nodiscard]] IndexedStore make_seeded_store(const LoopNest& nest,
                                             const Env& env, Int lane = 0);

}  // namespace systolize
