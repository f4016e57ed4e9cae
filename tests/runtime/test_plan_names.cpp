// Golden process and channel names. A plan stores no names: a process
// is identified by its PS box point (and, for an internal buffer, its
// index) and a channel by its stream, pipe and link, and proc_name(),
// channel_name() and proc_place() render what diagnostics, traces, the
// DOT graph and fault targets show. Each row hashes, over one expanded
// plan, every process's name and place and every channel's name; the
// hashes were recorded from the plans that still stored those strings,
// so the derived renderings must reproduce them exactly. Every shipped
// design runs at two sizes, and two designs with internal buffers also
// under channel capacity 1, merged buffers and a partition grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "frontend/parser.hpp"
#include "runtime/plan_cache.hpp"
#include "scheme/compiler.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize {
namespace {

struct Row {
  const char* key;  ///< "<design> n=<n>[ <shape>]"
  std::size_t procs;
  std::size_t channels;
  std::uint64_t hash;
};

// Recorded at the commit before plans dropped their stored names.
const Row kGolden[] = {
    {"polyprod1 n=3", 14, 19, 0x831760d5e6096a12ULL},
    {"polyprod1 n=6", 20, 31, 0x2a1afdfcc585cb67ULL},
    {"polyprod2 n=3", 20, 31, 0x2a1afdfcc585cb67ULL},
    {"polyprod2 n=3 cap1", 20, 31, 0x2a1afdfcc585cb67ULL},
    {"polyprod2 n=3 merged", 13, 24, 0xaabf490be20b98c1ULL},
    {"polyprod2 n=3 grid2", 20, 31, 0x2a1afdfcc585cb67ULL},
    {"polyprod2 n=6", 32, 55, 0x77168aa426fc604cULL},
    {"polyprod2 n=6 cap1", 32, 55, 0x77168aa426fc604cULL},
    {"polyprod2 n=6 merged", 19, 42, 0x4439f03f49a492ecULL},
    {"polyprod2 n=6 grid2", 32, 55, 0x77168aa426fc604cULL},
    {"polyprod3 n=3", 10, 15, 0x8fd649418949912aULL},
    {"polyprod3 n=6", 13, 24, 0x39da697047743881ULL},
    {"matmul1 n=3", 40, 60, 0x11b5bd9bc36ec929ULL},
    {"matmul1 n=6", 91, 168, 0x55e9b1a534005525ULL},
    {"matmul2 n=3", 127, 174, 0x4e641b245b9ca12eULL},
    {"matmul2 n=6", 355, 558, 0x622b5c7b3e9e2a23ULL},
    {"matmul3 n=3", 40, 60, 0x463716d26baec109ULL},
    {"matmul3 n=6", 91, 168, 0x297b962ba35ff2adULL},
    {"matmul4 n=3", 40, 60, 0x11b5bd9bc36ec929ULL},
    {"matmul4 n=6", 91, 168, 0x55e9b1a534005525ULL},
    {"convolution n=3", 10, 15, 0xfc868dec0f8865d0ULL},
    {"convolution n=6", 13, 24, 0x7731f6d29771ba5dULL},
    {"correlation n=3", 18, 23, 0xb5aa5bbab0a7ab3dULL},
    {"correlation n=3 cap1", 18, 23, 0xb5aa5bbab0a7ab3dULL},
    {"correlation n=3 merged", 10, 15, 0x2e6f03d96cb6242ULL},
    {"correlation n=3 grid2", 18, 23, 0xb5aa5bbab0a7ab3dULL},
    {"correlation n=6", 27, 38, 0x4bc105acfe972e8fULL},
    {"correlation n=6 cap1", 27, 38, 0x4bc105acfe972e8fULL},
    {"correlation n=6 merged", 13, 24, 0xaabf490be20b98c1ULL},
    {"correlation n=6 grid2", 27, 38, 0x4bc105acfe972e8fULL},
    {"fir_bank n=3", 20, 30, 0xd47f66034df9724cULL},
    {"fir_bank n=6", 52, 96, 0x78501b8f4a3adb4dULL},
    {"closure n=3", 40, 60, 0x891481298375991dULL},
    {"closure n=6", 91, 168, 0xecd01bfa7c1ed819ULL},
    {"masked_polyprod n=3", 14, 19, 0x831760d5e6096a12ULL},
    {"masked_polyprod n=6", 20, 31, 0x2a1afdfcc585cb67ULL},
    {"banded_matmul n=3", 40, 60, 0x11b5bd9bc36ec929ULL},
    {"banded_matmul n=6", 91, 168, 0x55e9b1a534005525ULL},
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The row of `plan` under `key`: "<name>\n<place>\n" per process, then
/// "<name>\n" per channel, hashed in plan order.
Row row_of(const char* key, const NetworkPlan& plan) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    h = fnv1a(h, proc_name(plan, i) + "\n" + proc_place(plan, i).to_string() +
                     "\n");
  }
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    h = fnv1a(h, channel_name(plan, c) + "\n");
  }
  return Row{key, plan.procs.size(), plan.channels.size(), h};
}

Design shipped_design(const std::string& name) {
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa");
  std::stringstream text;
  text << in.rdbuf();
  return frontend::parse_design(text.str());
}

TEST(PlanNames, DerivedNamesAndPlacesMatchTheRecordedOnes) {
  for (const Row& golden : kGolden) {
    // Parse the key back into design, size and shape.
    std::istringstream key(golden.key);
    std::string name, size, shape_tag;
    key >> name >> size >> shape_tag;
    const Int n = std::stoll(size.substr(2));
    const Design design = shipped_design(name);
    const CompiledProgram prog = compile(design.nest, design.spec);
    Env sizes{{"n", Rational(n)}};
    for (const Symbol& s : design.nest.sizes()) {
      if (!sizes.contains(s.name())) {
        sizes[s.name()] = Rational(std::max<Int>(1, n / 2));
      }
    }
    PlanShape shape;
    if (shape_tag == "cap1") shape.channel_capacity = 1;
    if (shape_tag == "merged") shape.merge_internal_buffers = true;
    if (shape_tag == "grid2") {
      shape.partition_grid =
          IntVec(std::vector<Int>(design.nest.depth() - 1, 2));
    }
    const Row got =
        row_of(golden.key, *build_plan(prog, design.nest, sizes, shape));
    EXPECT_EQ(got.procs, golden.procs) << golden.key;
    EXPECT_EQ(got.channels, golden.channels) << golden.key;
    EXPECT_EQ(got.hash, golden.hash)
        << golden.key << ": {\"" << golden.key << "\", " << got.procs << ", "
        << got.channels << ", 0x" << std::hex << got.hash << "ULL}";
  }
}

// A name is rendered from integers alone, so a hand-built plan names its
// processes and channels by the same rules.
TEST(PlanNames, HandBuiltPlanRendersEveryKind) {
  NetworkPlan plan;
  const std::string long_name(200, 'z');  // names have no length bound
  plan.streams = {"a", "bb", long_name};
  plan.ps_min = IntVec{-1, 2};
  plan.ps_max = IntVec{1, 4};
  auto add = [&plan](NetworkPlan::ProcKind kind, std::uint32_t stream,
                     std::uint32_t point, std::int32_t buffer) {
    NetworkPlan::ProcSpec p;
    p.kind = kind;
    p.stream = stream;
    p.point = point;
    p.buffer = buffer;
    plan.procs.push_back(p);
  };
  add(NetworkPlan::ProcKind::Comp, 0, 0, -1);
  add(NetworkPlan::ProcKind::Input, 1, 5, -1);
  add(NetworkPlan::ProcKind::Output, 0, 8, -1);
  add(NetworkPlan::ProcKind::Pass, 1, 4, 2);
  add(NetworkPlan::ProcKind::Pass, 0, 7, -1);
  add(NetworkPlan::ProcKind::Pass, 2, 8, 11);
  NetworkPlan::ChannelSpec c;
  c.stream = 1;
  c.pipe = 12;
  c.link = 305;
  plan.channels.push_back(c);
  c.stream = 2;
  plan.channels.push_back(c);

  EXPECT_EQ(proc_place(plan, 0), (IntVec{-1, 2}));
  EXPECT_EQ(proc_place(plan, 1), (IntVec{0, 4}));
  EXPECT_EQ(proc_place(plan, 2), (IntVec{1, 4}));
  EXPECT_EQ(proc_name(plan, 0), "comp:(-1,2)");
  EXPECT_EQ(proc_name(plan, 1), "in:bb:(0,4)");
  EXPECT_EQ(proc_name(plan, 2), "out:a:(1,4)");
  EXPECT_EQ(proc_name(plan, 3), "buf:bb:(0,3)#2");
  EXPECT_EQ(proc_name(plan, 4), "xbuf:a:(1,3)");
  EXPECT_EQ(proc_name(plan, 5), "buf:" + long_name + ":(1,4)#11");
  EXPECT_EQ(channel_name(plan, 0), "bb[12].305");
  EXPECT_EQ(channel_name(plan, 1), long_name + "[12].305");
}

}  // namespace
}  // namespace systolize
