// Campaign + corpus replay: report bookkeeping, reproducer files that
// parse and replay cleanly, and end-to-end determinism of a whole run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "frontend/parser.hpp"
#include "fuzz/fuzz.hpp"

namespace systolize::fuzz {
namespace {

FuzzOptions quick_campaign(const std::string& corpus_dir) {
  FuzzOptions options;
  options.seed = 3;
  options.count = 25;
  options.corpus_dir = corpus_dir;
  options.oracle.batch = 2;
  return options;
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(FuzzCampaign, TalliesAddUp) {
  const FuzzReport report = run_campaign(quick_campaign(""));
  EXPECT_EQ(report.passed + report.static_rejects + report.source_rejects +
                report.no_design + report.disagreements,
            report.count);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(FuzzCampaign, EndToEndDeterministic) {
  const FuzzReport a = run_campaign(quick_campaign(""));
  const FuzzReport b = run_campaign(quick_campaign(""));
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(FuzzCampaign, KeepRejectsWritesParsableReproducers) {
  TempDir dir("systolize-fuzz-test-corpus");
  FuzzOptions options = quick_campaign(dir.path.string());
  options.keep_rejects = true;
  const FuzzReport report = run_campaign(options);
  ASSERT_TRUE(report.clean()) << report.to_string();

  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() != ".sa") continue;
    ++files;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NO_THROW(frontend::parse_design(text.str())) << entry.path();
    EXPECT_NE(text.str().find("# fuzz reproducer:"), std::string::npos);
    EXPECT_NE(text.str().find("# probe:"), std::string::npos);
  }
  EXPECT_GT(files, 0u);

  // Replay over the corpus we just wrote must agree with itself.
  const ReplayResult replay = replay_corpus(dir.path.string(), options.oracle);
  EXPECT_EQ(replay.files, files);
  EXPECT_TRUE(replay.clean()) << (replay.violations.empty()
                                      ? ""
                                      : replay.violations.front());
}

TEST(FuzzCampaign, ReplayOnMissingDirectoryIsClean) {
  const ReplayResult replay =
      replay_corpus("/nonexistent/fuzz-corpus", OracleOptions{});
  EXPECT_EQ(replay.files, 0u);
  EXPECT_TRUE(replay.clean());
}

TEST(FuzzCampaign, CheckedInCorpusReplaysClean) {
  const std::string dir = std::string(SYSTOLIZE_DESIGN_DIR) + "/fuzz-corpus";
  OracleOptions oracle;
  oracle.batch = 2;
  const ReplayResult replay = replay_corpus(dir, oracle);
  EXPECT_GT(replay.files, 0u) << "no reproducers checked in under " << dir;
  EXPECT_TRUE(replay.clean()) << (replay.violations.empty()
                                      ? ""
                                      : replay.violations.front());
}

TEST(FuzzCampaign, JsonReportIsWellFormedEnough) {
  FuzzOptions options = quick_campaign("");
  options.count = 10;
  const std::string json = run_campaign(options).to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"seed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
}

}  // namespace
}  // namespace systolize::fuzz
