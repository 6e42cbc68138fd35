#include "tools/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace basm::lint {
namespace {

#ifndef BASM_SOURCE_DIR
#error "BASM_SOURCE_DIR must point at the repository root"
#endif

std::string Fixture(const std::string& name) {
  return std::string(BASM_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

// --- fixture-backed positive cases: one file per rule, exact lines --------

TEST(LintFixtureTest, RawMutexFlagsMemberAndLockGuard) {
  std::vector<Finding> findings = LintFile(Fixture("raw_mutex.cc"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "raw-mutex");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_EQ(findings[1].rule, "raw-mutex");
  EXPECT_EQ(findings[1].line, 9);
}

TEST(LintFixtureTest, ThreadDetachFlagsDetachNotJoin) {
  std::vector<Finding> findings = LintFile(Fixture("thread_detach.cc"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "thread-detach");
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintFixtureTest, NondeterminismFlagsRandAndRandomDevice) {
  std::vector<Finding> findings = LintFile(Fixture("nondeterminism.cc"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "nondeterminism");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_EQ(findings[1].rule, "nondeterminism");
  EXPECT_EQ(findings[1].line, 7);
}

TEST(LintFixtureTest, IostreamInHeaderFlagsInclude) {
  std::vector<Finding> findings = LintFile(Fixture("iostream_header.h"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "iostream-in-header");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintFixtureTest, NodiscardStatusFlagsBareDeclarations) {
  std::vector<Finding> findings = LintFile(Fixture("nodiscard.h"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "nodiscard-status");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_EQ(findings[1].rule, "nodiscard-status");
  EXPECT_EQ(findings[1].line, 10);
}

TEST(LintFixtureTest, RawFeatureFetchFlagsMemberCallsOnly) {
  std::vector<Finding> findings = LintFile(Fixture("raw_fetch.cc"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "feature-fetch-outside-store");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[1].rule, "feature-fetch-outside-store");
  EXPECT_EQ(findings[1].line, 7);
}

TEST(LintFixtureTest, RawJournalIoFlagsMemberCallsOnly) {
  std::vector<Finding> findings = LintFile(Fixture("raw_journal.cc"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "journal-io-outside-store");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_EQ(findings[1].rule, "journal-io-outside-store");
  EXPECT_EQ(findings[1].line, 8);
}

// --- the negative case: a file full of near-misses produces nothing ------

TEST(LintFixtureTest, CleanFixtureHasZeroFindings) {
  std::vector<Finding> findings = LintFile(Fixture("clean.h"));
  for (const Finding& f : findings) {
    ADD_FAILURE() << "unexpected finding: " << FormatFinding(f);
  }
}

// --- content-level unit cases for the trickier matcher rules --------------

TEST(LintContentTest, StatusRuleOnlyAppliesToHeaders) {
  const std::string decl = "Status Flush(const std::string& path);\n";
  EXPECT_EQ(LintContent("src/x.h", decl).size(), 1u);
  EXPECT_TRUE(LintContent("src/x.cc", decl).empty());
}

TEST(LintContentTest, StatusRuleSkipsQualifiedCallsAndConstructors) {
  const std::string content =
      "inline void F() {\n"
      "  Status s = Status::Ok();\n"
      "  return Status(StatusCode::kInternal, \"x\");\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/x.h", content).empty());
}

TEST(LintContentTest, StatusRuleHonorsPreviousLineNodiscard) {
  const std::string content =
      "[[nodiscard]]\n"
      "StatusOr<int> Parse(const std::string& text);\n";
  EXPECT_TRUE(LintContent("src/x.h", content).empty());
}

TEST(LintContentTest, RawMutexAllowedInSynchronizationHeader) {
  const std::string content = "#include <mutex>\nstd::mutex mu;\n";
  EXPECT_TRUE(LintContent("src/common/synchronization.h", content).empty());
  EXPECT_EQ(LintContent("src/common/other.h", content).size(), 2u);
}

TEST(LintContentTest, NondeterminismAllowedInRng) {
  const std::string content = "std::random_device entropy;\n";
  EXPECT_TRUE(LintContent("src/common/rng.cc", content).empty());
  EXPECT_EQ(LintContent("src/data/synth.cc", content).size(), 1u);
}

TEST(LintContentTest, RawFeatureFetchAllowedInsideTheStore) {
  const std::string content = "auto f = server_->FetchUserFeatures(id);\n";
  EXPECT_TRUE(
      LintContent("src/feature_store/feature_store.cc", content).empty());
  EXPECT_EQ(LintContent("src/serving/pipeline.cc", content).size(), 1u);
  const std::string admit = "Status s = server_->AdmitFetch(id);\n";
  EXPECT_TRUE(LintContent("src/feature_store/feature_store.cc", admit).empty());
  EXPECT_EQ(LintContent("src/serving/pipeline.cc", admit).size(), 1u);
}

TEST(LintContentTest, RawJournalIoAllowedInsideTheStoreAndItsTests) {
  const std::string content = "auto s = journal_->AppendRecord(id, event);\n";
  EXPECT_TRUE(
      LintContent("src/feature_store/feature_store.cc", content).empty());
  EXPECT_TRUE(LintContent("tests/journal_test.cc", content).empty());
  EXPECT_EQ(LintContent("src/serving/pipeline.cc", content).size(), 1u);
}

TEST(LintContentTest, InlineAllowSuppressesNamedRuleOnly) {
  const std::string suppressed =
      "std::mutex mu;  // basm-lint: allow(raw-mutex)\n";
  EXPECT_TRUE(LintContent("src/x.cc", suppressed).empty());
  const std::string wrong_rule =
      "std::mutex mu;  // basm-lint: allow(nondeterminism)\n";
  EXPECT_EQ(LintContent("src/x.cc", wrong_rule).size(), 1u);
}

TEST(LintContentTest, BlockCommentsAndStringsAreStripped) {
  const std::string content =
      "/* std::mutex mu;\n"
      "   rand(); still commented */\n"
      "const char* s = \"time(nullptr)\";\n";
  EXPECT_TRUE(LintContent("src/x.cc", content).empty());
}

TEST(LintContentTest, TimeVariantsAllFlagged) {
  EXPECT_EQ(LintContent("src/x.cc", "auto t = time(nullptr);\n").size(), 1u);
  EXPECT_EQ(LintContent("src/x.cc", "auto t = time(NULL);\n").size(), 1u);
  EXPECT_EQ(LintContent("src/x.cc", "auto t = time(0);\n").size(), 1u);
  // A named argument is some other function, not the wall clock.
  EXPECT_TRUE(LintContent("src/x.cc", "auto t = time(step);\n").empty());
}

// --- walker behavior ------------------------------------------------------

TEST(LintPathsTest, WalkerSkipsFixtureDirsButLintsExplicitFiles) {
  // Scanning the tests/ tree must not surface the intentional violations
  // in lint_fixtures/ (the final-tree gate depends on this)...
  std::vector<Finding> scan =
      LintPaths({std::string(BASM_SOURCE_DIR) + "/tests"});
  for (const Finding& f : scan) {
    EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos)
        << FormatFinding(f);
  }
  // ...while naming a fixture file explicitly always lints it.
  std::vector<Finding> direct = LintPaths({Fixture("raw_mutex.cc")});
  EXPECT_EQ(direct.size(), 2u);
}

TEST(LintPathsTest, FinalTreeIsCleanUnderTheScanGate) {
  // The acceptance gate CI runs: src, tests, and bench lint clean.
  const std::string root(BASM_SOURCE_DIR);
  std::vector<Finding> findings =
      LintPaths({root + "/src", root + "/tests", root + "/bench"});
  for (const Finding& f : findings) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintRulesTest, CatalogNamesEveryEmittedRule) {
  std::vector<RuleInfo> rules = Rules();
  auto has = [&](const std::string& id) {
    return std::any_of(rules.begin(), rules.end(),
                       [&](const RuleInfo& r) { return r.id == id; });
  };
  EXPECT_TRUE(has("nodiscard-status"));
  EXPECT_TRUE(has("raw-mutex"));
  EXPECT_TRUE(has("thread-detach"));
  EXPECT_TRUE(has("nondeterminism"));
  EXPECT_TRUE(has("iostream-in-header"));
  EXPECT_TRUE(has("feature-fetch-outside-store"));
  EXPECT_TRUE(has("journal-io-outside-store"));
}

}  // namespace
}  // namespace basm::lint
