#include "tools/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "tools/suppressions.h"

namespace basm::lint {

// ---------------------------------------------------------------------------
// Rule catalog. Each rule is a token/regex scan over comment- and
// string-stripped lines, deliberately libclang-free so the linter builds
// anywhere the project does. Escapes, in order of preference: fix the code,
// add an inline `basm-lint: allow(rule-id)` on the offending line, or (for
// whole files that legitimately own the construct) add an entry to the
// declarative table in tools/allowlist.conf.
// ---------------------------------------------------------------------------

namespace {

bool PathAllowed(const std::string& rule, const std::string& path) {
  return SuppressionsMatch(LintPathAllowlist(), rule, path);
}

bool IsHeaderPath(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

}  // namespace

bool MarkerAllows(const std::string& raw_line, const std::string& marker,
                  const std::string& rule) {
  size_t at = raw_line.find(marker);
  if (at == std::string::npos) return false;
  size_t open = raw_line.find('(', at);
  size_t close = raw_line.find(')', open);
  if (close == std::string::npos) return false;
  std::string list = raw_line.substr(open + 1, close - open - 1);
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item.erase(std::remove(item.begin(), item.end(), ' '), item.end());
    if (item == rule) return true;
  }
  return false;
}

namespace {

/// True when the raw (un-stripped) line carries an inline suppression for
/// `rule`: `basm-lint: allow(rule-a,rule-b)`.
bool LineAllowed(const std::string& raw_line, const std::string& rule) {
  return MarkerAllows(raw_line, "basm-lint: allow(", rule);
}

}  // namespace

std::string StripLine(const std::string& line, bool* in_block_comment) {
  std::string out;
  out.reserve(line.size());
  size_t i = 0;
  while (i < line.size()) {
    if (*in_block_comment) {
      if (line.compare(i, 2, "*/") == 0) {
        *in_block_comment = false;
        out += "  ";
        i += 2;
      } else {
        out += ' ';
        ++i;
      }
      continue;
    }
    if (line.compare(i, 2, "//") == 0) {
      out.append(line.size() - i, ' ');
      break;
    }
    if (line.compare(i, 2, "/*") == 0) {
      *in_block_comment = true;
      out += "  ";
      i += 2;
      continue;
    }
    char c = line[i];
    if (c == '"' || c == '\'') {
      char quote = c;
      out += ' ';
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          out += "  ";
          i += 2;
          continue;
        }
        bool closing = line[i] == quote;
        out += ' ';
        ++i;
        if (closing) break;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

namespace {

// --- individual rule matchers, operating on one stripped line --------------

const std::regex kRawMutexRe(
    R"(std\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|unique_lock|scoped_lock|condition_variable(_any)?)\b)");
const std::regex kRawMutexIncludeRe(
    R"(#\s*include\s*<(mutex|condition_variable|shared_mutex)>)");

const std::regex kDetachRe(R"((\.|->)\s*detach\s*\(\s*\))");

const std::regex kNondeterminismRe(
    R"(std\s*::\s*random_device|std\s*::\s*rand\b|\brand\s*\(\s*\)|\bsrand\s*\(|\btime\s*\(\s*(nullptr|NULL|0)\s*\)|\bdrand48\b)");

const std::regex kIostreamIncludeRe(R"(#\s*include\s*<iostream>)");

/// `Status Foo(` / `StatusOr<...> Foo(` declaration heads. Constructor
/// calls (`Status(...)`), qualified names (`Status::Ok(`), callable types
/// (`std::function<Status(...)`) and assignments (`Status s = ...`) all
/// fail the identifier-then-paren shape, so they never match.
const std::regex kStatusDeclRe(
    R"((?:^|[^:\w])(?:basm\s*::\s*)?(Status|StatusOr\s*<.*>)\s+([A-Za-z_]\w*)\s*\()");

const std::regex kNodiscardRe(R"(\[\[\s*nodiscard\s*\]\])");

/// Member calls of the raw feature-server RPC (`x.FetchUserFeatures(` /
/// `x->FetchUserFeatures(`) or its fallible half (`x->AdmitFetch(`).
/// Declarations and qualified mentions (`FeatureServer::FetchUserFeatures`)
/// fail the member-access shape, so the server's own code never matches.
const std::regex kRawFeatureFetchRe(
    R"((\.|->)\s*(FetchUserFeatures|AdmitFetch)\s*\()");

/// Member calls of the raw click-journal IO surface (`x.AppendRecord(` /
/// `x->ReplayInto(`). Durability must flow through FeatureStore::RecordClick
/// / RecoverFromJournal so the write-ahead ordering (append before apply)
/// cannot be bypassed; the store and the journal's own tests are
/// path-allowlisted.
const std::regex kRawJournalIoRe(R"((\.|->)\s*(AppendRecord|ReplayInto)\s*\()");

}  // namespace

std::vector<RuleInfo> Rules() {
  return {
      {"nodiscard-status",
       "Status/StatusOr-returning declarations must be [[nodiscard]] so the "
       "compiler flags every ignored recoverable failure"},
      {"raw-mutex",
       "all locking goes through basm::Mutex/MutexLock/CondVar "
       "(common/synchronization.h) so Clang thread-safety analysis can see "
       "every lock"},
      {"thread-detach",
       "detached threads outlive shutdown and race teardown; every thread "
       "must be joined (ThreadPool or an owned std::thread)"},
      {"nondeterminism",
       "rand/time/random_device make runs irreproducible; all entropy flows "
       "from seeded basm::Rng streams (common/rng)"},
      {"iostream-in-header",
       "<iostream> in a header injects static iostream initializers into "
       "every TU; headers use <ostream> and logging goes through BASM_LOG"},
      {"feature-fetch-outside-store",
       "direct FeatureServer::FetchUserFeatures/AdmitFetch call bypasses "
       "the sharded FeatureStore facade (stale cache, prefetch, fault "
       "accounting); "
       "fetch through feature_store::FeatureStore instead"},
      {"journal-io-outside-store",
       "direct ClickJournal append/replay bypasses the FeatureStore's "
       "write-ahead ordering (journal before apply) and recovery "
       "accounting; use FeatureStore::RecordClick / RecoverFromJournal"},
  };
}

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content) {
  std::vector<Finding> findings;
  const bool is_header = IsHeaderPath(path);

  auto report = [&](int line_no, const std::string& raw,
                    const std::string& rule, const std::string& message) {
    if (PathAllowed(rule, path)) return;
    if (LineAllowed(raw, rule)) return;
    findings.push_back(Finding{path, line_no, rule, message});
  };

  std::istringstream in(content);
  std::string raw;
  bool in_block_comment = false;
  // One line of lookbehind so `[[nodiscard]]` on its own line (or trailing
  // on the previous declaration line) still blesses the declaration head.
  std::string previous_stripped;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = StripLine(raw, &in_block_comment);

    if (std::regex_search(line, kRawMutexRe) ||
        std::regex_search(line, kRawMutexIncludeRe)) {
      report(line_no, raw, "raw-mutex",
             "raw std synchronization primitive; use basm::Mutex/MutexLock/"
             "CondVar from common/synchronization.h");
    }
    if (std::regex_search(line, kDetachRe)) {
      report(line_no, raw, "thread-detach",
             "detached thread; join it instead (owned std::thread or "
             "ThreadPool)");
    }
    if (std::regex_search(line, kNondeterminismRe)) {
      report(line_no, raw, "nondeterminism",
             "unseeded entropy source; draw from a seeded basm::Rng stream");
    }
    if (std::regex_search(line, kRawFeatureFetchRe)) {
      report(line_no, raw, "feature-fetch-outside-store",
             "raw feature-server fetch; go through the FeatureStore facade "
             "(feature_store/feature_store.h)");
    }
    if (std::regex_search(line, kRawJournalIoRe)) {
      report(line_no, raw, "journal-io-outside-store",
             "raw click-journal IO; go through FeatureStore::RecordClick / "
             "RecoverFromJournal (feature_store/feature_store.h)");
    }
    if (is_header && std::regex_search(line, kIostreamIncludeRe)) {
      report(line_no, raw, "iostream-in-header",
             "#include <iostream> in a header; include <ostream> and log "
             "via BASM_LOG");
    }
    if (is_header) {
      std::smatch m;
      if (std::regex_search(line, m, kStatusDeclRe) &&
          !std::regex_search(line, kNodiscardRe) &&
          !std::regex_search(previous_stripped, kNodiscardRe)) {
        report(line_no, raw, "nodiscard-status",
               "declaration returning " + m[1].str() +
                   " must be [[nodiscard]]");
      }
    }
    previous_stripped = line;
  }
  return findings;
}

std::vector<Finding> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "io-error", "cannot open file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintContent(path, buffer.str());
}

namespace {

bool IsLintableFile(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool SkipDirectory(const std::string& name) {
  return name == ".git" || name.rfind("build", 0) == 0 ||
         name == "lint_fixtures" || name == "third_party";
}

}  // namespace

std::vector<Finding> LintPaths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : paths) {
    fs::path p(root);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p, ec), end;
      while (it != end) {
        if (it->is_directory() &&
            SkipDirectory(it->path().filename().string())) {
          it.disable_recursion_pending();
        } else if (it->is_regular_file() && IsLintableFile(it->path())) {
          files.push_back(it->path().generic_string());
        }
        it.increment(ec);
        if (ec) break;
      }
    } else {
      // Explicit file arguments are always linted, even fixture files.
      files.push_back(p.generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::vector<Finding> f = LintFile(file);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  return findings;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " +
         finding.rule + " " + finding.message;
}

}  // namespace basm::lint
