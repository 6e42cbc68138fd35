// Perf-regression gate over BENCH_*.json artifacts: compares a baseline run
// (the previous CI artifact) against the current run and exits non-zero
// when any cell regresses by more than the threshold (default 20%,
// --max-regression=N). Two sections are understood:
//
//   "gemm" (BENCH_kernels.json)  — GFLOP/s per (m,k,n,backend) cell
//   "net"  (BENCH_serving.json)  — qps per cell, keyed by the composite
//          (frontend, replicas, connections, window); the replica sweep
//          carries only "replicas", the connection-scaling and pipelining
//          sweeps add "frontend"/"connections"/"window"
//   "forward" (BENCH_serving.json) — forward us_per_row per (model,
//          seq_len, requests, path) cell; BASM's cells carry no "model"
//          key, Wide&Deep's carry "wide_deep". Only the request path is
//          gated, and there a rise (not a drop) beyond the threshold fails
//   "recall" (BENCH_serving.json) — LBS recall us_per_request per k cell;
//          a rise beyond the threshold fails
//
//   bench_diff <baseline.json> <current.json> [--max-regression=20]
//
// A missing baseline — or one carrying none of these sections — exits 0
// ("nothing to compare") so the first run of a new branch passes; CI treats
// the download step the same way. Each section is gated independently, so the
// same binary serves both the kernels and the serving artifact. Cells
// present on only one side are reported but never fail the gate (sweeps
// may change across commits).
//
// Deliberately dependency-free like basm_lint: a hand-rolled scanner over
// the one JSON shape the benches emit, so the gate builds even when the
// library is broken.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Cell {
  long m = 0;
  long k = 0;
  long n = 0;
  /// backend name -> GFLOP/s
  std::map<std::string, double> gflops;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void SkipSpace(const std::string& text, size_t* i) {
  while (*i < text.size() && std::isspace(static_cast<unsigned char>(text[*i])))
    ++*i;
}

/// Parses a quoted string at *i (which must point at '"'); false on EOF.
bool ParseString(const std::string& text, size_t* i, std::string* out) {
  if (*i >= text.size() || text[*i] != '"') return false;
  ++*i;
  out->clear();
  while (*i < text.size() && text[*i] != '"') {
    if (text[*i] == '\\' && *i + 1 < text.size()) ++*i;
    out->push_back(text[(*i)++]);
  }
  if (*i >= text.size()) return false;
  ++*i;  // closing quote
  return true;
}

bool ParseNumber(const std::string& text, size_t* i, double* out) {
  SkipSpace(text, i);
  char* end = nullptr;
  *out = std::strtod(text.c_str() + *i, &end);
  if (end == text.c_str() + *i) return false;
  *i = static_cast<size_t>(end - text.c_str());
  return true;
}

/// Skips one JSON value at *i that is not an object (callers track object
/// nesting themselves): a string, true/false/null, an array (recursively,
/// string-aware), or a number. Benches grow new non-numeric cells over
/// time; the gate must ignore what it doesn't gate, never error on it.
bool SkipValue(const std::string& text, size_t* i) {
  SkipSpace(text, i);
  if (*i >= text.size()) return false;
  char c = text[*i];
  if (c == '"') {
    std::string ignored;
    return ParseString(text, i, &ignored);
  }
  if (c == '[') {
    ++*i;
    while (*i < text.size()) {
      SkipSpace(text, i);
      if (*i >= text.size()) return false;
      if (text[*i] == ']') {
        ++*i;
        return true;
      }
      if (text[*i] == ',') {
        ++*i;
        continue;
      }
      if (text[*i] == '{') {
        // Balance a nested object without interpreting it; strings are
        // consumed whole so braces inside them don't count.
        int depth = 0;
        while (*i < text.size()) {
          if (text[*i] == '"') {
            std::string ignored;
            if (!ParseString(text, i, &ignored)) return false;
            continue;
          }
          if (text[*i] == '{') ++depth;
          if (text[*i] == '}' && --depth == 0) {
            ++*i;
            break;
          }
          ++*i;
        }
        continue;
      }
      if (!SkipValue(text, i)) return false;
    }
    return false;  // unterminated array
  }
  for (const char* literal : {"true", "false", "null"}) {
    size_t len = std::strlen(literal);
    if (text.compare(*i, len, literal) == 0) {
      *i += len;
      return true;
    }
  }
  double ignored = 0;
  return ParseNumber(text, i, &ignored);
}

/// Extracts every gemm cell from one BENCH_kernels.json text. Scans for the
/// "gemm" array and walks its objects; tolerates unknown keys by skipping
/// to the next comma at the object's depth.
std::vector<Cell> ParseGemmCells(const std::string& text) {
  std::vector<Cell> cells;
  size_t pos = text.find("\"gemm\"");
  if (pos == std::string::npos) return cells;
  pos = text.find('[', pos);
  if (pos == std::string::npos) return cells;
  ++pos;
  while (pos < text.size()) {
    SkipSpace(text, &pos);
    if (pos >= text.size() || text[pos] == ']') break;
    if (text[pos] == ',') {
      ++pos;
      continue;
    }
    if (text[pos] != '{') break;  // malformed: stop rather than loop
    ++pos;
    Cell cell;
    bool in_gflops = false;
    int depth = 1;
    while (pos < text.size() && depth > 0) {
      SkipSpace(text, &pos);
      if (pos >= text.size()) break;
      char c = text[pos];
      if (c == '}') {
        --depth;
        if (in_gflops) in_gflops = false;
        ++pos;
        continue;
      }
      if (c == ',' || c == ':') {
        ++pos;
        continue;
      }
      if (c == '{') {
        ++depth;
        ++pos;
        continue;
      }
      if (c == '"') {
        std::string key;
        if (!ParseString(text, &pos, &key)) break;
        SkipSpace(text, &pos);
        if (pos >= text.size() || text[pos] != ':') continue;
        ++pos;
        SkipSpace(text, &pos);
        if (pos < text.size() && text[pos] == '{') {
          if (key == "gflops") in_gflops = true;
          ++depth;
          ++pos;
          continue;
        }
        double value = 0;
        size_t value_start = pos;
        if (!ParseNumber(text, &pos, &value)) {
          // Non-numeric value (string, bool, null, array): not a gated
          // metric — skip it and keep walking the object.
          pos = value_start;
          if (!SkipValue(text, &pos)) break;
          continue;
        }
        if (in_gflops) {
          cell.gflops[key] = value;
        } else if (key == "m") {
          cell.m = static_cast<long>(value);
        } else if (key == "k") {
          cell.k = static_cast<long>(value);
        } else if (key == "n") {
          cell.n = static_cast<long>(value);
        }
        continue;
      }
      ++pos;  // any other token: advance
    }
    if (!cell.gflops.empty()) cells.push_back(cell);
  }
  return cells;
}

std::string CellKey(const Cell& cell) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "m=%ld k=%ld n=%ld", cell.m, cell.k,
                cell.n);
  return buf;
}

/// One flat cell of a "net" or "forward" array: its string values and its
/// top-level numeric values by key. Nested objects are walked over.
struct FlatCell {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

/// The cell's identity over `keys`: "k=v" pairs, "-" for an absent key, so
/// cells that omit a key on both sides (old replicas-only net baselines)
/// keep matching.
std::string FlatCellKey(const FlatCell& cell,
                        const std::vector<std::string>& keys) {
  std::string out;
  for (const std::string& key : keys) {
    if (!out.empty()) out += ' ';
    out += key + '=';
    auto s = cell.strings.find(key);
    auto n = cell.numbers.find(key);
    if (s != cell.strings.end()) {
      out += s->second;
    } else if (n != cell.numbers.end()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", n->second);
      out += buf;
    } else {
      out += '-';
    }
  }
  return out;
}

/// Extracts every cell of the `section` array of one BENCH_*.json text.
/// The cells are flat objects: identity keys (numbers or strings) plus
/// metrics; metrics the caller does not gate ride along unread.
std::vector<FlatCell> ParseFlatCells(const std::string& text,
                                     const std::string& section) {
  std::vector<FlatCell> cells;
  size_t pos = text.find('"' + section + '"');
  if (pos == std::string::npos) return cells;
  pos = text.find('[', pos);
  if (pos == std::string::npos) return cells;
  ++pos;
  while (pos < text.size()) {
    SkipSpace(text, &pos);
    if (pos >= text.size() || text[pos] == ']') break;
    if (text[pos] == ',') {
      ++pos;
      continue;
    }
    if (text[pos] != '{') break;  // malformed: stop rather than loop
    ++pos;
    FlatCell cell;
    int depth = 1;
    while (pos < text.size() && depth > 0) {
      SkipSpace(text, &pos);
      if (pos >= text.size()) break;
      char c = text[pos];
      if (c == '}') {
        --depth;
        ++pos;
        continue;
      }
      if (c == ',' || c == ':') {
        ++pos;
        continue;
      }
      if (c == '{') {
        ++depth;
        ++pos;
        continue;
      }
      if (c == '"') {
        std::string key;
        if (!ParseString(text, &pos, &key)) break;
        SkipSpace(text, &pos);
        if (pos >= text.size() || text[pos] != ':') continue;
        ++pos;
        SkipSpace(text, &pos);
        if (pos < text.size() && text[pos] == '{') {
          ++depth;
          ++pos;
          continue;
        }
        if (pos < text.size() && text[pos] == '"') {
          std::string string_value;
          if (!ParseString(text, &pos, &string_value)) break;
          if (depth == 1) cell.strings[key] = string_value;
          continue;
        }
        double value = 0;
        size_t value_start = pos;
        if (!ParseNumber(text, &pos, &value)) {
          // Non-numeric value (bool, null, array): not a gated metric —
          // skip it and keep walking the object.
          pos = value_start;
          if (!SkipValue(text, &pos)) break;
          continue;
        }
        if (depth == 1) cell.numbers[key] = value;
        continue;
      }
      ++pos;  // any other token: advance
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// Keeps the cells that carry `metric` and, when `filter_key` is non-empty,
/// whose string `filter_key` equals `filter_value`.
std::vector<FlatCell> SelectFlatCells(std::vector<FlatCell> cells,
                                      const std::string& metric,
                                      const std::string& filter_key = "",
                                      const std::string& filter_value = "") {
  std::erase_if(cells, [&](const FlatCell& cell) {
    if (cell.numbers.count(metric) == 0) return true;
    if (filter_key.empty()) return false;
    auto it = cell.strings.find(filter_key);
    return it == cell.strings.end() || it->second != filter_value;
  });
  return cells;
}

/// Gates `metric` of each baseline cell against the current run's cell
/// with the same identity over `keys`. A higher-is-better metric fails on
/// a drop beyond the threshold, a lower-is-better one on a rise. Returns
/// the number of regressions; bumps *compared per matched cell.
int CompareFlatCells(const std::string& section,
                     const std::vector<FlatCell>& baseline,
                     const std::vector<FlatCell>& current,
                     const std::vector<std::string>& keys,
                     const std::string& metric, bool higher_is_better,
                     double max_regression_pct, int* compared) {
  std::map<std::string, double> current_by_key;
  for (const FlatCell& cell : current) {
    current_by_key[FlatCellKey(cell, keys)] = cell.numbers.at(metric);
  }
  int regressions = 0;
  for (const FlatCell& base : baseline) {
    const std::string key = FlatCellKey(base, keys);
    auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      std::printf("  [skip] %s %s: not in current run\n", section.c_str(),
                  key.c_str());
      continue;
    }
    ++*compared;
    const double before = base.numbers.at(metric);
    if (before <= 0) continue;
    const double delta_pct = 100.0 * (it->second - before) / before;
    if (higher_is_better ? delta_pct < -max_regression_pct
                         : delta_pct > max_regression_pct) {
      ++regressions;
      std::printf("  [FAIL] %s %s: %.3f -> %.3f %s (%+.1f%%)\n",
                  section.c_str(), key.c_str(), before, it->second,
                  metric.c_str(), delta_pct);
    }
  }
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  double max_regression_pct = 20.0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-regression=", 17) == 0) {
      max_regression_pct = std::strtod(argv[i] + 17, nullptr);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <current.json> "
                 "[--max-regression=PCT]\n");
    return 2;
  }

  std::string baseline_text;
  if (!ReadFile(paths[0], &baseline_text)) {
    std::printf("bench_diff: no baseline at %s — nothing to compare, OK\n",
                paths[0].c_str());
    return 0;
  }
  std::string current_text;
  if (!ReadFile(paths[1], &current_text)) {
    std::fprintf(stderr, "bench_diff: cannot read current run %s\n",
                 paths[1].c_str());
    return 2;
  }

  std::vector<Cell> gemm_baseline = ParseGemmCells(baseline_text);
  std::vector<Cell> gemm_current = ParseGemmCells(current_text);
  // "net" gates qps on every cell; "forward" gates only the request path's
  // us_per_row (the reference path is the oracle, not the product);
  // "recall" gates us_per_request on every cell.
  std::vector<FlatCell> net_baseline =
      SelectFlatCells(ParseFlatCells(baseline_text, "net"), "qps");
  std::vector<FlatCell> net_current =
      SelectFlatCells(ParseFlatCells(current_text, "net"), "qps");
  std::vector<FlatCell> forward_baseline = SelectFlatCells(
      ParseFlatCells(baseline_text, "forward"), "us_per_row", "path",
      "request");
  std::vector<FlatCell> forward_current = SelectFlatCells(
      ParseFlatCells(current_text, "forward"), "us_per_row", "path",
      "request");
  std::vector<FlatCell> recall_baseline = SelectFlatCells(
      ParseFlatCells(baseline_text, "recall"), "us_per_request");
  std::vector<FlatCell> recall_current = SelectFlatCells(
      ParseFlatCells(current_text, "recall"), "us_per_request");
  if (gemm_baseline.empty() && net_baseline.empty() &&
      forward_baseline.empty() && recall_baseline.empty()) {
    std::printf(
        "bench_diff: baseline has no gemm, net, forward or recall cells — "
        "OK\n");
    return 0;
  }
  if (!gemm_baseline.empty() && gemm_current.empty()) {
    std::fprintf(stderr, "bench_diff: current run has no gemm cells\n");
    return 1;
  }
  if (!net_baseline.empty() && net_current.empty()) {
    std::fprintf(stderr, "bench_diff: current run has no net cells\n");
    return 1;
  }
  if (!forward_baseline.empty() && forward_current.empty()) {
    std::fprintf(stderr, "bench_diff: current run has no forward cells\n");
    return 1;
  }
  if (!recall_baseline.empty() && recall_current.empty()) {
    std::fprintf(stderr, "bench_diff: current run has no recall cells\n");
    return 1;
  }

  std::map<std::string, const Cell*> current_by_key;
  for (const Cell& cell : gemm_current) current_by_key[CellKey(cell)] = &cell;

  int regressions = 0;
  int compared = 0;
  for (const Cell& base : gemm_baseline) {
    auto it = current_by_key.find(CellKey(base));
    if (it == current_by_key.end()) {
      std::printf("  [skip] %s: not in current run\n", CellKey(base).c_str());
      continue;
    }
    for (const auto& [backend, base_gflops] : base.gflops) {
      auto cur = it->second->gflops.find(backend);
      if (cur == it->second->gflops.end()) {
        std::printf("  [skip] %s %s: backend not in current run\n",
                    CellKey(base).c_str(), backend.c_str());
        continue;
      }
      ++compared;
      if (base_gflops <= 0) continue;
      double delta_pct = 100.0 * (cur->second - base_gflops) / base_gflops;
      if (delta_pct < -max_regression_pct) {
        ++regressions;
        std::printf("  [FAIL] %s %s: %.3f -> %.3f GFLOP/s (%.1f%%)\n",
                    CellKey(base).c_str(), backend.c_str(), base_gflops,
                    cur->second, delta_pct);
      }
    }
  }
  regressions += CompareFlatCells(
      "net", net_baseline, net_current,
      {"frontend", "replicas", "connections", "window"}, "qps",
      /*higher_is_better=*/true, max_regression_pct, &compared);
  regressions += CompareFlatCells(
      "forward", forward_baseline, forward_current,
      {"model", "seq_len", "requests", "path"}, "us_per_row",
      /*higher_is_better=*/false, max_regression_pct, &compared);
  regressions += CompareFlatCells(
      "recall", recall_baseline, recall_current, {"k"}, "us_per_request",
      /*higher_is_better=*/false, max_regression_pct, &compared);
  std::printf("bench_diff: %d cells compared, %d regressions beyond %.0f%%\n",
              compared, regressions, max_regression_pct);
  return regressions > 0 ? 1 : 0;
}
