// perfbench_harness — measures one adattl workload from outside and prints
// one JSON line of raw repetitions, per-layer values and output checks.
// perfbench/run.py builds it, runs it and summarises; run it directly only
// when debugging the benchmark:
//
//   perfbench_harness --workload=paper_site --seed=1 --seconds=10 --trace=0
//       --dnsd=PATH --assets=perfbench/workloads [--expect-digest=HEX]
//       [--tiny] [--corrupt]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host_ref.h"
#include "report.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest round-trip spelling; non-finite values become null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Options& opt, const Report& r) {
  std::string out = "{\"workload\": \"" + json_escape(opt.workload) + "\"";
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"e2e\": {";
  bool first = true;
  for (const auto& [name, values] : r.e2e) {
    out += std::string(first ? "" : ", ") + "\"" + name + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + num(values[i]);
    out += "]";
    first = false;
  }
  out += "}, \"layer\": {";
  first = true;
  for (const auto& [name, value] : r.layer) {
    out += std::string(first ? "" : ", ") + "\"" + name + "\": " + num(value);
    first = false;
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Report::Check& c = r.checks[i];
    out += std::string(i ? ", " : "") + "{\"name\": \"" + json_escape(c.name) +
           "\", \"ok\": " + (c.ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(c.detail) + "\"}";
  }
  out += "], \"info\": {";
  first = true;
  for (const auto& [key, value] : r.info) {
    out += std::string(first ? "" : ", ") + "\"" + json_escape(key) + "\": \"" +
           json_escape(value) + "\"";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--tiny") opt.tiny = true;
    else if (flag == "--corrupt") opt.corrupt = true;
    else if (flag == "--dnsd") opt.dnsd_path = value;
    else if (flag == "--assets") opt.assets_dir = value;
    else if (flag == "--expect-digest") opt.expect_digest = value;
    else {
      std::fprintf(stderr, "perfbench_harness: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "perfbench_harness: --seconds must be > 0\n");
    return 2;
  }

  Report report;
  report.info["host_ref_nominal_ms"] = num(kHostReferenceNominalS * 1e3);
  int rc = 0;
  try {
    if (opt.workload == "dnsd_open_loop") {
      rc = run_dnsd_workload(opt, report);
    } else {
      rc = run_site_workload(opt, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  print_report(opt, report);
  return 0;
}
