#!/usr/bin/env bash
# Runs the population-scale benchmarks (bench/micro_scale) and distills
# BENCH_scale.json: wall time and events per wall second for the sharded
# 5k → 1M client sweep, the two serial reference points, and the headline
# million-client day (which alone takes minutes).
#
# Usage: tools/run_scale_bench.sh [build-dir] [output-json]
#   build-dir    a tree with micro_scale built (default ./build); build it
#                with CMAKE_BUILD_TYPE=Release for numbers worth keeping
#   output-json  defaults to ./BENCH_scale.json
#
# tools/run_benches.sh runs this as one of its sections. Run it alone to
# capture a before/after pair: the same command against a Release tree of
# each commit (BENCH_scale.baseline.json holds the "before").
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_scale.json}"
RAW="${OUT%.json}.raw.micro_scale.json"

scale_bin="${BUILD_DIR}/bench/micro_scale"
if [[ ! -x "${scale_bin}" ]]; then
  echo "error: ${scale_bin} not built (cmake --build ${BUILD_DIR} --target micro_scale)" >&2
  exit 1
fi
if [[ -z "${BENCH_BUILD_TYPE:-}" ]]; then
  BENCH_BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null || true)"
  export BENCH_BUILD_TYPE="${BENCH_BUILD_TYPE:-unspecified}"
fi

echo "running ${scale_bin} (the 1M-client day takes minutes) ..." >&2
"${scale_bin}" --benchmark_format=json --benchmark_out="${RAW}" \
               --benchmark_out_format=json > /dev/null

python3 - "${OUT}" "${RAW}" <<'PY'
import json, os, sys

# google-benchmark reports real_time in each benchmark's own time_unit.
SECONDS_PER = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

out_path, raw_path = sys.argv[1:]
with open(raw_path) as f:
    dump = json.load(f)
ctx = dump.get("context", {})
distilled = {}
for b in dump.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    entry = {"real_time_s": b["real_time"] * SECONDS_PER[b["time_unit"]]}
    for k in ("items_per_second", "clients", "sim_sec_per_iter", "sim_hours"):
        if k in b:
            entry[k] = b[k]
    distilled[b["name"]] = entry

summary = {"scale_sweep": sorted(
    ({"clients": int(e["clients"]), "items_per_second": e.get("items_per_second"),
      "wall_seconds": e["real_time_s"]}
     for name, e in distilled.items() if name.startswith("BM_ScaleClients/")),
    key=lambda e: e["clients"])}
for name, day in distilled.items():
    if name.startswith("BM_MillionClientDay/"):
        summary["million_client_day_wall_seconds"] = day["real_time_s"]
        summary["million_client_day_events_per_second"] = day.get("items_per_second")

with open(out_path, "w") as f:
    json.dump({"context": {"date": ctx.get("date"),
                           "host_name": ctx.get("host_name"),
                           "num_cpus": ctx.get("num_cpus"),
                           "build_type": os.environ.get("BENCH_BUILD_TYPE", "unspecified")},
               "benchmarks": distilled,
               "summary": summary}, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(distilled)} benchmarks)")
PY
