#!/usr/bin/env python3
"""The adattl benchmark: one command, four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_site --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload dnsd_open_loop --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

It builds perfbench/ (the library sources one directory up, always in
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs perfbench_harness for the workload, prints a human-readable report
with provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HARNESS_TIMEOUT_S = 170

# Per-layer metrics that only one kind of workload has. The other kind
# reports them as 0: that layer does no work there.
DNSD_ONLY = ("dnsd.", "gen.")
SITE_ONLY = ("site.", "kernel.", "client.", "web.", "monitor.", "ns.", "alarm.",
             "estimator.", "fault.", "shard.", "barrier.")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the harness and the daemon in Release."""
    for needed in ("src/CMakeLists.txt", "tools/adattl_dnsd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"no adattl sources here ({needed} is missing)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    log = sys.stderr
    if not os.path.isfile(cache):
        rc = subprocess.call(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target",
                          "perfbench_harness", "adattl_dnsd"], stdout=log, stderr=log)
    if rc != 0:
        die("build failed")
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        die(f"refusing to measure a non-Release tree (CMAKE_BUILD_TYPE='{build_type}')")
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "adattl_tools", "adattl_dnsd"), build_type)


def source_id():
    """git sha when the checkout is a repository, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git " + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources sha256 " + h.hexdigest()[:16]


def pinned_digests():
    """workload -> {seed: digest} from golden_digests.json."""
    path = os.path.join(BENCH_DIR, "golden_digests.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def run_harness(harness, dnsd, workload, seed, seconds, trace, extra=(), expect_digest=""):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADATTL_")}
    cmd = [harness, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={1 if trace else 0}", f"--dnsd={dnsd}",
           f"--assets={os.path.join(BENCH_DIR, 'workloads')}"]
    if expect_digest:
        cmd.append(f"--expect-digest={expect_digest}")
    cmd += list(extra)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        die(f"harness failed (exit {out.returncode})")
    return json.loads(lines[-1])


def summarise(spec, raw, trace):
    """Turns harness output into the metrics object; returns (metrics, problems)."""
    problems = []
    metrics = {}
    is_dnsd = raw["workload"] == "dnsd_open_loop"
    if not trace:
        for m in spec["end_to_end"]:
            values = raw["e2e"].get(m["name"], [])
            if not values or not all(isinstance(v, (int, float)) and v > 0 and math.isfinite(v)
                                     for v in values):
                problems.append(f"end-to-end metric {m['name']} missing or not positive")
                continue
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            other_kind = name.startswith(SITE_ONLY if is_dnsd else DNSD_ONLY)
            value = raw["layer"].get(name)
            if value is None and other_kind:
                value = 0.0
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"per-layer metric {name} missing")
                continue
            metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def result_line(raw, metrics, problems):
    """The JSON object the benchmark ends with."""
    correct = not problems and all(c["ok"] for c in raw["checks"])
    return json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                       "failed": int(raw["failed"]), "metrics": metrics})


def schema_problems(line, expected):
    """What is wrong with a result line, given the metrics it must carry."""
    obj = json.loads(line)
    problems = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result line keys")
    if not isinstance(obj.get("correct"), bool):
        problems.append("correct is not a boolean")
    if not isinstance(obj.get("attempted"), int) or obj["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(obj.get("failed"), int):
        problems.append("failed is not a whole number")
    metrics = obj.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"] or \
                not isinstance(got["value"], (int, float)):
            problems.append(f"metric {m['name']}: value/unit")
    return problems


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(spec, raw, metrics, problems, provenance, trace):
    p = print
    p(f"adattl benchmark: {raw['workload']} seed {raw['seed']} "
      f"({'traced, per layer' if trace else 'untraced, end to end'})")
    for k, v in provenance.items():
        p(f"  {k}: {v}")
    for k, v in sorted(raw.get("info", {}).items()):
        p(f"  {k}: {v}")
    refs = raw["e2e"].get("host.ref_ms", [])
    if refs:
        p(f"  host reference: median {statistics.median(refs):.4g} ms over {len(refs)} timings")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in metrics.items():
        line = f"  {name:30s} {m['value']:.6g} {units[name]}"
        if not trace:
            values = raw["e2e"][name]
            q1, q3 = spread(values)
            line += f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
        p(line)
    for c in raw["checks"]:
        p(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
          + (f" ({c['detail']})" if c["detail"] and not c["ok"] else ""))
    for msg in problems:
        p(f"  problem: {msg}")


def measure(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
    harness, dnsd, build_type = build()
    pins = pinned_digests()
    digest = pins.get(args.workload, {}).get(str(args.seed), "")
    raw = run_harness(harness, dnsd, args.workload, args.seed, args.seconds, args.trace,
                      expect_digest=digest)
    metrics, problems = summarise(spec, raw, args.trace)
    provenance = {
        "host": f"{platform.node()} ({os.cpu_count()} CPUs, {platform.machine()})",
        "build": build_type,
        "source": source_id(),
        "seconds": args.seconds,
    }
    if args.workload in pins:
        provenance["pinned digest"] = digest or (
            f"none for seed {args.seed} (golden_digests.json pins seeds "
            f"0-{len(pins[args.workload]) - 1}); checked against a rerun only")
    report(spec, raw, metrics, problems, provenance, args.trace)
    print(result_line(raw, metrics, problems))


def self_test(spec):
    """Every workload at a tiny size through the same code path: schema,
    names and units, checks passing, and a corrupted result caught."""
    harness, dnsd, _ = build()
    bad = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            raw = run_harness(harness, dnsd, name, 7, 1, trace, ["--tiny"])
            metrics, problems = summarise(spec, raw, trace)
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            line = result_line(raw, metrics, problems)
            problems += schema_problems(line, expected)
            if not json.loads(line)["correct"]:
                problems.append("a clean run is not correct: " + ", ".join(
                    c["name"] for c in raw["checks"] if not c["ok"]))
            if raw["failed"] != 0:
                problems.append(f"{raw['failed']} failed on a clean run")
            if trace and name == "sharded_day":
                layer = raw["layer"]
                workers = float(raw["info"]["workers"])
                lhs = layer["shard.busy_s"] + layer["barrier.wait_s"]
                if not math.isclose(lhs, workers * layer["site.loop_s"], rel_tol=1e-9):
                    problems.append("busy + wait != workers x loop")
            for msg in problems:
                bad.append(f"{name} (trace {int(trace)}): {msg}")
            print(f"self-test: {name} trace {int(trace)}: {'ok' if not problems else 'FAIL'}")
        raw = run_harness(harness, dnsd, name, 7, 1, False, ["--tiny", "--corrupt"])
        caught = [c["name"] for c in raw["checks"] if not c["ok"]]
        print(f"self-test: {name} corrupted result caught by: {', '.join(caught) or 'nothing'}")
        if not caught:
            bad.append(f"{name}: corrupted result not caught")
    # The pinned-digest path, at full size: a pinned seed must match its
    # pin, and a wrong pin must be caught.
    for name, pins in sorted(pinned_digests().items()):
        for pin, want in ((pins["0"], True), ("0" * 16, False)):
            raw = run_harness(harness, dnsd, name, 0, 0.001, False, expect_digest=pin)
            got = [c["ok"] for c in raw["checks"] if c["name"] == "pinned digest"]
            ok = got == [want]
            print(f"self-test: {name} seed 0 {'pinned' if want else 'wrong'} digest: "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                bad.append(f"{name}: pinned digest check gave {got}, expected [{want}]")
    for msg in bad:
        print(f"self-test: FAIL {msg}")
    return 0 if not bad else 1


def pin_digests(spec, seeds):
    """Maintenance: records the replication-0 digest of the serial workloads
    for each seed in golden_digests.json."""
    harness, dnsd, _ = build()
    pins = {}
    for name in ("paper_site", "churn_site"):
        pins[name] = {}
        for seed in seeds:
            raw = run_harness(harness, dnsd, name, seed, 0.001, False)
            pins[name][str(seed)] = raw["info"]["digest"]
    with open(os.path.join(BENCH_DIR, "golden_digests.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(seeds)} seeds per serial workload")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin-digests", type=int, metavar="N",
                    help="pin serial-workload digests for seeds 0..N-1")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.self_test:
        sys.exit(self_test(spec))
    if args.pin_digests:
        pin_digests(spec, range(args.pin_digests))
        return
    if not args.workload:
        die("--workload is required")
    if not args.seconds > 0:
        die("--seconds must be > 0")
    measure(spec, args)


if __name__ == "__main__":
    main()
