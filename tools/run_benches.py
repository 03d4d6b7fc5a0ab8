#!/usr/bin/env python3
"""Builds the tree, runs the benchmarks and writes the perf ledger.

Usage: tools/run_benches.py [--release] [BUILD_DIR] [LEDGER ...]

  --release  configure BUILD_DIR with CMAKE_BUILD_TYPE=Release first; the
             default BUILD_DIR becomes build-release instead of build
  LEDGER     kernel, obs, scale, dnsd, estimator or geo (default: all;
             scale alone runs for about ten minutes)

Each ledger is written to BENCH_<ledger>.json in the repository root, in
one schema:

  context     date, host_name, num_cpus, build_type (from CMakeCache.txt)
              and git_sha ("-dirty" when the tree has changes)
  benchmarks  row name -> {unit, median, min, max, reps}; times are in
              seconds ("s"), rates per second ("1/s")
  summary     optional: the median ratios the docs cite

Google-benchmark binaries run each benchmark family (the name before the
first "/") in a process of its own, with 5 repetitions interleaved within
the family (a benchmark can set its own count). The daemon rows run each
configuration 3 times with one load generator per shard, counting only
runs in which every shard served a flow. A saturating generator measures queueing in its latency
rows, so one configuration also runs at a fixed rate, below saturation.
micro_estimator and micro_geo report accuracy, not time: their own JSON
document is kept under the common context, and they exit nonzero, which
stops this tool, when their claims fail.
"""
import datetime
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS_PER = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
CONTEXT_KEYS = {"date", "host_name", "num_cpus", "build_type", "git_sha"}
ROW_KEYS = {"unit", "median", "min", "max", "reps"}
# name -> (shards, batch, adattl_dnsblast --qps per shard; 0 = saturate)
DAEMON_CONFIGS = {"shards1_batch1": (1, 1, 0), "shards1_batch32": (1, 32, 0),
                  "shards2_batch32": (2, 32, 0), "shards4_batch32": (4, 32, 0),
                  "shards2_batch32_qps20k": (2, 32, 10000)}
DAEMON_RUNS = 3
DAEMON_SECONDS = 2


def row(unit, values):
    """One ledger row: the median and range of repeated measurements."""
    return {"unit": unit, "median": statistics.median(values),
            "min": min(values), "max": max(values), "reps": len(values)}


def gbench_rows(dump):
    """Ledger rows from google-benchmark JSON: each benchmark's real time
    in seconds, plus a "<name>/items_per_second" row where it reports one.
    The aggregate rows (mean, median, stddev, cv) are dropped; the
    repetitions themselves give the median and range."""
    samples = {}
    for b in dump["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        seconds = b["real_time"] * SECONDS_PER[b["time_unit"]]
        samples.setdefault((b["name"], "s"), []).append(seconds)
        if "items_per_second" in b:
            samples.setdefault((b["name"] + "/items_per_second", "1/s"),
                               []).append(b["items_per_second"])
    return {name: row(unit, values) for (name, unit), values in samples.items()}


def families(names):
    """The benchmark families of `names`, a family being the part of a name
    before the first "/", in the order they first appear."""
    return list(dict.fromkeys(name.split("/", 1)[0] for name in names))


def family_filter(family):
    """The --benchmark_filter regex that selects exactly one family."""
    return f"^{re.escape(family)}(/|$)"


def gbench(build, target):
    """Each benchmark family runs in its own process, so a short row is not
    measured in the heap and caches a long unrelated row left behind.
    Repetitions interleave within a family, where paired rows (a run and
    its _obs twin) sit."""
    binary = os.path.join(build, "bench", target)
    listed = subprocess.run([binary, "--benchmark_list_tests=true"], check=True,
                            stdout=subprocess.PIPE, text=True).stdout.split()
    rows = {}
    for family in families(listed):
        out = subprocess.run(
            [binary, f"--benchmark_filter={family_filter(family)}", "--benchmark_repetitions=5",
             "--benchmark_enable_random_interleaving=true", "--benchmark_format=json"],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        rows.update(gbench_rows(json.loads(out)))
    return rows


def ratio(rows, over, under):
    return rows[over]["median"] / rows[under]["median"]


def daemon_run(build, shards, batch, qps):
    """One adattl_dnsd under one adattl_dnsblast per shard, each sending
    `qps` queries a second (0 = as fast as it can).
    Returns answers/s, answers per daemon CPU second, and the worst flow's
    p50 and p99 in seconds; or None when some shard served nothing, since
    SO_REUSEPORT places each UDP flow on a shard by a hash of its address
    and two flows can land on the same shard."""
    dnsd = subprocess.Popen(
        [os.path.join(build, "tools", "adattl_dnsd"), "--dnsd-port=0",
         f"--dnsd-shards={shards}", f"--dnsd-batch={batch}", "--policy=DRR2-TTL/S_K"],
        stderr=subprocess.PIPE, text=True)
    try:
        port = next((m.group(1) for m in
                     (re.search(r"on 127\.0\.0\.1:(\d+)", line) for line in dnsd.stderr)
                     if m), None)
        if port is None:
            raise RuntimeError("adattl_dnsd exited without reporting its port")
        cpu0 = cpu_seconds(dnsd.pid)
        blasts = [subprocess.Popen(
            [os.path.join(build, "tools", "adattl_dnsblast"), f"--port={port}", f"--qps={qps}",
             f"--duration={DAEMON_SECONDS}", "--batch=32", "--ecs", "--json"],
            stdout=subprocess.PIPE, text=True) for _ in range(shards)]
        flows = [json.loads(b.communicate()[0]) for b in blasts]
        if any(b.returncode != 0 for b in blasts):
            raise RuntimeError(f"adattl_dnsblast got no answers: {flows}")
        cpu = cpu_seconds(dnsd.pid) - cpu0
    finally:
        dnsd.send_signal(signal.SIGTERM)
        stats = dnsd.communicate(timeout=10)[1]
    if "0" in re.findall(r"shard \d+: rx (\d+)", stats):
        return None
    return (sum(f["answers_per_sec"] for f in flows),
            sum(f["answers"] for f in flows) / cpu,
            max(f["p50_us"] for f in flows) * 1e-6,
            max(f["p99_us"] for f in flows) * 1e-6)


def cpu_seconds(pid):
    """CPU seconds of `pid`'s live threads: the sum of the first field of
    /proc/<pid>/task/*/schedstat, each thread's time on CPU in nanoseconds
    (utime + stime in /proc/<pid>/stat would count 10 ms clock ticks)."""
    total_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as f:
                total_ns += int(f.read().split()[0])
        except FileNotFoundError:
            pass  # the thread exited after the listing
    return total_ns * 1e-9


def daemon_rows(build):
    rows = {}
    for name, (shards, batch, qps) in DAEMON_CONFIGS.items():
        runs, attempts = [], 0
        while len(runs) < DAEMON_RUNS:
            attempts += 1
            if attempts > 100:
                raise RuntimeError(f"{name}: too few runs loaded every shard")
            run = daemon_run(build, shards, batch, qps)
            if run:
                runs.append(run)
        print(f"  daemon {name}: {DAEMON_RUNS} runs ({attempts - DAEMON_RUNS} discarded "
              "with an idle shard)", file=sys.stderr)
        for metric, unit, values in zip(
                ("answers_per_sec", "answers_per_daemon_cpu_sec", "p50", "p99"),
                ("1/s", "1/cpu_s", "s", "s"), zip(*runs)):
            if qps and metric == "answers_per_sec":
                continue  # the offered rate, not a measurement
            rows[f"{name}/{metric}"] = row(unit, values)
    return rows


def plain_json(build, target):
    out = subprocess.run([os.path.join(build, "bench", target)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return {"benchmarks": {}, **json.loads(out)}


def kernel(build):
    rows = {**gbench(build, "micro_event_queue"), **gbench(build, "micro_simulation")}
    return {"benchmarks": rows, "summary": {
        "obs_enabled_over_disabled": ratio(rows, "BM_FullSite/DRR2_TTLSK_obs/real_time",
                                           "BM_FullSite/DRR2_TTLSK/real_time"),
        "chaos_over_fault_free":
            ratio(rows, "BM_FullSite/RR_chaos/real_time", "BM_FullSite/RR/real_time")}}


def dnsd(build):
    rows = {**gbench(build, "micro_dnsd"), **daemon_rows(build)}
    aps = "/answers_per_sec"
    return {"benchmarks": rows, "summary": {
        "batch32_over_batch1": ratio(rows, "shards1_batch32" + aps, "shards1_batch1" + aps),
        "shards2_over_shards1": ratio(rows, "shards2_batch32" + aps, "shards1_batch32" + aps),
        "shards4_over_shards1": ratio(rows, "shards4_batch32" + aps, "shards1_batch32" + aps)}}


# ledger -> (build targets, how to measure it)
LEDGERS = {
    "kernel": (["micro_event_queue", "micro_simulation"], kernel),
    "obs": (["micro_obs"], lambda build: {"benchmarks": gbench(build, "micro_obs")}),
    "scale": (["micro_scale"], lambda build: {"benchmarks": gbench(build, "micro_scale")}),
    "dnsd": (["micro_dnsd", "adattl_dnsd", "adattl_dnsblast"], dnsd),
    "estimator": (["micro_estimator"], lambda build: plain_json(build, "micro_estimator")),
    "geo": (["micro_geo"], lambda build: plain_json(build, "micro_geo")),
}


def context(build):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)

    def git(*args):
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha and git("status", "--porcelain"):
        sha += "-dirty"
    return {"date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            "host_name": socket.gethostname(), "num_cpus": os.cpu_count(),
            "build_type": (m.group(1) if m else "") or "unspecified", "git_sha": sha}


def check_schema(name, ledger):
    if set(ledger["context"]) != CONTEXT_KEYS:
        raise ValueError(f"{name}: context keys {sorted(ledger['context'])}")
    for row_name, r in ledger["benchmarks"].items():
        if set(r) != ROW_KEYS or not r["min"] <= r["median"] <= r["max"] or r["reps"] < 1:
            raise ValueError(f"{name}: malformed row {row_name}: {r}")


def main(argv):
    flags = [a for a in argv if a.startswith("-")]
    args = [a for a in argv if not a.startswith("-")]
    if set(flags) - {"--release"}:
        sys.exit(__doc__)
    release = "--release" in flags
    build = os.path.abspath(args.pop(0) if args and args[0] not in LEDGERS else
                            "build-release" if release else "build")
    unknown = [a for a in args if a not in LEDGERS]
    if unknown:
        sys.exit(f"{__doc__}\nunknown ledger: {' '.join(unknown)}")
    names = args or list(LEDGERS)

    subprocess.run(["cmake", "-B", build, "-S", ROOT] +
                   (["-DCMAKE_BUILD_TYPE=Release"] if release else []),
                   check=True, stdout=sys.stderr)
    targets = [t for n in names for t in LEDGERS[n][0]]
    subprocess.run(["cmake", "--build", build, f"-j{os.cpu_count()}", "--target", *targets],
                   check=True, stdout=sys.stderr)
    ctx = context(build)
    for name in names:
        print(f"running the {name} ledger ...", file=sys.stderr)
        ledger = {"context": ctx, **LEDGERS[name][1](build)}
        check_schema(name, ledger)
        path = os.path.join(ROOT, f"BENCH_{name}.json")
        with open(path, "w") as f:
            json.dump(ledger, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {path} ({len(ledger['benchmarks'])} rows)", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
