#!/usr/bin/env python3
"""Checks that two `run_scenario --json` reports hold the same result.

Usage: tools/same_result.py A.json B.json

The keys that change from run to run (wall_seconds, cpu_seconds, phases,
provenance) are dropped at every depth; everything else, every counter
and every double, must match exactly. Exits 1 naming the first key that
differs.
"""
import json
import sys

VOLATILE = {"wall_seconds", "cpu_seconds", "phases", "provenance"}


def first_difference(a, b, path="$"):
    """The path of the first value that differs between a and b, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key in VOLATILE:
                continue
            if key not in a or key not in b:
                return f"{path}.{key}"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if a == b else path


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as fa, open(argv[1]) as fb:
        diff = first_difference(json.load(fa), json.load(fb))
    if diff:
        sys.exit(f"{argv[0]} and {argv[1]} differ at {diff}")
    print(f"{argv[0]} and {argv[1]} hold the same result")


if __name__ == "__main__":
    main(sys.argv[1:])
