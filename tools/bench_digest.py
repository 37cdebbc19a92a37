#!/usr/bin/env python3
"""Digest the stdout of every reproduction bench in a build tree.

Runs each `bench/table*`, `bench/figure*` and `bench/ablation*` binary of
a build directory with no arguments, one after another, and prints one
line per binary:

    <binary> <sha256 of its stdout> <exit code>

The reproduction benches print deterministic tables, so two commits whose
digests match print byte-identical tables. Compare two build trees with

    python3 tools/bench_digest.py build > new.txt
    python3 tools/bench_digest.py ../parent/build > old.txt
    diff old.txt new.txt

Exits 1 if any binary exits non-zero or none is found, 2 on bad usage.
Uses the standard library only.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

PREFIXES = ("table", "figure", "ablation")


def find_benches(build_dir):
    bench_dir = os.path.join(build_dir, "bench")
    if not os.path.isdir(bench_dir):
        return []
    found = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if (name.startswith(PREFIXES) and os.path.isfile(path)
                and os.access(path, os.X_OK)):
            found.append(path)
    return found


def digest(path):
    # A fresh working directory, so a bench that writes files cannot leave
    # them in the caller's tree.
    with tempfile.TemporaryDirectory(prefix="bench_digest_") as cwd:
        run = subprocess.run([os.path.abspath(path)], cwd=cwd,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=False)
    return hashlib.sha256(run.stdout).hexdigest(), run.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", help="CMake build directory")
    args = parser.parse_args()

    benches = find_benches(args.build_dir)
    if not benches:
        print("no table*, figure* or ablation* binaries under %s/bench"
              % args.build_dir, file=sys.stderr)
        return 1
    failed = 0
    for path in benches:
        sha, code = digest(path)
        print("%s %s %d" % (os.path.basename(path), sha, code), flush=True)
        failed += code != 0
    if failed:
        print("%d of %d benches failed" % (failed, len(benches)),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
