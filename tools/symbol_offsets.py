#!/usr/bin/env python3
"""Print where the hot serving kernels sit in one or more binaries.

For each binary given, runs `nm -C -S --defined-only` and prints one
tab-separated line per defined function whose demangled name matches a
pattern:

    <symbol> <address> <offset in its 4 KiB page> <size in bytes>

The default patterns are the kernels that `network_rank` spends its scan
in: serve::FlatModel::PredictBatch, its block loop
serve::FlatModel::DescendGroup, serve::ScoringService::ScorePaged and
core::BuildWorksProgramPaged.
`--symbol REGEX` (repeatable) adds patterns, matched with re.search
against the demangled name. A pattern that matches nothing prints
`<pattern> - - -`.

Code placement moves `network_rank` timings by several percent, so
compare both sides of a change before blaming it for a move:

    python3 tools/symbol_offsets.py \\
        ../parent/.bench_build/perfbench/roadbench \\
        .bench_build/perfbench/roadbench

Exits 1 if nm fails on a binary, 2 on bad usage. Uses the standard
library only.
"""

import argparse
import re
import subprocess
import sys

PAGE_BYTES = 4096

DEFAULT_PATTERNS = (
    r"serve::FlatModel::PredictBatch\(",
    r"serve::FlatModel::DescendGroup\(",
    r"serve::ScoringService::ScorePaged\(",
    r"core::BuildWorksProgramPaged\(",
)


def defined_symbols(binary):
    """(name, address, size) of every sized symbol, or None if nm fails."""
    try:
        done = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                              capture_output=True, text=True, check=False)
    except OSError as err:
        print(f"{binary}: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"{binary}: {done.stderr.strip()}", file=sys.stderr)
        return None
    symbols = []
    for line in done.stdout.splitlines():
        # "<address> <size> <type> <name>"; unsized symbols have no size.
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[2] not in ("T", "t", "W", "w"):
            continue
        try:
            symbols.append((parts[3], int(parts[0], 16), int(parts[1], 16)))
        except ValueError:
            continue
    return symbols


def main():
    parser = argparse.ArgumentParser(
        description="Print address, 4 KiB page offset and size of the "
                    "hot serving kernels in each binary.")
    parser.add_argument("binaries", nargs="+", metavar="BINARY")
    parser.add_argument("--symbol", action="append", default=[],
                        metavar="REGEX",
                        help="also report functions matching REGEX")
    args = parser.parse_args()
    patterns = list(DEFAULT_PATTERNS) + args.symbol
    try:
        compiled = [re.compile(p) for p in patterns]
    except re.error as err:
        parser.error(f"bad --symbol pattern: {err}")

    status = 0
    for binary in args.binaries:
        symbols = defined_symbols(binary)
        if symbols is None:
            status = 1
            continue
        print(f"# {binary}")
        for pattern, regex in zip(patterns, compiled):
            hits = sorted((s for s in symbols if regex.search(s[0])),
                          key=lambda s: s[1])
            if not hits:
                print(f"{pattern}\t-\t-\t-")
            for name, address, size in hits:
                print(f"{name}\t0x{address:x}\t0x{address % PAGE_BYTES:03x}"
                      f"\t{size}")
    return status


if __name__ == "__main__":
    sys.exit(main())
