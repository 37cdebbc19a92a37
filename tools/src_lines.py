#!/usr/bin/env python3
"""Count the source lines of roadmine the way ROADMAP.md quotes them.

A line counts when it is not blank and, once its leading whitespace is
stripped, does not start with `//`. The script prints the count of every
module (`src/<module>/*.h` and `*.cc`), the `src` total, and the
perf-harness group: `perfbench/*.cc` and `*.h`, `bench/perf_*.cc`,
`bench/bench_common.h` and `tools/bench_compare.cc`.

    python3 tools/src_lines.py                  # the working tree
    python3 tools/src_lines.py --rev HEAD~1     # a git revision
    python3 tools/src_lines.py --against HEAD~1 # working tree vs a revision

`--rev REV` reads the files of a revision through git, without checking it
out. `--against REV` adds the counts at REV and the change from them.
Both may be given: `--rev A --against B` compares A with B. Run it from
anywhere inside the repository. Exits 2 on bad usage or an unknown
revision. Uses the standard library only.
"""

import argparse
import fnmatch
import os
import subprocess
import sys

HARNESS = "perf harness"
HARNESS_PATTERNS = ("perfbench/*.cc", "perfbench/*.h", "bench/perf_*.cc",
                    "bench/bench_common.h", "tools/bench_compare.cc")


def count_text(text):
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def git(root, *args):
    result = subprocess.run(["git", "-C", root, *args], capture_output=True,
                            check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace"))
        sys.exit(2)
    return result.stdout


def list_files(root, rev):
    """Repository-relative paths of every file at `rev` (None = worktree)."""
    if rev is not None:
        return git(root, "ls-tree", "-r", "--name-only", rev).decode().split(
            "\n")
    paths = []
    for top in ("src", "perfbench", "bench", "tools"):
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                paths.append(
                    os.path.relpath(os.path.join(dirpath, name), root))
    return paths


def read_file(root, rev, path):
    if rev is not None:
        return git(root, "show", f"{rev}:{path}").decode(errors="replace")
    with open(os.path.join(root, path), encoding="utf-8",
              errors="replace") as handle:
        return handle.read()


def group_of(path):
    """The module a path counts toward, or None when it is not counted."""
    parts = path.split("/")
    if (len(parts) == 3 and parts[0] == "src"
            and parts[2].endswith((".h", ".cc"))):
        return parts[1]
    if any(fnmatch.fnmatchcase(path, pattern) and path.count("/") ==
           pattern.count("/") for pattern in HARNESS_PATTERNS):
        return HARNESS
    return None


def count(root, rev):
    counts = {}
    for path in list_files(root, rev):
        group = group_of(path)
        if group is not None:
            counts[group] = counts.get(group, 0) + count_text(
                read_file(root, rev, path))
    return counts


def src_total(counts):
    return sum(n for group, n in counts.items() if group != HARNESS)


def main():
    parser = argparse.ArgumentParser(
        description="Count non-blank, non-comment source lines.")
    parser.add_argument("--rev", help="count this git revision")
    parser.add_argument("--against", help="print the change from this "
                        "git revision")
    args = parser.parse_args()
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()

    counts = count(root, args.rev)
    base = count(root, args.against) if args.against else None
    modules = sorted((set(counts) | set(base or {})) - {HARNESS})
    rows = [(f"src/{m}", counts.get(m, 0), (base or {}).get(m, 0))
            for m in modules]
    rows.append(("src", src_total(counts), src_total(base or {})))
    rows.append((HARNESS, counts.get(HARNESS, 0), (base or {}).get(HARNESS,
                                                                   0)))
    for name, now, then in rows:
        if base is None:
            print(f"{name:<14} {now:>6}")
        else:
            print(f"{name:<14} {then:>6} -> {now:>6}  {now - then:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
