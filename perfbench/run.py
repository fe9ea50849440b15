#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <cold_pairs|platoon_fanout> \
        --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the JSON result. See README.md beside
this file for the metrics and workloads.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def git_commit():
    """The git commit of the checkout, or "none" outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_identity():
    """A digest of every source the binary is built from: the crates, the
    vendored dependencies and the benchmark itself, build output excluded.
    Stored pose digests are keyed by it."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256-" + h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: repository sources not found beside perfbench/", file=sys.stderr)
        return 3
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    env = dict(
        os.environ,
        BBA_BENCH_OUT=os.path.join(target, "perfbench-out"),
        BBA_BENCH_RUSTC=rustc_version(),
        BBA_BENCH_COMMIT=git_commit(),
        BBA_BENCH_SOURCE=source_identity(),
    )
    exe = os.path.join(target, "release", "bba-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
