#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sta_incremental --seed 1 --seconds 15 --trace 0

Every argument is passed to the Go program (see main.go). The Go build
cache, temporary files and the binary stay under .bench_build/ at the
repository root; with --trace 1 the traced run's spans are written there
as Chrome trace-event JSON (open it in Perfetto). The exit code is the
program's: non-zero when the build fails or any op's output is wrong.
"""
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 850  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    return env


def arg(args, name):
    """Value of --name in args, or None."""
    for i, a in enumerate(args):
        if a in ("--" + name, "-" + name) and i + 1 < len(args):
            return args[i + 1]
        for p in ("--" + name + "=", "-" + name + "="):
            if a.startswith(p):
                return a[len(p):]
    return None


def main():
    args = sys.argv[1:]
    go = shutil.which("go") or "/usr/local/go/bin/go"
    if not os.path.exists(go):
        print("run.py: no go toolchain found", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    env = go_env()
    try:
        build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    extra = []
    workload, seed = arg(args, "workload"), arg(args, "seed")
    if arg(args, "trace") == "1" and workload and seed and re.fullmatch(r"[\w.-]+", workload + seed):
        extra = ["--trace-out", os.path.join(BUILD, "perfbench", "trace-%s-%s.json" % (workload, seed))]
    try:
        proc = subprocess.run([binary] + args + extra, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
