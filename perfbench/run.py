#!/usr/bin/env python3
"""Build and run the boedag benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload registry-hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --cpuprofile-dir .bench_build/profiles

The script builds perfbench (a Go module that imports the repository
through a replace directive) with every Go cache, temporary directory and
output kept under the build directory ($CARGO_TARGET_DIR, default
.bench_build), then runs it. The last line of standard output is the
benchmark's JSON result; with --workload all each workload runs in its
own process and prints its own result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["registry-hit", "registry-miss", "synth-miss", "fleet-hit"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOWORK", "GOENV"):
        env.pop(key, None)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "XDG_CACHE_HOME": os.path.join(out, "cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(out):
    gobin = shutil.which("go")
    if gobin is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no repository checkout around %s (go.mod missing)" % HERE)
    binary = os.path.join(out, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    try:
        subprocess.run([gobin, "build", "-trimpath", "-o", binary, "."],
                       cwd=HERE, env=go_env(out), check=True, timeout=BUILD_TIMEOUT_S,
                       stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics and write the replay's spans to <build dir>/perfbench")
    ap.add_argument("--cpuprofile-dir", help="write <dir>/<workload>.cpu.pprof for each workload's window")
    args, rest = ap.parse_known_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        sys.exit("perfbench: unknown workload %r" % args.workload)

    out = build_dir()
    binary = build(out)
    status = 0
    for name in names:
        cmd = [binary, "--workload", name, "--trace", str(args.trace)] + rest
        if args.cpuprofile_dir:
            cmd += ["--cpuprofile", os.path.join(args.cpuprofile_dir, name + ".cpu.pprof")]
        if args.trace:
            cmd += ["--trace-out", os.path.join(out, "perfbench", name + ".trace.json")]
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: %s exceeded %d s" % (name, RUN_TIMEOUT_S), file=sys.stderr)
            code = 124
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
