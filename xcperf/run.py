#!/usr/bin/env python3
"""Build and run the xcperf benchmark from the root of a checkout.

    python3 xcperf/run.py --workload read-warm --seed 1 --seconds 10 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), with the Go build and
module caches kept there too, so the run reads and writes only inside
the checkout. The benchmark's exit code is passed through.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
os.makedirs(build, exist_ok=True)
env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOWORK="off",
)
binary = os.path.join(build, "xcperf")
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    print("xcperf: build failed", file=sys.stderr)
    sys.exit(built.returncode)
args = [binary, "--workdir", os.path.join(build, "xcperf-work")] + sys.argv[1:]
sys.exit(subprocess.run(args, cwd=root).returncode)
