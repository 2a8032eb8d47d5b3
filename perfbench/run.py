#!/usr/bin/env python3
"""Build and run the Alpenhorn end-to-end benchmark.

    python3 perfbench/run.py --workload addfriend --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the perfbench Go module,
which compiles the checkout's own packages, into .bench_build/ (build
cache included, so nothing is written outside the checkout), then runs
it with the given arguments. The benchmark's last line of output is its
JSON result; its exit code is passed through.
"""
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT = 840  # a cold build compiles the standard library too
RUN_TIMEOUT = 170


def find_go():
    go = shutil.which("go")
    if go is None and os.path.exists("/usr/local/go/bin/go"):
        go = "/usr/local/go/bin/go"
    return go


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: run from the root of an Alpenhorn checkout", file=sys.stderr)
        return 2
    go = find_go()
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        # The go command keeps telemetry under the user config directory.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # A terminated wrapper must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    args = [binary] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
