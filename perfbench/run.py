#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, disk-cache scratch and span files all
live under .bench_build/ at the repository root. Arguments are passed to
the benchmark unchanged; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    env = dict(os.environ)
    # Everything the Go toolchain writes stays under the build directory;
    # nothing is fetched.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    tmp = "%s.%d.tmp" % (binary, os.getpid())
    built = subprocess.run(["go", "build", "-o", tmp, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.replace(tmp, binary)
    args = [binary, "--root", root,
            "--work-dir", os.path.join(build, "work"),
            "--span-dir", os.path.join(build, "spans")] + sys.argv[1:]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
