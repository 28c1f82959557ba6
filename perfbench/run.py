#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Every build product (Go build cache, binary, trace files) goes under the
directory named by CARGO_TARGET_DIR, or .bench_build, inside the checkout.
The arguments are passed to the benchmark binary unchanged; its standard
output (the last line is the JSON result) and exit code are passed back.
A failed build exits with the compiler's message and no result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly -buildvcs=false",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stderr, file=sys.stderr)
        return 1

    proc = subprocess.run([binary, *sys.argv[1:], "--out", build], cwd=root)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
