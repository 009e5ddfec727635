#!/usr/bin/env python3
"""Build and run the CRM benchmark from the repository root.

    python3 crmbench/run.py --workload crm_wire --seed 1 --seconds 10 --trace 0

The Go program lives in its own module (crmbench/go.mod) that points at
the repository's module with a replace directive, so it builds from the
source tree it sits in. Build cache, temporary files and the binary stay
under .bench_build in the repository root ($CARGO_TARGET_DIR if set).
All arguments are passed through to the program; its last line of
standard output is the JSON result. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    gocache = os.path.join(out, "gocache")
    gotmp = os.path.join(out, "tmp")
    os.makedirs(gocache, exist_ok=True)
    os.makedirs(gotmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": gocache,
        "GOTMPDIR": gotmp,
        "GOMODCACHE": os.path.join(out, "gomod"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        # Keep the toolchain's own config and telemetry files inside too.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "XDG_CACHE_HOME": os.path.join(out, "cache"),
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "crmbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("crmbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
