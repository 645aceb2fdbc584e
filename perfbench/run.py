#!/usr/bin/env python3
"""Builds and runs the I-GEP benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout of the repository. The first run
configures and builds perfbench/ (which pulls in the library sources from
src/ through the top-level CMakeLists.txt) into .bench_build/; later runs
only re-check the build. Build output goes to stderr; stdout carries the
benchmark's own output, whose last line is the result object.
"""
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 700


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def src_sha256(root):
    """Content hash of the library sources: the checkout is not a git
    repository, so this identifies the code that was measured."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-20000:])
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.getcwd()
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a full checkout")
    exe = build(root)
    tmpdir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    args = sys.argv[1:]
    cmd = [exe] + args + ["--tmpdir", tmpdir]
    if "--self-test" not in args:
        cmd += ["--git-sha", git_sha(root), "--src-sha", src_sha256(root)]
    r = subprocess.run(cmd, timeout=170)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
