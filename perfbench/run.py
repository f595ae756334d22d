#!/usr/bin/env python3
"""Builds and runs the layered lockin benchmark.

    python3 perfbench/run.py --workload compile_mega|service_session \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is a CMake package of its
own (perfbench/CMakeLists.txt) that builds the lockin libraries from src/;
the build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is refreshed incrementally on every run. Build output goes to stderr;
stdout carries the benchmark's own lines, the last of which is the result
object. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def source_digest():
    """sha1 of the sources the benchmark builds: src/ and perfbench/."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def head_commit():
    """The git HEAD commit when the checkout is a repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def commit_id():
    """The source digest, prefixed with the HEAD commit when there is one:
    a tree with uncommitted changes never passes for its HEAD."""
    head = head_commit()
    src = "src-" + source_digest()
    return f"{head}+{src}" if head else src


def build(out):
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    out = build_dir()
    try:
        os.makedirs(out, exist_ok=True)
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench"), *sys.argv[1:],
           "--digests", os.path.join(HERE, "digests.txt")]
    if "--self-test" not in sys.argv[1:]:
        cmd += ["--commit", commit_id()]
    proc = subprocess.Popen(cmd, cwd=out)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
