#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The first run configures and builds
perfbench/ (which compiles the libraries from ../src) in Release mode under
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only rebuild what
changed. The last line of standard output is the result object; see
perfbench/README.md for the workloads and metrics. `--workload all` runs
every workload BENCHMARK.json lists, one after another, and exits non-zero
unless each is correct with no failed op. Extra arguments (--scale N) are
passed through to the benchmark binary.
"""
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def git(*args):
    """Output of a git command in ROOT, or None when it fails."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_id():
    """The git commit of a clean checkout; with uncommitted changes under
    src/ or perfbench/, that commit plus a digest of the sources measured;
    outside git, the digest alone."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = git("rev-parse", "HEAD")
        changes = git("status", "--porcelain", "--", "src", "perfbench")
        if sha and changes == "":
            return "git:" + sha
        if sha and changes:
            return f"git:{sha}+dirty-{tree_digest()}"
    return "tree-sha256:" + tree_digest()


def tree_digest():
    """A short digest of every file under src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_root):
    """Configures once, then builds the perfbench target; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def run_one(binary, build_root, argv, workload, trace):
    """Runs one workload, forwarding its output; returns the result object."""
    work_dir = os.path.join(build_root, "run", f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, *argv, "--work-dir", work_dir, "--source-id", source_id()]
    if trace == "1":
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(trace_dir, f"{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", code=proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    required = ("--workload", "--seed", "--seconds", "--trace")
    if len(argv) % 2 != 0 or any(k not in args for k in required):
        fail("usage: run.py --workload NAME|all --seed N --seconds S --trace 0|1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no proxion sources under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    if args["--workload"] != "all":
        run_one(binary, build_root, argv, args["--workload"], args["--trace"])
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    at = argv.index("--workload") + 1
    ok = True
    for name in names:
        result = run_one(binary, build_root,
                         argv[:at] + [name] + argv[at + 1:], name,
                         args["--trace"])
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
