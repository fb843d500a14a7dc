#!/usr/bin/env python3
"""CCProf benchmark: build the library and the harness, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first run
builds the ccprof libraries (the repository's own CMake project, Release
with assertions kept) and the harness in perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR, or .bench_build/ at the repository root when that is
unset. Every later run rebuilds incrementally.

The harness runs with its scratch directory (.bench_build/run/) on a
private memory-backed mount when the kernel allows an unprivileged mount
namespace, so artifact and ingest stores measure the program rather than
the disk's fsync latency; otherwise the scratch directory stays on the
checkout's filesystem. Either way the result records the filesystem type.

The last line of standard output is the result:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The lines before it are for people:
provenance, the workload's own named numbers, the output digest.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "geometry_sweep", "curves", "ingest")
HARNESS_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "ab") as out:
        out.write(("$ " + " ".join(map(str, cmd)) + "\n").encode())
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build(root, build_dir):
    """Builds the ccprof libraries and the harness; returns the binary."""
    lib_dir = build_dir / "ccprof"
    bench_dir = build_dir / "perfbench"
    log = build_dir / "build.log"
    if not (lib_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", root, "-B", lib_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    # ccprof_service links every other module library.
    run_logged(["cmake", "--build", lib_dir, "--target", "ccprof_service",
                "-j", BUILD_JOBS], log)
    run_logged(["cmake", "-S", root / "perfbench", "-B", bench_dir,
                "-DCMAKE_BUILD_TYPE=Release",
                f"-DCCPROF_SOURCE_DIR={root / 'src'}",
                f"-DCCPROF_LIB_DIR={lib_dir / 'src'}"], log)
    run_logged(["cmake", "--build", bench_dir, "-j", BUILD_JOBS], log)
    return bench_dir / "perfbench"


def can_mount_private_tmpfs(work_dir):
    probe = ["unshare", "-Urm", "sh", "-c",
             'mount -t tmpfs perfbench "$0"', str(work_dir)]
    try:
        return subprocess.run(probe, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def cmake_cache(lib_dir, key):
    cache = lib_dir / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def provenance(root, build_dir, args, harness):
    lib_dir = build_dir / "ccprof"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(lib_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler or "unknown"
    asserts = "unknown"
    commands = lib_dir / "compile_commands.json"
    if commands.exists():
        entries = json.loads(commands.read_text())
        asserts = "off" if any("-DNDEBUG" in e.get("command", "")
                               for e in entries) else "on"
    commit = "none (not a git checkout)"
    try:
        got = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cmake_cache(lib_dir, "CMAKE_BUILD_TYPE"),
        "asserts": asserts,
        "seed": args.seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "store_fs": harness.get("store_fs", "unknown"),
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no ccprof sources (CMakeLists.txt, src/)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(root, build_dir)

    work_dir = build_dir / "run"
    out_dir = build_dir / "out"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out-dir", str(out_dir)]
    if can_mount_private_tmpfs(work_dir):
        cmd = ["unshare", "-Urm", "sh", "-c",
               'mount -t tmpfs -o size=4g perfbench "$0" && exec "$@"',
               str(work_dir)] + cmd
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        fail(f"harness exited with {done.returncode}")
    harness = json.loads(lines[-1])

    prov = provenance(root, build_dir, args, harness)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"digest: {harness['digest']}")
    attempted, failed = harness["attempted"], harness["failed"]
    print(f"fail_ratio: {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} output checks failed)")
    for failure in harness["failures"]:
        print(f"  FAILED: {failure}")
    groups = ("details", "end_to_end") + (("per_layer",) if args.trace else ())
    for group in groups:
        for name, m in harness[group].items():
            print(f"{group:10} {name:36} {m['value']:>18.6g} {m['unit']}")

    metrics = {}
    for m in wanted:
        got = harness["per_layer" if args.trace else "end_to_end"].get(m["name"])
        if got is None:
            fail(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(harness["correct"]),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
