#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Clairvoyant loop.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <cold_corpus|ci_rescore|score_stream> \\
      --seed <n> --seconds <s> --trace <0|1> [--corpus-seed <n>]

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench on first use, pins the process-wide pool with
CLAIR_THREADS = min(nproc, 4), records the git sha and a digest of the
sources, and runs the clairbench binary from the checkout root. The binary
prints provenance and every metric it measured with its unit and sample
count. BENCHMARK.json at the checkout root is the one list of metrics:
--trace 0 must measure every end-to-end metric, and --trace 1 reports the
per-layer ones, a layer the workload does not exercise as 0. The last line
of the output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "clairbench"
MAX_WORKERS = 4
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} not found: run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(os.cpu_count() or 1, MAX_WORKERS))
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        print("run.py: building clairbench (first run)", file=sys.stderr)
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed; see " + str(log_path))


def source_digest():
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    # Only the checkout's own repository counts; the search stops at ROOT.
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec["per_layer" if trace else "end_to_end"], known


def result_metrics(measured, trace):
    """The metrics of the result line, in BENCHMARK.json's order."""
    want, known = expected_metrics(trace)
    unknown = sorted(set(measured) - known)
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for spec in want:
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            print(f"metric {name:<34} {'-':>16} {unit:<8} (not exercised)")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name} has unit {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    build()
    workers = min(os.cpu_count() or 1, MAX_WORKERS)
    env = dict(os.environ, CLAIR_THREADS=str(workers),
               CLAIRBENCH_GIT_SHA=git_sha(), CLAIRBENCH_SRC_DIGEST=source_digest())
    try:
        proc = subprocess.run([str(BINARY)] + argv, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"clairbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
        fail(f"clairbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write("\n".join(lines) + "\n")
        fail("clairbench printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    metrics = result_metrics(result["metrics"], trace)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
