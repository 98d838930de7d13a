#!/usr/bin/env python3
"""Build and run the engine's benchmark; print one result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analytic|adhoc \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/perfbench.ml) is built from source
with dune into .bench_build/, then run. With --trace 0 it reports the
end-to-end metrics listed in BENCHMARK.json, with --trace 1 the
per-layer metrics. The full result, with provenance (host, cores,
OCaml version, flambda, commit, OCAMLRUNPARAM, scale factors, seed)
and the run's details, is written to .bench_out/; the traced run also
writes its spans there.

The last line of standard output is one JSON object with exactly the
keys "correct", "attempted", "failed" and "metrics". The exit code is
0 on a correct run, 1 on a wrong result (the line is still printed),
3 when a cache-state guard fails, and 2 when the benchmark cannot be
built or run (no result line).
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
DEADLINE_S = 175.0
FIRST_BUILD_DEADLINE_S = 880.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=False
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """Hash of the engine's sources, identifying the build where git is absent."""
    h = hashlib.sha256()
    for top in ("lib", "dune-project"):
        paths = []
        if os.path.isdir(top):
            for d, _, files in os.walk(top):
                paths += [os.path.join(d, f) for f in files]
        elif os.path.isfile(top):
            paths = [top]
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance():
    config = command_output(["ocamlfind", "ocamlopt", "-config"]) or command_output(
        ["ocamlopt", "-config"]
    )
    flambda = next(
        (l.split(":", 1)[1].strip() for l in config.splitlines() if l.startswith("flambda:")),
        "unknown",
    )
    commit = command_output(["git", "rev-parse", "HEAD"]) or "unknown"
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlopt", "-version"]),
        "flambda": flambda,
        "commit": commit,
        "source_sha256_16": source_digest(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
    }


def build(deadline):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--display", "quiet", "./perfbench/perfbench.exe",
    ]
    try:
        r = subprocess.run(
            cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()), check=False,
        )
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["analytic", "adhoc"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a source checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # the first run in a checkout also compiles the engine
    deadline = start + (FIRST_BUILD_DEADLINE_S if not os.path.exists(EXE) else DEADLINE_S)
    build(deadline)

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{tag}.json")]
    try:
        r = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=False,
        )
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}", 3 if r.returncode == 3 else 2)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    attempted, failed = int(result["attempted"]), int(result["failed"])
    result["failed_ratio"] = failed / max(1, attempted)
    result["provenance"] = provenance()
    result["args"] = vars(args)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump(result, f, indent=1)

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_ratio':28s} {result['failed_ratio']:14.6g} ratio"
          f"  ({failed} of {attempted})")
    for p in result["problems"]:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if result["correct"] and failed == 0 else 1)


if __name__ == "__main__":
    main()
