#!/usr/bin/env python3
"""Build and run the repository benchmark; print one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_churn --seed 2026 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The runner builds perfbench/ (which compiles ../src) into
.bench_build/perfbench and runs cs_perfbench. The fleets run with
min(4, CPUs) - 1 pool workers: the calling thread works in every
parallel region too, so the threads fit the CPUs instead of measuring
the OS scheduler. node_day runs with one worker (two threads), see
pool_width(). It then replays the first quanta of the same workload
and seed at another pool width (1, or 3 when the run used 1) in a
second process and requires the same outcome digest (once per
workload and build; later runs report that verdict).
Any failed check (validator violation, outcomes that differ between
repetitions, a replay that disagrees, a metric missing from
BENCHMARK.json's list) exits non-zero without printing a result.

With --trace 0 the last line carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. --self-test runs
the smoke configuration (2 nodes, a few quanta) of every workload in
both modes and checks that every named metric prints with its unit and
direction.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cs_perfbench"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("fleet_churn", "fleet_calm", "node_day")
DEFAULT_SEED = 2026
MAX_THREADS = 4


class BenchError(Exception):
    """A failed build, run or check: exit non-zero, print no result."""


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_width(workload):
    """Pool workers for a workload's measured run.

    node_day's decision is a chain of short parallel regions, each
    ending when its slowest thread does. With three or two workers on a
    shared 4-vCPU VM, a run's decide_ms_tail now and then read 1.7-2x
    the usual value; with one worker (plus the caller) it stayed within
    a few percent, and lower. The fleets spread 32 nodes over the
    threads, so one slow thread holds up only its own node.
    """
    if workload == "node_day":
        return 1
    return max(1, min(MAX_THREADS, cpus()) - 1)


def replay_width(workload):
    return 1 if pool_width(workload) > 1 else 3


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "cs_perfbench", "-j", str(min(MAX_THREADS, cpus()))])
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT, check=False)
            if done.returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise BenchError(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def run_binary(args, width, timeout):
    env = dict(os.environ, CS_POOL_THREADS=str(width))
    try:
        done = subprocess.run([str(BINARY)] + args, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"cs_perfbench timed out: {exc}") from exc
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise BenchError(f"cs_perfbench {' '.join(args)} exited "
                         f"{done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"unparsable result line: {lines[-1]!r}") from exc
    if done.stderr:
        sys.stderr.write(done.stderr)
    return lines[:-1], result


def load_spec():
    if not SPEC.is_file():
        raise BenchError(f"{SPEC} not found")
    spec = json.loads(SPEC.read_text())
    return spec["end_to_end"], spec["per_layer"]


def check_metrics(result, wanted, where):
    """Every metric BENCHMARK.json names prints with unit and direction."""
    got = result.get("metrics", {})
    for m in wanted:
        have = got.get(m["name"])
        if have is None:
            raise BenchError(f"{where}: metric {m['name']} not printed")
        for key in ("unit", "better"):
            if have.get(key) != m[key]:
                raise BenchError(
                    f"{where}: metric {m['name']} has {key} "
                    f"{have.get(key)!r}, BENCHMARK.json says {m[key]!r}")
        if not isinstance(have.get("value"), (int, float)):
            raise BenchError(f"{where}: metric {m['name']} has no value")


def measure(workload, seed, seconds, trace, smoke=False):
    """One benchmark run plus its replay; returns (lines, result)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    if trace:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    lines, result = run_binary(args, pool_width(workload), timeout=170)
    if result.get("correct") is not True:
        sys.stderr.write("\n".join(lines) + "\n")
        raise BenchError(f"{workload}: output check failed")

    lines.append(replay(workload, seed, result, smoke))
    return lines, result


def replay(workload, seed, result, smoke):
    """The same quanta at another pool width must give the same outcome.

    The replay runs once per workload and build: its verdict is kept
    next to the binary, keyed by the binary's hash, and later runs of
    the workload report it instead of paying another set-up.
    """
    binary_hash = hashlib.sha256(BINARY.read_bytes()).hexdigest()
    marker = BUILD / f"replay-{workload}{'-smoke' if smoke else ''}.json"
    if marker.is_file():
        done = json.loads(marker.read_text())
        if done.get("binary_sha256") == binary_hash:
            return (f"replay at pool width {replay_width(workload)}: "
                    f"verified for this build at "
                    f"seed {done['seed']} ({done['quanta']} quanta)")
    replay_args = ["--workload", workload, "--seed", str(seed),
                   "--replay", str(result["digest_quanta"])]
    if smoke:
        replay_args.append("--smoke")
    width = replay_width(workload)
    _, other = run_binary(replay_args, width, timeout=170)
    if other["replay_digest"] != result["digest"]:
        raise BenchError(
            f"{workload}: width-{width} replay digest "
            f"{other['replay_digest']} != width-{pool_width(workload)} "
            f"digest {result['digest']} over "
            f"{result['digest_quanta']} quanta")
    marker.write_text(json.dumps({"binary_sha256": binary_hash,
                                  "seed": seed,
                                  "quanta": other["quanta"]}))
    return (f"replay at pool width {width}: {other['quanta']} quanta, "
            f"digest {other['replay_digest']} matches")


def final_line(result, wanted):
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}
    return json.dumps({"correct": True,
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def self_test():
    end_to_end, per_layer = load_spec()
    for marker in BUILD.glob("replay-*-smoke.json"):
        marker.unlink()
    for workload in WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            _, result = measure(workload, DEFAULT_SEED, 1, trace,
                                smoke=True)
            check_metrics(result, end_to_end + per_layer,
                          f"{workload} trace={trace}")
            line = json.loads(final_line(result, wanted))
            if set(line["metrics"]) != {m["name"] for m in wanted}:
                raise BenchError(f"{workload}: result line metric set")
            if line["attempted"] < 1:
                raise BenchError(f"{workload}: no operations attempted")
            print(f"self-test {workload} trace={trace}: "
                  f"{len(line['metrics'])} metrics ok")
    print("self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    try:
        end_to_end, per_layer = load_spec()
        build()
        if opts.self_test:
            self_test()
            return 0
        if opts.workload is None:
            parser.error("--workload is required")
        if opts.seed < 0 or opts.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        lines, result = measure(opts.workload, opts.seed, opts.seconds,
                                opts.trace)
        check_metrics(result, end_to_end + per_layer, opts.workload)
        wanted = per_layer if opts.trace else end_to_end
        print("\n".join(lines))
        sys.stdout.flush()
        print(final_line(result, wanted))
        return 0
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
