#!/usr/bin/env python3
"""Build and run paichar's reference-scenario benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload schedule-backlog --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --selftest # self-tests

The first run configures and compiles perfbench/ (which pulls in the
repository's src/) into .bench_build/perfbench; later runs rebuild
incrementally. Each workload runs in its own process with the runtime
pool at 4 threads. The last stdout line of a single-workload run is the
result object {correct, attempted, failed, metrics}.

--selftest checks, per workload, that one iteration gives identical
result values at 1 and 4 runtime threads, and that a second seed keeps
every invariant (and, for schedule-backlog, a persistent queue: under
1% of at least 1M placement attempts succeed).
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["characterize-1m", "schedule-backlog", "bert-whatif"]
THREADS = 4
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and incrementally build the perfbench binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no paichar sources under %s/src" % ROOT)
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(THREADS),
         "--target", "perfbench"],
        check=True, stdout=log, stderr=log)


def run_binary(workload, seed, extra):
    """Run one workload in its own process; returns (rc, stdout)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--work-dir", str(ROOT / ".bench_build" / "work")] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def parse(stdout):
    """The result values line and the final result object."""
    lines = stdout.strip().splitlines()
    values = next(json.loads(l[len("results "):]) for l in lines
                  if l.startswith("results "))
    return values, json.loads(lines[-1])


def selftest(workload, seed):
    """Thread identity on @p seed, invariants on a second seed."""
    ok = True
    runs = {}
    for threads in (1, THREADS):
        rc, out = run_binary(workload, seed,
                             ["--iterations", "1", "--threads",
                              str(threads)])
        if rc != 0:
            print("FAIL %s: exit %d at %d threads" % (workload, rc,
                                                      threads))
            return False
        runs[threads] = parse(out)[0]
    if runs[1] != runs[THREADS]:
        print("FAIL %s: result values differ between 1 and %d threads"
              % (workload, THREADS))
        print("  1 thread:  %s\n  %d threads: %s"
              % (runs[1], THREADS, runs[THREADS]))
        ok = False
    else:
        print("ok   %s: identical result values at 1 and %d threads"
              % (workload, THREADS))

    second = seed + 1
    rc, out = run_binary(workload, second,
                         ["--iterations", "2", "--trace", "1",
                          "--threads", str(THREADS)])
    result = parse(out)[1] if rc == 0 else None
    if result is None or result["failed"] != 0 or not result["correct"]:
        print("FAIL %s: seed %d: %s" % (workload, second,
                                        result or "exit %d" % rc))
        return False
    print("ok   %s: seed %d keeps every invariant (%d iterations)"
          % (workload, second, result["attempted"]))
    if workload == "schedule-backlog":
        m = result["metrics"]
        hit = m["clustersim.placement_hit_ratio"]["value"]
        attempts = m["clustersim.placement_attempts"]["value"]
        persistent = hit < 0.01 and attempts >= 1e6
        print("%s %s: seed %d placement hit ratio %.5f over %d attempts"
              % ("ok  " if persistent else "FAIL", workload, second,
                 hit, attempts))
        ok = ok and persistent
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=20181201)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.selftest:
        ok = all([selftest(w, args.seed) for w in names])
        sys.exit(0 if ok else 1)

    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--threads", str(THREADS)]
    summary = {}
    for w in names:
        try:
            rc, out = run_binary(w, args.seed, extra)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: %s timed out" % w)
        if rc != 0:
            sys.exit("perfbench: %s exited with %d" % (w, rc))
        if len(names) == 1:
            sys.stdout.write(out)
        else:
            lines = out.strip().splitlines()
            print("\n".join(lines[:-1]))
            summary[w] = json.loads(lines[-1])
    if summary:
        print(json.dumps(summary))


if __name__ == "__main__":
    main()
