#!/usr/bin/env python3
"""Builds and runs the Privid benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --record <seed> [<seed> ...]

Run from the root of a privid checkout. The first call configures and builds
perfbench/ (which builds the privid library from the checkout's sources) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to standard error.

A single run prints the benchmark's report; its last line is the JSON result
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1), and a
copy of every metric plus the layer breakdown lands in
<build>/results/<workload>-seed<n>-trace<t>.json.

--all runs every workload untraced and traced, prints each metric by name and
unit, names each workload's top layer and reports the tracing overhead.
--record reruns the given seeds and stores their release digests in
perfbench/digests.json; a run whose seed is recorded there must reproduce it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ["cv_dense", "porto_fanout", "service_zipf"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench")


def clean_env():
    # The library reads PRIVID_* knobs (cache mode and disk tier, fault
    # plans, tracing); the benchmark fixes all of them itself.
    return {k: v for k, v in os.environ.items() if not k.startswith("PRIVID_")}


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace, check=True, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(
               results, "%s-seed%s-trace%s.json" % (workload, seed, trace))]
    expected = load_digests().get(workload, {}).get(str(seed))
    if check and expected:
        cmd += ["--expect-digest", expected]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          text=True)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def run_all(binary, seed, seconds):
    status = 0
    for w in WORKLOADS:
        code0, plain = run_one(binary, w, seed, seconds, 0)
        code1, traced = run_one(binary, w, seed, seconds, 1)
        status |= code0 | code1
        r0, r1 = result_of(plain), result_of(traced)
        print("== %s (seed %s, %s s)" % (w, seed, seconds))
        for line in traced[:-1]:
            print("   " + line)
        for r in (r0, r1):
            if not r:
                continue
            print("   correct=%s attempted=%d failed=%d" %
                  (r["correct"], r["attempted"], r["failed"]))
            for name, m in r["metrics"].items():
                print("   %-26s %16.6g %s" % (name, m["value"], m["unit"]))
        if r0 and r1:
            overhead = (r1["metrics"]["trace.query_ms_p50"]["value"] -
                        r0["metrics"]["query_ms_p50"]["value"])
            print("   %-26s %16.6g ms (traced - untraced query_ms_p50)" %
                  ("trace.overhead_ms", overhead))
    return status


def record(binary, seeds):
    digests = load_digests()
    for w in WORKLOADS:
        for seed in seeds:
            code, lines = run_one(binary, w, seed, 1, 0, check=False,
                                  extra=["--setup-reps", "1"])
            header = next(l for l in lines if l.startswith("workload "))
            if code != 0:
                sys.exit("seed %s of %s failed: %s" % (seed, w, lines[-2:]))
            digests.setdefault(w, {})[str(seed)] = header.split()[-1]
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--record", type=int, nargs="+")
    args = ap.parse_args()
    if not (args.workload or args.all or args.record):
        ap.error("one of --workload, --all or --record is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if args.record:
        record(binary, args.record)
        return 0
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
