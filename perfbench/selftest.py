#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a privid checkout (builds like run.py). For each
workload, runs seed 1 at one and at three compute threads and checks that
both runs are correct, that their release digests agree, and that the digest
matches the one recorded in perfbench/digests.json. Exits non-zero on any
failure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def digest_of(lines):
    header = next(l for l in lines if l.startswith("workload "))
    return header.split()[-1]


def main():
    binary = run.build()
    recorded = run.load_digests()
    failures = []
    for w in run.WORKLOADS:
        before = len(failures)
        digests = {}
        for threads in (1, 3):
            code, lines = run.run_one(binary, w, 1, 1, 0,
                                      extra=["--threads", str(threads),
                                             "--setup-reps", "1"])
            result = run.result_of(lines)
            if code != 0 or not result or not result["correct"]:
                failures.append("%s at %d threads: exit %d, %s" %
                                (w, threads, code, lines[-2:]))
                continue
            digests[threads] = digest_of(lines)
        if len(set(digests.values())) > 1:
            failures.append("%s: digest differs across threads: %s" %
                            (w, digests))
        expected = recorded.get(w, {}).get("1")
        if expected and digests.get(3) != expected:
            failures.append("%s: digest %s, recorded %s" %
                            (w, digests.get(3), expected))
        print("%-14s %s" % (w, "ok" if len(failures) == before else "FAILED"))
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
