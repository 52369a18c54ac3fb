"""Self-checks of the benchmark; run after changing anything under bench/.

    python3 bench/selfcheck.py

1. The same seed gives byte-identical generated inputs, within a process and
   across two PYTHONHASHSEED values.
2. Every count of the traced run (`.calls`, `lp.solves_per_op`,
   `stopping.taus_enumerated`, `polytope.vertices.out`, ...) repeats exactly
   across two traced runs under two PYTHONHASHSEED values.
3. A tiny run of every workload finishes quickly with no failed op, and the
   known defects (`Workload.known_defects`: at this commit the cli's `price`
   on an arbitrage market exits 1, documented 2) still show, by kind.
"""

import itertools
import json
import os
import re
import subprocess
import sys
import time

import run

SEED = 11
TINY_OPS = {"verdicts": 60, "hedging": 38, "pricing-sets": 42, "cli": 22}


def input_digest(seed, n=40):
    """Digest of the first n generated inputs of every workload."""
    import gen

    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import semistatic

    out = {}
    for name in run.WORKLOADS:
        w = run.make_workload(name, semistatic, seed, in_process=True)
        if name == "cli":
            w.write_files()
            blobs = []
            for path in sorted(os.listdir(w.work)):
                with open(os.path.join(w.work, path), "rb") as fh:
                    blobs.append(fh.read().decode())
            w.close()
            out[name] = gen.digest(blobs)
        else:
            out[name] = gen.digest(list(itertools.islice(w.inputs(), n)))
    return out


def bench(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                          env=env, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    problems = []

    first, second = input_digest(SEED), input_digest(SEED)
    env_digests = []
    for hashseed in (0, 1):
        out = subprocess.run(
            [sys.executable, "-c", f"import sys, json; sys.path.insert(0, {run.HERE!r}); "
             f"import selfcheck; print(json.dumps(selfcheck.input_digest({SEED})))"],
            env=dict(os.environ, PYTHONHASHSEED=str(hashseed)),
            capture_output=True, text=True, check=True).stdout
        env_digests.append(json.loads(out))
    if not first == second == env_digests[0] == env_digests[1]:
        problems.append("generated inputs differ between runs of the same seed")
    print("1. inputs byte-identical:", first == second == env_digests[0] == env_digests[1])

    for name in run.WORKLOADS:
        args = ["--workload", name, "--seed", str(SEED), "--trace", "1",
                "--max-ops", str(TINY_OPS[name])]
        counts = []
        for hashseed in (0, 1):
            _, result = bench(args, hashseed)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in ("count", "count/op")})
        same = counts[0] == counts[1]
        if not same:
            diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
            problems.append(f"{name}: traced counts differ: {sorted(diff)}")
        print(f"2. {name}: {len(counts[0])} traced counts repeat exactly: {same}")

    for name in run.WORKLOADS:
        t = time.perf_counter()
        lines, result = bench(["--workload", name, "--seed", str(SEED),
                               "--max-ops", str(TINY_OPS[name])], 0)
        took = time.perf_counter() - t
        def kinds(label):
            return {m.group(1) for m in
                    (re.match(rf"\s+{label} \S+ #\d+ (\S+)", line) for line in lines) if m}

        failed, defects = kinds("FAILED"), kinds("KNOWN DEFECT")
        expected = set(run.make_workload(name, None, SEED, True).known_defects)
        ok = (result["correct"] and not failed and result["failed"] == 0
              and defects == expected and took < 120)
        if not ok:
            problems.append(f"{name}: tiny run failed {sorted(failed)}, known defects "
                            f"{sorted(defects)} (expected {sorted(expected)}), "
                            f"correct={result['correct']}, {took:.1f} s")
        print(f"3. {name}: tiny run of {result['attempted']} ops in {took:.1f} s, "
              f"failed {result['failed']}, known-defect kinds {sorted(defects)}: "
              f"{'ok' if ok else 'UNEXPECTED'}")

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
