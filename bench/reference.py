"""Record reference.json: the unique exact outputs of the first ops of every
workload at the reference seed.

    python3 bench/reference.py [workload ...]   # default: all workloads

Stored answers are verdict strings, prices as "p/q", robust verdicts and
typed refusals, vertex counts with a digest of the (unique) vertex set,
minimax values and CLI exit codes (the documented code where a command is a
known mismatch).  Certificates are not stored, because a different optimal
vertex is a legitimate answer; runs re-check them instead.  An answer is
recorded only after its op has passed every check of workloads.py, and the
recording stops at the first op that does not.
"""

import itertools
import json
import os
import sys

import run

# ops recorded per workload: more than a 20 s window finishes at the
# reference seed on a 2-core host
COUNTS = {"verdicts": 2500, "hedging": 900, "pricing-sets": 4200, "cli": 88}


def record(name, count):
    import semistatic

    w = run.make_workload(name, semistatic, run.REFERENCE_SEED, in_process=True)
    try:
        if hasattr(w, "write_files"):
            w.write_files()
        tally = run.Tally(name, [])
        answers = []
        for op in itertools.islice(w.ops(), count):
            answer = tally.run(op)
            if tally.wrong or (tally.failed and name != "cli"):
                run.print_failures(tally)
                raise SystemExit(f"{name}: op {len(answers)} does not re-check")
            answers.append(answer)
    finally:
        w.close()
    return answers


def main(names):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    out = {"seed": run.REFERENCE_SEED, "answers": {}}
    if names and os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            out = json.load(fh)
    for name in names or list(COUNTS):
        out["answers"][name] = record(name, COUNTS[name])
        print(f"{name}: {COUNTS[name]} answers", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
