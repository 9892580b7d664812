"""Record each workload's corpus summary for a range of seeds in
perfbench/reference.json: graphs, records, work counts and the output digest,
with the Python version and nproc of the machine that recorded them.

    python3 perfbench/record_reference.py 0 19    # seeds 0..19

A benchmark run on a recorded seed fails unless the program's outputs are
byte-identical to the recording. Record again only when a change is meant to
alter the program's output.
"""

import json
import os
import platform
import sys

import run

run.import_program()

from cliquebound import cli  # noqa: E402
from workloads import WORKLOADS, write_corpus  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    recorded = {}
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            items = workload.corpus(seed)
            with run.scratch_dir(f"record-{name}-seed{seed}") as workdir:
                paths = write_corpus(items, workdir / "corpus")
                results = run.run_pass(workload, paths, workdir / "out.txt", cli.main)
            summary, problems, _ = run.evaluate(workload, items, [results])
            if problems:
                print("\n".join(f"FAIL {name} seed {seed}: {p}" for p in problems))
                return 1
            recorded.setdefault(name, {})[str(seed)] = summary
            print(f"{name} seed {seed}: {summary['digest']}", flush=True)
    run.REFERENCE.write_text(json.dumps(
        {"python": platform.python_version(), "nproc": os.cpu_count(), "workloads": recorded},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
