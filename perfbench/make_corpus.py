"""One timed benchmark set-up in a fresh interpreter: import the CLI, generate a
workload's seeded corpus and write it as graph6 files. Prints the seconds taken.

    python3 perfbench/make_corpus.py <workload> <seed> <outdir>
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import cliquebound.cli  # noqa: F401  (a user's set-up includes importing the CLI)
    from workloads import WORKLOADS, write_corpus

    name, seed, outdir = argv
    write_corpus(WORKLOADS[name].corpus(int(seed)), Path(outdir))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1:])
