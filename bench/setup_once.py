"""One benchmark set-up in a fresh interpreter, timed from its first statement.

    python3 bench/setup_once.py WORKLOAD SEED WORKDIR

Set-up is what a user pays before the first result: importing the
library (and everything it imports) and the input generator, making and
serializing the first deck of items, and running one warm-up item.  The
script imports nothing before it starts the clock, so every import the
library adds is paid here.  It prints one JSON object: the seconds taken
and whether the warm-up item gave the right answer (checked after the
clock stops).  ``run.py`` runs it several times and reports the median.
"""

from time import perf_counter

START = perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("trees", "dissim", "tropical", "puiseux", "rationals", "cli")


class Lib:
    """The library's modules, as attributes named after them."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"treedissim.{name}"))


def set_up(name: str, seed: int, workdir: Path) -> tuple:
    """Import, make and serialize the first deck, run one item."""
    import workloads

    workload = workloads.WORKLOADS[name](workdir)
    lib = Lib()
    first = workload.deck(seed, 0)[0]
    return workload, lib, first, workload.run(lib, first)


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    sys.path.insert(0, str(SRC))
    workload, lib, first, out = set_up(name, int(seed), Path(workdir))
    seconds = perf_counter() - START
    import json

    print(json.dumps({"seconds": seconds, "correct": bool(workload.check(lib, first, out))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
