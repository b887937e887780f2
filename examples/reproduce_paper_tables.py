#!/usr/bin/env python
"""Regenerate the paper's tables and figures through the API facade.

Every table/figure of the paper's evaluation has a named reproduction
target; :func:`repro.api.reproduce` runs the corresponding experiment grid
on laptop-scale datasets and returns rendered tables.  This example exposes
that facade as a small CLI so a single artifact can be reproduced
interactively, at a chosen scale and worker count.

Examples::

    python examples/reproduce_paper_tables.py --target table1
    python examples/reproduce_paper_tables.py --target table2 --scale reduced
    python examples/reproduce_paper_tables.py --target fig7 --jobs 4
    python examples/reproduce_paper_tables.py --list
"""

import argparse

from repro import api
from repro.experiments.tables import REPRO_TARGETS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", default="table1",
                        help="which artifact to regenerate (see --list)")
    parser.add_argument("--scale", default="smoke", choices=("smoke", "reduced", "paper"),
                        help="dataset scale (smoke is laptop-friendly)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes of the experiment engine")
    parser.add_argument("--seed", type=int, default=7, help="dataset generation seed")
    parser.add_argument("--list", action="store_true", help="list the available targets")
    args = parser.parse_args()

    if args.list:
        width = max(len(name) for name in REPRO_TARGETS)
        for name, description in REPRO_TARGETS.items():
            print(f"{name.ljust(width)} : {description}")
        return

    for table in api.reproduce(args.target, scale=args.scale, jobs=args.jobs, seed=args.seed):
        print(table.to_text())
        print()

    print("Note: at reduced scales the absolute numbers differ from the paper;")
    print("the qualitative shape (who wins, and how the gap grows with g, P and")
    print("delta) is what this reproduction targets — see the README section")
    print("\"Reproducing the paper's tables and figures\".")


if __name__ == "__main__":
    main()
