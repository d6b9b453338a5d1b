"""Print the invariant and threshold table for the built-in example pairs.

Usage: python scripts/invariant_table.py [--convention n|perp]
"""

from __future__ import annotations

import argparse

from ghcseries import FIXTURES, bounds_report, get_fixture, invariants
from ghcseries.report import rational


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--convention", choices=("n", "perp"), default="n")
    args = parser.parse_args()

    header = (
        "pair",
        "algebra",
        "n-weights",
        "rho_n",
        "l1",
        "l2",
        "2rho_n_perp",
        "socle",
        "strong",
        "generic",
        "prior",
    )
    rows = [header]
    for name in sorted(FIXTURES):
        fixture = get_fixture(name)
        p = fixture.build_parabolic()
        inv = invariants(p)
        bounds = bounds_report(p)
        l1, l2 = inv.lambdas(args.convention)
        rows.append(
            (
                name,
                fixture.algebra,
                ",".join(str(w) for w in p.n_weights),
                str(rational(inv.rho_n)),
                str(l1),
                str(l2),
                str(inv.two_rho_n_perp),
                str(rational(bounds.socle_simplicity(args.convention).exact)),
                str(rational(bounds.strong(args.convention).exact)),
                str(rational(bounds.genericity.exact)),
                "-" if bounds.prior_work is None else str(rational(bounds.prior_work.exact)),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
