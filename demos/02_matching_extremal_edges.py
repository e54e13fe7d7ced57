"""Edge maxima for graphs with bounded matching number.

Sweeps the closed formula across n for a fixed bound and marks which of
the two candidate families wins; then replays one column by brute force
over all isomorphism classes to show the formula is not just a guess.
"""

import argparse

from fanfree import ForbiddenPattern, max_edges_matching, turan_bruteforce


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=int, default=3, help="matching number bound")
    ap.add_argument("--max-n", type=int, default=16)
    ap.add_argument("--check-n", type=int, default=7,
                    help="order to re-verify by exhaustive search")
    args = ap.parse_args()

    a = args.alpha
    print(f"max edges with matching number <= {a}")
    print(f"{'n':>3} {'edges':>6}  winner")
    for n in range(2 * a + 1, args.max_n + 1):
        value, regime = max_edges_matching(n, a)
        print(f"{n:>3} {value:>6}  {regime.value}")

    k = a + 1
    n = args.check_n
    if n < 2 * k - 1:
        raise SystemExit(f"need n >= {2 * k - 1} for k={k}")
    record = turan_bruteforce(n, ForbiddenPattern("kk2", k))
    value, _ = max_edges_matching(n, a)
    print(f"\nbrute force over the {k}K2-free classes at n={n}: {record.max_edges} edges, "
          f"{len(record.extremal)} extremal class(es)")
    for code in record.extremal:
        print("  ", code)
    assert record.max_edges == value
    print("formula confirmed")


if __name__ == "__main__":
    main()
