"""Signless Laplacian spectral radius of complete split graphs, four ways.

For S_{n,k} the radius has a closed form, a rational lower bound, and a
2x2 quotient whose top eigenvalue matches the full matrix exactly; the
degree-based upper bound is also printed for contrast.  The table shows
all of them converging as n grows.
"""

import argparse

from fanfree import (make_split, merris_bound, q1, q1_split_closed_form,
                     q1_split_lower_bound, quotient_eigenvalues, split_quotient)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--n-from", type=int, default=6)
    ap.add_argument("--n-to", type=int, default=24)
    args = ap.parse_args()
    k = args.k

    print(f"{'n':>3} {'eigensolve':>12} {'closed':>12} {'quotient':>12} "
          f"{'lower':>12} {'degree ub':>12}")
    for n in range(max(args.n_from, k + 1), args.n_to + 1):
        g = make_split(n, k)
        solved = q1(g)
        closed = q1_split_closed_form(n, k)
        quo = quotient_eigenvalues(split_quotient(n, k))[0]
        try:
            low = q1_split_lower_bound(n, k)
        except ValueError:  # n below the bound's range
            low = float("nan")
        ub, _ = merris_bound(g)
        print(f"{n:>3} {solved:>12.8f} {closed:>12.8f} {quo:>12.8f} "
              f"{low:>12.8f} {ub:>12.8f}")
        assert abs(solved - closed) < 1e-9
        assert abs(quo - closed) < 1e-8


if __name__ == "__main__":
    main()
