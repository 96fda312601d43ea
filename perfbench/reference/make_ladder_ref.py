"""Independent reference for the ladder-chain gaps, at 60 significant digits.

The ladder kernel is a renewal chain: its nonzero eigenvalues are the roots
of  lambda^(N+1) - sum_n p(n) lambda^(N-n)  (p = geometric(q) renormalized to
{0..N}), and the time reversal P* has the same spectrum.  One root is 1;
gap_P = gap_P* = 1 - max |lambda| over the others.  Also records the
truncated return-time moments  E[b^tau] = sum_n b^(n+1) p(n).

Run from the repository root to regenerate the stored values:

    python3 perfbench/reference/make_ladder_ref.py

It needs only mpmath, not the package under test.
"""
import json
import os

import mpmath

DIGITS = 60
Q = "0.5"
N_LIST = (10, 30, 40, 60)
B_LIST = ("1.5", "2")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ladder_ref.json")


def jump_pmf(q, n_trunc):
    w = [q ** n for n in range(n_trunc + 1)]
    total = mpmath.fsum(w)
    return [x / total for x in w]


def renewal_gap(q, n_trunc):
    """(gap, residual): 1 - the largest nontrivial root modulus, and the worst
    root residual |1 - sum_n p(n) lambda^-(n+1)|."""
    p = jump_pmf(q, n_trunc)
    coeffs = [mpmath.mpf(1)] + [-x for x in p]  # lambda^(N+1) - p0 lambda^N - ... - pN
    roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=4 * DIGITS)
    trivial = min(roots, key=lambda r: abs(r - 1))
    others = [r for r in roots if r is not trivial]
    residual = max(abs(1 - mpmath.fsum(p[n] * r ** (-(n + 1)) for n in range(n_trunc + 1)))
                   for r in roots)
    return 1 - max(abs(r) for r in others), residual, abs(trivial - 1)


def main():
    mpmath.mp.dps = DIGITS
    q = mpmath.mpf(Q)
    rows = []
    for n_trunc in N_LIST:
        gap, residual, trivial_err = renewal_gap(q, n_trunc)
        p = jump_pmf(q, n_trunc)
        moments = {b: mpmath.fsum(mpmath.mpf(b) ** (n + 1) * p[n] for n in range(n_trunc + 1))
                   for b in B_LIST}
        rows.append({
            "N": n_trunc,
            "gap": mpmath.nstr(gap, 30),
            "root_residual_max": mpmath.nstr(residual, 5),
            "trivial_root_err": mpmath.nstr(trivial_err, 5),
            "moments": {b: mpmath.nstr(v, 30) for b, v in moments.items()},
        })
        print("N=%d gap=%s residual=%s" % (n_trunc, rows[-1]["gap"], rows[-1]["root_residual_max"]))
    doc = {"q": Q, "digits": DIGITS, "method": "mpmath.polyroots on the renewal polynomial",
           "rows": rows}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
