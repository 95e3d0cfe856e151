#!/usr/bin/env python3
"""Survey the conductor-data decision over all finite residue fields with
at most a given number of elements.

For one branch with exponent one, the verdict is Free exactly on trivial
extensions; for two branches it is Free only over the two-element field.
The script prints the full verdict table so the pattern is visible, and
runs ``verify`` on every instance it decides: each check must pass, and
on every instance the unit quotient must be cross-checked, not skipped,
against the integer engine's cokernel (``quotient-crosscheck`` for one
branch, ``amalgam-crosscheck`` for two).

Usage: python3 scripts/finite_field_survey.py [max_order]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from igl.cli import verify_payload
from igl.noeth import Branch, FiniteField, NoethInstance, decide_noeth
from igl.valgroup import Verdict

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def prime_powers(limit):
    for p in PRIMES:
        q, r = p, 1
        while q <= limit:
            yield p, r, q
            q, r = q * p, r + 1


def verify(p, s, rs):
    """Run ``verify`` on the instance as a payload: every check passes,
    and the unit-quotient cross-check of its case runs, not skipped."""
    payload = {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": p, "r": s}},
               "branches": [{"L": {"finite": {"p": p, "r": r}}, "e": 1} for r in rs]}
    checks = verify_payload(payload, f"F{p}^{s}")
    assert all(ok for _, ok, _ in checks), (p, s, rs, checks)
    label = "quotient-crosscheck" if len(rs) == 1 else "amalgam-crosscheck"
    assert any(c == label and not detail.startswith("skipped")
               for c, _, detail in checks), (p, s, rs, checks)


def main() -> int:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    pps = list(prime_powers(limit))

    print("one branch, radical conductor (Free iff L = k):")
    free = verified = two_branch = 0
    for p, s, ps in pps:
        for p2, r, pr in pps:
            if p2 != p or r % s:
                continue
            inst = NoethInstance(FiniteField(p, s), (Branch(FiniteField(p, r), 1),))
            v = decide_noeth(inst).verdict
            assert (v is Verdict.FREE) == (r == s)
            free += v is Verdict.FREE
            verify(p, s, [r])
            verified += 1
    print(f"  {free} free verdicts, one per field, as predicted")

    print("two branches, radical conductor (Free iff everything is F2):")
    rows = []
    for p, s, ps in pps:
        subs = [(r, q) for p2, r, q in pps if p2 == p and r % s == 0]
        for r1, q1 in subs:
            for r2, q2 in subs:
                inst = NoethInstance(FiniteField(p, s),
                                     (Branch(FiniteField(p, r1), 1),
                                      Branch(FiniteField(p, r2), 1)))
                v = decide_noeth(inst).verdict
                if v is Verdict.FREE:
                    rows.append((ps, q1, q2))
                assert (v is Verdict.FREE) == (ps == q1 == q2 == 2)
                verify(p, s, [r1, r2])
                verified += 1
                two_branch += 1
    for ps, q1, q2 in rows:
        print(f"  Free: k=F{ps}, L1=F{q1}, L2=F{q2}")
    print(f"  (every other combination with orders <= {limit} is NotFree)")
    print(f"verify: every check passes on all {verified} instances, and the "
          f"engine cross-check of the unit quotient ran on each of them, "
          f"{two_branch} with two branches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
