"""Independent oracles for the planted answers.

Nothing here imports ``igl``.  Every expected answer the benchmark checks
comes either from how an instance was constructed or from the small,
deliberately naive computations below: prime-power bookkeeping for
invariant factors, determinantal divisors for tiny matrices, digit
reading on Cantor normal forms, and a text-level rank count on group
expressions.  The text forms follow the expression grammar documented in
the repository README.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_chain(orders) -> tuple[int, ...]:
    """Canonical invariant factors of ``⊕ Z/d`` over ``orders`` (0 is an
    infinite cyclic summand, 1 a trivial one): the torsion chain
    ``d_1 | d_2 | ...`` with every ``d_i > 1``, then one 0 per free rank."""
    rank = sum(1 for d in orders if d == 0)
    exps: dict[int, list[int]] = {}
    for d in orders:
        if d > 1:
            for p, e in _prime_powers(d).items():
                exps.setdefault(p, []).append(e)
    depth = max((len(v) for v in exps.values()), default=0)
    chain = []
    for i in range(depth):
        f = 1
        for p, es in exps.items():
            es_sorted = sorted(es)
            j = i - (depth - len(es_sorted))
            if j >= 0:
                f *= p ** es_sorted[j]
        chain.append(f)
    return tuple(chain) + (0,) * rank


def _det(rows: list[list[int]]) -> int:
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * head * _det(minor)
    return total


def cokernel_invariants(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of ``Z^r / (column span)`` for a small ``r x c``
    matrix, from the gcds of its ``k x k`` minors (determinantal
    divisors).  Exponential in the size: only for matrices of a few rows."""
    r = len(rows)
    c = len(rows[0]) if rows else 0
    diag = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        dk = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                dk = gcd(dk, _det([[rows[i][j] for j in ci] for i in ri]))
        if dk == 0:
            break
        diag.append(dk // prev)
        prev = dk
    return invariant_chain(diag + [0] * (r - len(diag)))


# ---------------------------------------------------------------------------
# Expression text
# ---------------------------------------------------------------------------

def _item_text(base: str, times, paren: bool) -> str:
    if times == 1:
        return base
    b = f"({base})" if paren else base
    return f"{b}^{times}" if isinstance(times, int) else f"{b}^({times})"


def render_sum(items) -> str:
    """Render ``[(base_text, times), ...]`` as a canonical direct sum:
    adjacent equal bases with finite multiplicities merge, a cyclic base
    under a power is parenthesised, and the empty sum is ``0``."""
    merged: list[list] = []
    for base, times in items:
        if times == 0:
            continue
        if merged and merged[-1][0] == base and isinstance(times, int) \
                and isinstance(merged[-1][1], int):
            merged[-1][1] += times
        else:
            merged.append([base, times])
    if not merged:
        return "0"
    return " ⊕ ".join(_item_text(b, t, b.startswith("Z/")) for b, t in merged)


def render_fg(invariants) -> str:
    """Text of the group with these canonical invariant factors."""
    return render_sum([("Z" if d == 0 else f"Z/{d}", 1) for d in invariants])


def tower_text(slots) -> str:
    """Text of a value tower given by slot names, top slot first."""
    return slots[0] if len(slots) == 1 else "lex(" + ";".join(slots) + ")"


def expr_rank(text: str) -> int | None:
    """Free rank of an expression built only from ``Z``, ``lex(...)``,
    parentheses, ``⊕`` and finite powers; ``None`` for anything else
    (a rational or real slot, ``?``, a symbolic multiplicity)."""
    toks = text.replace("⊕", " + ").replace("(", " ( ").replace(")", " ) ") \
        .replace(";", " ; ").replace("^", " ^ ").replace("lex", " lex ").split()
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def parse_sum(stop) -> int | None:
        total = 0
        while True:
            item = parse_item()
            if item is None:
                return None
            total += item
            if peek() in stop:
                return total
            if take() != "+":
                return None

    def parse_item() -> int | None:
        t = take() if peek() is not None else None
        if t == "Z":
            base = 1
        elif t in ("lex", "("):
            if t == "lex" and take() != "(":
                return None
            base = 0
            while True:
                part = parse_sum({";", ")"})
                if part is None:
                    return None
                base += part
                if take() == ")":
                    break
        else:
            return None
        if peek() == "^":
            take()
            times = take() if peek() is not None else ""
            if not times.isdigit():
                return None
            base *= int(times)
        return base

    rank = parse_sum({None})
    return rank if pos == len(toks) else None


# ---------------------------------------------------------------------------
# Ordinals below w^w in Cantor normal form
# ---------------------------------------------------------------------------

def render_ordinal(terms) -> str:
    """``[(exponent, coefficient), ...]`` (exponents strictly decreasing)
    in the instance-file grammar: ``w^2*3+w+4``."""
    if not terms:
        return "0"
    bits = []
    for e, c in terms:
        if e == 0:
            bits.append(str(c))
        elif e == 1:
            bits.append("w" if c == 1 else f"w*{c}")
        else:
            bits.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
    return "+".join(bits)


def stratum_multiplicities(terms) -> list:
    """How many points of each Cantor-Bendixson rank the interval
    ``[0, a]`` has, read off the digits of ``a``.

    For ``a = w^e1*c1 + ...`` and a rank ``k < e1`` the points of rank
    ``k`` are indexed by ``a`` with every exponent lowered by ``k`` (terms
    below ``w^k`` dropped), an infinite ordinal.  Rank ``e1`` is the top
    stratum: ``c1`` points when ``e1 > 0``, and ``c1 + 1`` points (``0``
    through ``c1``) when the interval is finite."""
    e1, c1 = terms[0]
    out: list = []
    for k in range(e1):
        out.append(render_ordinal([(e - k, c) for e, c in terms if e >= k]))
    out.append(c1 if e1 > 0 else c1 + 1)
    return out
