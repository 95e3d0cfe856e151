"""Seeded instance generators with planted answers.

``make_requests(workload, seed)`` returns the requests of one pass of a
workload, in the order the closed loop sends them.  Each request names
one generated instance file (or none, for ``selftest``), the command to
run on it, the size label used by the growth table, and the answer the
reply must match.  The same ``(workload, seed)`` always gives the same
requests and byte-identical files; the size mix of a workload does not
depend on the seed.

Answers come from construction (unimodular mixing of a known diagonal,
direct sums of known sequences) or from the oracles in ``oracle.py``;
``igl`` is never consulted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import oracle

WORKLOADS = ("fg_engine", "spectral_trees", "scattered_strata", "small_batch")


@dataclass
class Request:
    op: str                 # "decide", "verify" or "selftest"
    file: str | None        # instance file name inside the work directory
    size: str               # size label for the growth table
    expect: dict            # planted answer, see ``check.py``


def instance_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Integer matrices with planted structure
# ---------------------------------------------------------------------------

def _matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(inner) if a[i][t]) for j in range(cols)]
            for i in range(len(a))]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular(rng: random.Random, n: int, density: float):
    """A dense unimodular matrix with small entries and its inverse:
    a row permutation of (unit lower) x (unit upper) triangular factors
    whose off-diagonal entries are +-1 with the given density."""
    low = _identity(n)
    up = _identity(n)
    for i in range(n):
        for j in range(n):
            if j < i and rng.random() < density:
                low[i][j] = rng.choice((-1, 1))
            elif j > i and rng.random() < density:
                up[i][j] = rng.choice((-1, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    m = _matmul(low, up)
    m = [m[p] for p in perm]
    # inverse: up^-1 low^-1 P^-1, by triangular substitution
    low_inv = _identity(n)
    for i in range(n):
        for j in range(i):
            low_inv[i][j] = -sum(low[i][t] * low_inv[t][j] for t in range(j, i))
    up_inv = _identity(n)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            up_inv[i][j] = -sum(up[i][t] * up_inv[t][j] for t in range(i + 1, j + 1))
    inv = _matmul(up_inv, low_inv)
    inv_p = [[0] * n for _ in range(n)]
    for new_row, old_row in enumerate(perm):
        for i in range(n):
            inv_p[i][new_row] = inv[i][old_row]
    return m, inv_p


def _diag(rows, cols, entries):
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(entries):
        d[i][i] = x
    return d


def _relators(n, entries):
    """Relator list (columns) of ``⊕ Z/d`` on ``n`` generators."""
    return [[x if j == i else 0 for j in range(n)] for i, x in enumerate(entries) if x != 0]


def _group(n, relators):
    return {"generators": n, "relators": relators}


def _columns(mat):
    return [list(c) for c in zip(*mat)] if mat and mat[0] else []


def _random_torsion(rng, max_factors):
    return [rng.choice((2, 3, 4, 6, 12)) for _ in range(rng.randint(0, max_factors))]


# ---------------------------------------------------------------------------
# group_diagram instances
# ---------------------------------------------------------------------------

def gen_group(rng, n, m, density):
    """``Z^n`` modulo the columns of ``U · D · V`` for a known diagonal
    ``D``: the cokernel is ``⊕ Z/d_i`` whatever the unimodular mixing."""
    torsion = _random_torsion(rng, 3) if rng.random() < 0.5 else []
    diag = (torsion + [0] * rng.randint(0, 2) + [1] * n)[:n]
    rng.shuffle(diag)
    u, _ = unimodular(rng, n, density)
    v, _ = unimodular(rng, m, density)
    a = _matmul(_matmul(u, _diag(n, m, diag)), v)
    inv = oracle.invariant_chain(diag)
    payload = {"v": 1, "kind": "group_diagram", "check": "group",
               "group": _group(n, _columns(a))}
    expr = oracle.render_fg(inv)
    free = all(d == 0 for d in inv)
    decide = {"verdict": "Free" if free else "NotFree", "expr": expr,
              "meta": {"invariants": list(inv)}}
    verify = {"checks": {"group-well-formed": expr}}
    return payload, decide, verify


def _mix_group(rng, n, relators, density):
    """Change of basis: the group stays the same, the presentation mixes."""
    w, winv = unimodular(rng, n, density)
    rel = _columns(_matmul(w, [list(r) for r in zip(*relators)])) if relators else []
    return w, winv, rel


def gen_ses(rng, left_n, right_n, density):
    """``0 → left → mid → right → 0`` as a direct sum of a split sequence
    and, for a non-split instance, ``0 → Z -2-> Z → Z/2 → 0``."""
    left = [rng.choice((2, 3, 4, 6, 12))] + [0] * left_n
    right = [rng.choice((2, 3, 4, 6, 12))] + [0] * right_n
    nonsplit = rng.random() < 0.4
    ln, rn = len(left), len(right)
    mid_inv = left + right
    inj = [[int(i == j) for j in range(ln)] for i in range(ln)] + [[0] * ln for _ in range(rn)]
    surj = [[0] * ln + [int(i == j) for j in range(rn)] for i in range(rn)]
    if nonsplit:
        d = rng.choice((2, 3))
        left, mid_inv, right = left + [0], mid_inv + [0], right + [d]
        inj = [row + [0] for row in inj] + [[0] * ln + [d]]
        surj = [row + [0] for row in surj] + [[0] * (ln + rn) + [1]]
        ln, rn = ln + 1, rn + 1
    mn = len(mid_inv)
    w, winv, mid_rel = _mix_group(rng, mn, _relators(mn, mid_inv), density)
    inj = _matmul(w, inj)
    surj = _matmul(surj, winv)
    payload = {"v": 1, "kind": "group_diagram", "check": "ses", "ses": {
        "left": _group(ln, _relators(ln, left)),
        "mid": _group(mn, mid_rel),
        "right": _group(rn, _relators(rn, right)),
        "inj": inj, "surj": surj}}
    inv = oracle.invariant_chain(mid_inv)
    expr = oracle.render_fg(inv)
    free = all(x == 0 for x in inv)
    decide = {"verdict": "Free" if free else "NotFree", "expr": expr,
              "meta": {"splits": not nonsplit}}
    verify = {"checks": {"sequence-exact-and-split-tested": f"exact; splits={not nonsplit}"}}
    return payload, decide, verify


def gen_snake(rng, a, b, density):
    """A ladder of two free split rows with vertical maps ``f``, ``g =
    f ⊕ h``, ``h`` on mixed middle bases; kernels and cokernels are read
    off the diagonals of ``f`` and ``h``."""
    fdiag = [rng.choice((0, 1, 1, 2, 3)) for _ in range(a)]
    hdiag = [rng.choice((0, 1, 1, 2, 4)) for _ in range(b)]
    n = a + b
    inj = [[int(i == j) for j in range(a)] for i in range(n)]
    surj = [[int(j == a + i) for j in range(n)] for i in range(b)]
    g = _diag(n, n, fdiag + hdiag)
    w_top, w_top_inv = unimodular(rng, n, density)
    w_bot, w_bot_inv = unimodular(rng, n, density)

    def row(w, winv):
        return {"left": _group(a, []), "mid": _group(n, []), "right": _group(b, []),
                "inj": _matmul(w, inj), "surj": _matmul(surj, winv)}

    payload = {"v": 1, "kind": "group_diagram", "check": "snake", "snake": {
        "top": row(w_top, w_top_inv), "bottom": row(w_bot, w_bot_inv),
        "f": _diag(a, a, fdiag), "g": _matmul(_matmul(w_bot, g), w_top_inv),
        "h": _diag(b, b, hdiag)}}

    def ker(d):
        return oracle.invariant_chain([0 for x in d if x == 0])

    def coker(d):
        return oracle.invariant_chain([x for x in d if x != 1])

    groups = [ker(fdiag), ker(fdiag + hdiag), ker(hdiag),
              coker(fdiag), coker(fdiag + hdiag), coker(hdiag)]
    free = all(all(x == 0 for x in inv) for inv in groups)
    decide = {"verdict": "Free" if free else "NotFree", "expr": None,
              "meta": {"six_terms": [oracle.render_fg(inv) for inv in groups]}}
    verify = {"checks": {"ladder-and-six-term": "six-term sequence exact"}}
    return payload, decide, verify


def gen_amalgam(rng, parts_n, density):
    """``⊕ A_i`` modulo a diagonal ``G``, each ``A_i = B_i ⊕ G`` given in
    a mixed basis; the quotient is ``⊕ B_i ⊕ G^(parts-1)``."""
    g_inv = _random_torsion(rng, 1) + [0] * rng.randint(0, 2)
    if not g_inv:
        g_inv = [0]
    gn = len(g_inv)
    parts = []
    orders = [d for d in g_inv if d != 1] * (parts_n - 1)
    for _ in range(parts_n):
        b_inv = _random_torsion(rng, 1) + [0] * rng.randint(0, 2)
        bn = len(b_inv)
        n = bn + gn
        w, winv, rel = _mix_group(rng, n, _relators(n, b_inv + g_inv), density)
        emb0 = [[int(i == bn + j) for j in range(gn)] for i in range(n)]
        proj0 = [[int(j == i) for j in range(n)] for i in range(bn)]
        ret0 = [[int(j == bn + i) for j in range(n)] for i in range(gn)]
        parts.append({"group": _group(n, rel),
                      "complement": _group(bn, _relators(bn, b_inv)),
                      "emb": _matmul(w, emb0),
                      "proj": _matmul(proj0, winv) if bn else [],
                      "retract": _matmul(ret0, winv)})
        orders += [d for d in b_inv if d != 1]
    payload = {"v": 1, "kind": "group_diagram", "check": "amalgam",
               "amalgam": {"g": _group(gn, _relators(gn, g_inv)), "parts": parts}}
    inv = oracle.invariant_chain(orders)
    expr = oracle.render_fg(inv)
    decide = {"verdict": "Free" if all(x == 0 for x in inv) else "NotFree", "expr": expr}
    verify = {"checks": {"amalgam-isomorphism": "kernel and surjectivity verified"}}
    return payload, decide, verify


# ---------------------------------------------------------------------------
# prufer_tree instances
# ---------------------------------------------------------------------------

def _tree_shape(rng, shape, size):
    """Parent vector (node 0 is the root) of a tree of the given family."""
    parents: list[int] = []
    if shape == "caterpillar":          # spine of ``size`` primes, one leaf on each
        prev = 0
        for _ in range(size):
            parents.append(prev)
            spine = len(parents)
            parents.append(spine)       # the leaf hanging off this spine prime
            prev = spine
        parents.append(prev)            # the last spine prime branches too
    elif shape == "broom":              # a handle of ``size`` primes, then bristles
        prev = 0
        for _ in range(size):
            parents.append(prev)
            prev = len(parents)
        parents += [prev] * max(2, size // 2)
    elif shape == "star":               # one prime under the root, ``size`` leaves
        parents.append(0)
        parents += [1] * size
    else:                               # random recursive tree on ``size`` nodes
        for i in range(1, size):
            parents.append(rng.randrange(i))
    return parents


def _tree_children(parents):
    children: dict[int, list[int]] = {i: [] for i in range(len(parents) + 1)}
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)
    return children


def _preorder(children) -> list[int]:
    """Nodes in pre-order, children left to right, as the deciders walk them."""
    order = []
    stack = [0]
    while stack:
        order.append(stack.pop())
        stack.extend(reversed(children[order[-1]]))
    return order


def tree_answers(children, labels, question, codim_finite, locally_finite):
    """Planted verdicts for a finite spectral tree, from the rules of the
    cut-and-sum decision applied to the tree structure directly.

    ``Inv``: every non-root prime with two or more children (a branching
    point) must have an all-``Z`` path to the root, else ``Unknown``;
    then the group is free exactly when every maximal ideal's path is
    all-``Z``, and its rank is the slot count.  ``Div``: under the same
    gate, the first maximal ideal (pre-order) whose top slot is not ``Z``
    is the witness.  Strongly discrete: every slot ``Z``, then ``Free``
    under either finiteness flag."""
    order = _preorder(children)
    path_z: dict[int, bool] = {0: True}
    for node in order:
        for c in children[node]:
            path_z[c] = path_z[node] and all(s == "Z" for s in labels[c])
    leaves = [n for n in order if n != 0 and not children[n]]
    gate = all(path_z[n] for n in order if n != 0 and len(children[n]) >= 2)
    all_z = all(all(s == "Z" for s in labels[n]) for n in order if n != 0)
    slots = sum(len(labels[n]) for n in order if n != 0)
    cuts = sum(1 for n in order if n != 0 and len(children[n]) >= 2)

    if not gate:
        inv = {"verdict": "Unknown", "expr": "?"}
    elif all(path_z[n] for n in leaves):
        inv = {"verdict": "Free", "rank": slots}
    else:
        inv = {"verdict": "NotFree"}

    if question == "inv":
        decide = inv
    elif question == "div":
        if not gate:
            decide = {"verdict": "Unknown", "expr": None}
        else:
            bad = [n for n in leaves if labels[n][0] != "Z"]
            decide = {"verdict": "NotFree" if bad else "Free", "expr": None}
            if bad:
                decide["meta"] = {"witness_leaf": f"n{bad[0]}"}
    else:
        free = all_z and (codim_finite or locally_finite)
        decide = {"verdict": "Free" if free else "Unknown", "expr": None}

    checks = {"decision-computed": inv["verdict"]}
    if all_z:
        checks["rank-matches-slots"] = f"rank {slots} matches the slot count"
    verify = {"checks": checks, "prefix_counts": {"cut-at-": cuts if gate else 0}}
    return decide, verify


# (where a Q or R slot goes, question) of the trees of one size class, in
# order; the mix is fixed so that a seed changes contents, not costs
TREE_SPECS = (("none", "inv"), ("leaf", "div"), ("none", "strongly_discrete"),
              ("branch", "inv"))


def gen_tree(rng, shape, size, spec):
    """A spectral tree with ``Z`` edges, one in eight leaves carrying a
    two-slot ``Z`` tower.  ``spec`` places one ``Q`` or ``R`` slot: on the
    last leaf's top slot (``"leaf"``), on the edge above the last
    branching prime (``"branch"``), or nowhere (``"none"``)."""
    where, question = spec
    parents = _tree_shape(rng, shape, size)
    children = _tree_children(parents)
    n_nodes = len(parents) + 1
    labels = {i: ["Z"] for i in range(1, n_nodes)}
    labels[0] = []
    order = _preorder(children)
    leaves = [i for i in order if i and not children[i]]
    for i in rng.sample(leaves, len(leaves) // 8):
        labels[i] = ["Z", "Z"]
    # the slot goes where the deciders find it last, so that its cost does
    # not depend on the seed
    branching = [i for i in order if i and len(children[i]) >= 2]
    if where == "branch" and branching:
        labels[branching[-1]] = [rng.choice(("Q", "R"))]
    elif where != "none":
        labels[leaves[-1]] = [rng.choice(("Q", "R"))] + labels[leaves[-1]][1:]
    codim_finite = rng.random() < 0.5
    locally_finite = rng.random() < 0.5

    def node(i):
        rec = {"id": "0" if i == 0 else f"n{i}"}
        if i:
            rec["label"] = labels[i]
        if children[i]:
            rec["children"] = [node(c) for c in children[i]]
        return rec

    payload = {"v": 1, "kind": "prufer_tree", "root": node(0), "question": question,
               "codim_finite": codim_finite, "locally_finite": locally_finite}
    decide, verify = tree_answers(children, labels, question, codim_finite, locally_finite)
    return payload, decide, verify, n_nodes


# ---------------------------------------------------------------------------
# scattered_space instances
# ---------------------------------------------------------------------------

FREE_TOWERS = (["Z"], ["Z"], ["Z", "Z"])


def scattered_answers(terms, labels):
    """Planted verdict of the derived-sequence decision, and the expected
    group: one summand per stratum, the stratum's tower repeated as many
    times as the stratum has points."""
    mults = oracle.stratum_multiplicities(terms)
    k = terms[0][0]
    expr = oracle.render_sum([(oracle.tower_text(labels[i]), mults[i]) for i in range(k + 1)])
    free = [all(s == "Z" for s in labels[i]) for i in range(k + 1)]
    if all(free):
        verdict = "DirectSumFree"
    elif k == 0:
        verdict = "DirectSum"
    else:
        q_limit = [i for i in range(1, k + 1) if labels[i] == ["Q"]]
        others = all(labels[i] == ["Z"] for i in range(k + 1) if i not in q_limit)
        verdict = "Obstructed" if q_limit and others else "Unknown"
    decide = {"verdict": verdict, "expr": expr, "meta": {"cb_rank": str(k + 1)}}
    verify = {"checks": {"rank-consistent": f"rank {k + 1} = leading exponent + 1",
                         "derived-sequence-monotone": "strata shrink along the derived sequence"}}
    return decide, verify


def gen_scattered(rng, k, pattern):
    """A bound ``w^k*c + ...`` and labels following one of the patterns
    ``free``, ``obstructed``, ``unknown`` or ``finite`` (``k`` = 0)."""
    terms = [(k, rng.randint(1, 4))]
    for e in sorted(rng.sample(range(k), min(k, 2)), reverse=True):
        terms.append((e, rng.randint(1, 5)))
    if pattern == "free":
        labels = [rng.choice(FREE_TOWERS) for _ in range(k + 1)]
    elif pattern == "obstructed":
        labels = [["Z"] for _ in range(k + 1)]
        for i in rng.sample(range(1, k + 1), rng.randint(1, min(3, k))):
            labels[i] = ["Q"]
    elif pattern == "unknown":
        labels = [rng.choice(FREE_TOWERS) for _ in range(k + 1)]
        labels[rng.randrange(k + 1)] = rng.choice((["R"], ["Z", "Q"], ["Q", "Z"]))
    else:  # finite interval, non-free label: a plain direct sum
        labels = [rng.choice((["Q"], ["R"], ["Z", "Q"]))]
    payload = {"v": 1, "kind": "scattered_space", "bound": oracle.render_ordinal(terms),
               "labels": {str(i): t for i, t in enumerate(labels)}}
    decide, verify = scattered_answers(terms, labels)
    return payload, decide, verify


# ---------------------------------------------------------------------------
# Small instances of every kind
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7)


def gen_noeth_finite(rng):
    """Conductor data over finite fields, answered by the closed-form rule
    of the finite-field survey: a repeated conductor factor is never free;
    one branch is free iff ``L = k``; several branches are free iff every
    field is ``F2``."""
    p = rng.choice(PRIMES)
    max_r = {2: 6, 3: 3, 5: 2, 7: 2}[p]
    s = rng.randint(1, max_r)
    branches = []
    for _ in range(rng.choice((1, 1, 2, 2, 3))):
        r = rng.choice([r for r in range(s, max_r + 1) if r % s == 0])
        branches.append((r, 2 if rng.random() < 0.15 else 1))
    payload = {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": p, "r": s}},
               "branches": [{"L": {"finite": {"p": p, "r": r}}, "e": e} for r, e in branches]}
    m = p ** s - 1
    princ = 'opaque("Princ(closure)",free=yes)'
    if any(e > 1 for _, e in branches):
        case = "a"
        verdict = "NotFree"
        left = 'opaque("U(closure)/U(D) [non-radical conductor]",free=no,torsionfree=no)'
    elif len(branches) == 1:
        case = "b"
        r = branches[0][0]
        verdict = "Free" if r == s else "NotFree"
        left = oracle.render_fg(oracle.invariant_chain([(p ** r - 1) // m]))
    else:
        case = "c"
        verdict = "Free" if p == 2 and all(r == 1 for r, _ in branches) else "NotFree"
        orders = [p ** r - 1 for r, _ in branches]
        # the cokernel of Z/m → ⊕ Z/n_i, 1 ↦ (n_i/m): relations diag(n_i) and the image
        rows = [[n if j == i else 0 for j in range(len(orders))] + [n // m]
                for i, n in enumerate(orders)]
        left = oracle.render_fg(oracle.cokernel_invariants(rows))
    expr = princ if left == "0" else f"{princ} ⊕ {left}"
    decide = {"verdict": verdict, "expr": expr, "meta": {"case": case, "target_group": "Inv"}}
    verify = {"checks": {"sequence-computed": f"case {case}"}}
    return payload, decide, verify


def gen_noeth_opaque(rng):
    """The declared-field templates of the shipped corpus, relabelled."""
    tag = rng.randrange(1000)
    template = rng.choice(("cusp", "pullback", "square-class", "undeclared"))
    princ = 'opaque("Princ(closure)",free=yes)'
    if template == "cusp":
        k = {"opaque": {"label": f"K{tag}", "characteristic": 0}}
        branches = [{"L": {"opaque": {"label": f"K{tag}", "characteristic": 0}},
                     "e": rng.choice((2, 3))}]
        verdict, case = "NotFree", "a"
        expr = f'{princ} ⊕ opaque("U(closure)/U(D) [non-radical conductor]",free=no,divisible=yes)'
    else:
        char = 2 if template == "square-class" else 0
        decl = {"pullback": True, "square-class": False, "undeclared": None}[template]
        k = {"opaque": {"label": f"k{tag}", "characteristic": char}}
        lrec = {"label": f"L{tag}", "characteristic": char}
        if decl is not None:
            lrec["quotient_free"] = decl
        branches = [{"L": {"opaque": lrec}, "e": 1}]
        case = "b"
        verdict = {True: "Free", False: "NotFree", None: "Unknown"}[decl]
        flag = {True: ",free=yes", False: ",free=no", None: ""}[decl]
        expr = f'{princ} ⊕ opaque("U(L{tag})/U(k{tag})"{flag})'
    payload = {"v": 1, "kind": "noeth_local", "k": k, "branches": branches}
    decide = {"verdict": verdict, "expr": expr, "meta": {"case": case}}
    verify = {"checks": {"sequence-computed": f"case {case}"}}
    return payload, decide, verify


def gen_valuation(rng):
    slots = [rng.choice("ZZZQR") for _ in range(rng.randint(1, 4))]
    group = rng.choice(("inv", "div"))
    payload = {"v": 1, "kind": "valuation", "tower": slots, "group": group}
    all_z = all(s == "Z" for s in slots)
    if group == "inv":
        decide = {"verdict": "Free" if all_z else "NotFree", "expr": oracle.tower_text(slots)}
    else:
        principal = rng.random() < 0.5
        branched = rng.random() < 0.85
        if rng.random() < 0.7:
            payload["maximal_principal"] = principal
        else:
            principal = slots[0] == "Z"
        payload["maximal_branched"] = branched
        if not branched:
            decide = {"verdict": "Unknown", "expr": None}
        elif principal:
            decide = {"verdict": "Free" if all_z else "NotFree",
                      "expr": oracle.tower_text(slots)}
        else:
            below = slots[1:]
            items = [("R", 1)] + ([(oracle.tower_text(below), 1)] if below else [])
            decide = {"verdict": "NotFree", "expr": oracle.render_sum(items)}
    detail = f"Z^{len(slots)} cross-checked through the exact engine" if all_z \
        else "skipped: tower not discrete"
    verify = {"checks": {"tower-crosscheck": detail}}
    return payload, decide, verify


def gen_krull(rng):
    payload = {"v": 1, "kind": "krull", "variant": rng.choice(("krull", "dedekind", "UFD"))}
    decide = {"verdict": "Free", "expr": None,
              "meta": {"groups": {"Div": "Free", "Inv": "Free", "Princ": "Free"}}}
    verify = {"checks": {"all-groups-free": "height-one basis"}}
    return payload, decide, verify


def gen_precondition(rng):
    """Instances outside the deciders' hypotheses, on which ``decide`` must
    exit with code 3: a zero conductor, or a ladder whose squares do not
    commute."""
    if rng.random() < 0.5:
        p = rng.choice(PRIMES)
        return {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": p, "r": 1}},
                "branches": [{"L": {"finite": {"p": p, "r": 1}}, "e": 1}],
                "conductor_nonzero": False}
    one = {"generators": 1, "relators": []}
    two = {"generators": 2, "relators": []}
    row = {"left": one, "mid": two, "right": one, "inj": [[1], [0]], "surj": [[0, 1]]}
    c = rng.randint(2, 5)
    return {"v": 1, "kind": "group_diagram", "check": "snake",
            "snake": {"top": row, "bottom": row, "f": [[c]], "g": [[1, 0], [0, 1]],
                      "h": [[1]]}}


def gen_malformed(rng):
    """Schema violations, on which ``decide`` must exit with code 2."""
    n = rng.randint(2, 4)
    if rng.random() < 0.5:
        return {"v": 1, "kind": "group_diagram", "check": "group",
                "group": {"generators": n, "relators": [[1] * (n + 1)]}}
    return {"v": 1, "kind": "prufer_tree", "question": "inv",
            "root": {"id": "0", "children": [{"id": "P", "label": ["Z"]},
                                             {"id": "P", "label": ["Z"]}]}}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _instance(out, name, size, payload, decide, verify, do_verify=True):
    n = len(out["files"])
    fname = f"{n:04d}-{name}.json"
    payload = dict(payload, name=f"{name}-{n}")
    out["files"][fname] = payload
    out["requests"].append(Request("decide", fname, size, dict(decide, exit=0)))
    if do_verify:
        out["requests"].append(Request("verify", fname, size, dict(verify, exit=0)))


def _error_instance(out, name, payload, code):
    # decide only: which exit code verify owes for a failing replay is not
    # yet specified (verify reports the failure as a check and exits 0)
    n = len(out["files"])
    fname = f"{n:04d}-{name}.json"
    out["files"][fname] = payload
    out["requests"].append(Request("decide", fname, "error", {"exit": code}))


def _fg_engine(rng, out):
    for n in (8, 12, 16, 20, 24):
        for m in (n, 2 * n):
            for _ in range(8 if n < 20 else 12):
                _instance(out, "group", f"n={n},m={m}", *gen_group(rng, n, m, 0.12))
    for size in (2, 3, 4):
        for _ in range(6):
            _instance(out, "ses", f"gens={size}", *gen_ses(rng, size, size, 0.2))
    for size in (2, 3, 4):
        for _ in range(6):
            _instance(out, "snake", f"gens={2 * size}", *gen_snake(rng, size, size, 0.3))
    for parts in (2, 3, 4):
        for _ in range(4):
            _instance(out, "amalgam", f"parts={parts}", *gen_amalgam(rng, parts, 0.3))


def _spectral_trees(rng, out):
    # (shape, size, trees, verified, specs): verify replays every divided
    # cut through the integer engine, which costs half a second at spine 40
    # and grows steeply with a broom's handle, so the large trees are
    # decided only.  The twelve plain spine-40 trees straddle the 90th
    # percentile of decide, so that it does not fall between two classes.
    plain = (("none", "inv"),)
    plan = [("caterpillar", 5, 8, 8, TREE_SPECS), ("caterpillar", 10, 8, 8, TREE_SPECS),
            ("caterpillar", 15, 8, 8, TREE_SPECS), ("caterpillar", 20, 8, 8, TREE_SPECS),
            ("caterpillar", 25, 8, 8, TREE_SPECS), ("caterpillar", 40, 12, 1, plain),
            ("caterpillar", 100, 4, 0, TREE_SPECS), ("caterpillar", 150, 2, 0, TREE_SPECS),
            ("broom", 6, 8, 8, TREE_SPECS), ("broom", 10, 4, 4, TREE_SPECS),
            ("broom", 40, 4, 0, TREE_SPECS), ("broom", 120, 4, 0, TREE_SPECS),
            ("star", 10, 8, 8, TREE_SPECS), ("star", 25, 8, 8, TREE_SPECS),
            ("star", 50, 8, 8, TREE_SPECS), ("star", 100, 4, 4, TREE_SPECS),
            ("random", 20, 11, 11, TREE_SPECS), ("random", 40, 8, 8, TREE_SPECS),
            ("random", 100, 4, 0, TREE_SPECS), ("random", 300, 2, 0, TREE_SPECS)]
    for shape, size, trees, verified, specs in plan:
        for rep in range(trees):
            payload, decide, verify, nodes = gen_tree(rng, shape, size, specs[rep % len(specs)])
            _instance(out, f"tree-{shape}", f"nodes={nodes}", payload, decide, verify,
                      do_verify=rep < verified)


def _scattered_strata(rng, out):
    # cost grows with the cube of the leading exponent: many small and
    # medium exponents, one space each at 90, 100, 120 and 150; the six at
    # 72 straddle the 90th percentile, so that it does not fall between
    # two exponents
    patterns = ("free", "obstructed", "unknown")
    for k in list(range(10, 50, 2)) + [56, 64, 72, 72, 80]:
        for pattern in patterns:
            _instance(out, "space", f"k={k}", *gen_scattered(rng, k, pattern))
    for i, k in enumerate((90, 100, 120, 150)):
        _instance(out, "space", f"k={k}", *gen_scattered(rng, k, patterns[i % 3]))
    for _ in range(21):
        _instance(out, "space", "k=0", *gen_scattered(rng, 0, "finite"))


def _small_round(rng, out):
    """One small instance of every kind, and a ``selftest``."""
    for gen in (gen_noeth_finite, gen_noeth_finite, gen_noeth_opaque, gen_valuation,
                gen_valuation, gen_krull):
        _instance(out, gen.__name__[4:], "small", *gen(rng))
    n = rng.randint(2, 4)
    _instance(out, "group", "small", *gen_group(rng, n, n + rng.randint(0, 2), 0.3))
    _instance(out, "ses", "small", *gen_ses(rng, 1, 1, 0.3))
    _instance(out, "snake", "small", *gen_snake(rng, 1, 1, 0.3))
    _instance(out, "amalgam", "small", *gen_amalgam(rng, 2, 0.3))
    payload, decide, verify, _ = gen_tree(rng, "random", rng.randint(3, 6),
                                          rng.choice(TREE_SPECS))
    _instance(out, "tree", "small", payload, decide, verify)
    _instance(out, "space", "small", *gen_scattered(rng, rng.randint(1, 3), rng.choice(
        ("free", "obstructed", "unknown"))))
    out["requests"].append(Request("selftest", None, "selftest", {"exit": 0, "green": True}))


def _small_batch(rng, out):
    for _ in range(20):
        _small_round(rng, out)
    _error_instance(out, "precondition", gen_precondition(rng), 3)
    _error_instance(out, "malformed", gen_malformed(rng), 2)


PLANS = {"fg_engine": _fg_engine, "spectral_trees": _spectral_trees,
            "scattered_strata": _scattered_strata, "small_batch": _small_batch}


def make_requests(workload: str, seed: int) -> tuple[dict[str, dict], list[Request]]:
    """Instance files (name → payload) and the shuffled request list of
    one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    out: dict = {"files": {}, "requests": []}
    PLANS[workload](rng, out)
    if workload != "small_batch":
        # every traced function then runs, and reports a measured time, on
        # every workload; the round is a sliver of the larger workloads
        _small_round(rng, out)
    rng.shuffle(out["requests"])
    return out["files"], out["requests"]
