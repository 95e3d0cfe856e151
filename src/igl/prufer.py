"""Finite spectral trees of semilocal Prüfer-type domains.

The prime spectrum of the modeled domain is a finite rooted tree: the
root is the zero ideal, leaves are exactly the maximal ideals, and every
edge carries a nonempty value-tower segment of ``Z``, ``Q`` and ``R``
slots -- the value group of the step between the prime and its parent.
Only branched, explicitly represented primes appear as nodes; whether a
prime is branched is a flag on its node, and inputs about unbranched
primes route to ``Unknown``.

The decision procedures follow a cut-and-sum recursion:

* several dependency classes under the root decompose the group of
  invertible ideals into a direct sum over the classes;
* a single class has a least prime ``P`` below every maximal ideal
  ("divided"), which splits off the value group of the localization at
  ``P``: the group decomposes as the quotient tree's group plus that
  tower;
* base cases are fields (trivial group) and chains (valuation rings,
  whose invertible ideals form the value group itself).

The parse walks the payload once, and its build loop fills the tree's
index.  Freeness is read once per edge in one pass, and the gate of the
recursion's hypothesis reads it at the branching points.  Past the gate
the recursion runs as one walk over the tree with an explicit stack
holding one entry per node (``_decompose``), and the same walk counts the
maximal ideals and finds the first whose value group is not free.
Every divided cut emits its prime and the free ranks of the quotient and
of the step, summed as the walk leaves the quotient; ``check_tree``,
``verify``'s checks of a tree, recounts the cut's total from the tree
and checks that the two ranks add up to it.  The sum itself is built
once: the root's normal form is one ``normal_sum`` over the summands of
every subproblem, so deciding a tree is linear in its size.  Each
distinct tower is built and rendered once per decision, and the steps
met at every node are built from constants.  ``decide_tree`` answers an
instance's question.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ANY, FLAG, RECORDS, SLOTS, Field, SchemaError, unknown_key
from .valgroup import (CertStep, Certificate, Check, Decision, GroupExpr, LexTower,
                       R, UNKNOWN, Z, ValueTower, Verdict, agree, direct_sum,
                       freeness_verdict, normal_invariant_factors, normal_sum,
                       render_expr, render_normal)


class PrimeNode(namedtuple("PrimeNode", "node_id label children branched",
                           defaults=((), True))):
    """A prime ideal in the tree; the root (zero ideal) has no edge label."""

    __slots__ = ()


class SpecTree(namedtuple("SpecTree", "root preorder parents")):
    """A spectral tree, validated when it was parsed (``tree_from_payload``),
    with the index that the loop building its nodes filled (``_indexed``):
    the pre-order node tuple, root first, and the parent map.  Every pass
    over the tuple goes through ``nodes()``, and every walk below is a
    loop, so tree depth costs no Python frames."""

    __slots__ = ()

    def nodes(self) -> tuple[PrimeNode, ...]:
        return self.preorder

    def leaves(self) -> list[PrimeNode]:
        """The maximal ideals: leaf nodes other than a bare root."""
        return [n for n in self.nodes() if not n.children and n is not self.root]

    def node(self, node_id: str) -> PrimeNode:
        return {n.node_id: n for n in self.nodes()}[node_id]


# the fields of a tree node (``cli.FIELDS`` holds this record as "tree
# node"): every node but the root has a label, and the root has none
NODE_FIELDS = {"id": Field(ANY, True), "label": Field(SLOTS, True, bound=1),
               "children": Field(RECORDS, False, [], 0, "tree node"),
               "branched": Field(FLAG, default=True)}


def tree_from_payload(payload: dict) -> SpecTree:
    """Build a tree from a ``prufer_tree`` file's ``root``, nested records
    of ``NODE_FIELDS``.  Records are checked in pre-order, so the first bad
    record in document order is the one reported, and a node's keys before
    its fields, once its id names it; this is the tree's only validation.
    A message is formatted only on failure, when a second walk finds the
    failing record's path.  Each distinct label is parsed once: nodes with
    equal labels share one ``ValueTower``, held in a table that lives for
    this call only."""
    # pre-order pass: check each record and parse its label
    order: list[tuple[str, ValueTower | None, bool, list]] = []
    seen: set[str] = set()
    towers: dict[tuple, ValueTower] = {}
    stack: list[object] = [payload]
    fields = NODE_FIELDS
    known = frozenset(fields).issuperset
    least, no_children, branched_default = (fields["label"].bound, fields["children"].default,
                                            fields["branched"].default)
    try:
        while stack:
            rec = stack.pop()
            if not isinstance(rec, dict):
                raise SchemaError("", "must be an object")
            if "id" not in rec:
                raise SchemaError("id", "missing")
            if not known(rec):
                raise unknown_key("", next(k for k in rec if k not in fields))
            # ids are compared as the strings the nodes keep, so 0 and "0" collide
            node_id = str(rec["id"])
            if node_id in seen:
                raise SchemaError("id", f"duplicate node id {node_id!r}")
            seen.add(node_id)
            if rec is payload:
                if "label" in rec:
                    raise SchemaError("label", "the root (zero ideal) carries no edge label")
                label = None
            else:
                raw = rec.get("label")
                if type(raw) is not list or len(raw) < least:
                    raise SchemaError("label", "missing" if "label" not in rec
                                      else fields["label"].expected())
                key = tuple(raw)
                try:
                    label = towers[key]
                except (KeyError, TypeError):  # a new label, or an unhashable slot,
                    # which is never a slot name: the parse names it, storing nothing
                    label = towers[key] = ValueTower.from_names(raw, "label")
            children = rec.get("children", no_children)
            if type(children) is not list:
                raise SchemaError("children", fields["children"].expected())
            branched = rec.get("branched", branched_default)
            if type(branched) is not bool:
                raise SchemaError("branched", fields["branched"].expected())
            order.append((node_id, label, branched, children))
            stack.extend(reversed(children))
    except SchemaError as exc:
        raise exc.under(_record_path(payload, len(order))) from None
    return _indexed(order)


def _record_path(payload: dict, n: int) -> str:
    """The path of the ``n``-th record of the tree in pre-order, the ones
    before it parsed: the second walk, made when the parse fails."""
    stack = [(payload, "root")]
    for _ in range(n):
        rec, path = stack.pop()
        children = rec.get("children", [])
        stack.extend((children[i], f"{path}.children[{i}]")
                     for i in reversed(range(len(children))))
    return stack[-1][1]


def _indexed(order: list[tuple[str, ValueTower | None, bool, list]]) -> SpecTree:
    """The tree of pre-order records ``(id, label, branched, children)``
    (only the number of children is read), indexed as it is built: reverse
    pre-order meets every child before its parent, the last child's node on
    top of ``built``, and the nodes made, reversed, are the pre-order tuple."""
    built: list[PrimeNode] = []
    made: list[PrimeNode] = []
    parents: dict[str, PrimeNode | None] = {}
    for node_id, label, branched, children in reversed(order):
        kids = ()
        if children:
            cut = len(built) - len(children)
            kids = tuple(reversed(built[cut:]))
            del built[cut:]
        node = tuple.__new__(PrimeNode, (node_id, label, kids, branched))
        for kid in kids:
            parents[kid.node_id] = node
        built.append(node)
        made.append(node)
    parents[node.node_id] = None
    return SpecTree(node, tuple(reversed(made)), parents)


# ---------------------------------------------------------------------------
# Tree geometry
# ---------------------------------------------------------------------------

def _tower_below(tree: SpecTree, node: PrimeNode, top: PrimeNode) -> tuple[GroupExpr, ...]:
    """The slots of the edge labels from ``node`` up to ``top`` (exclusive),
    ``node``'s own step on top: the value group of the localization at
    ``node`` in the domain whose spectrum is the subtree at ``top``.  The
    parse validated every slot, so no ``ValueTower`` is built here."""
    slots: list = []
    cur = node
    while cur is not top:
        slots.extend(cur.label)
        cur = tree.parents[cur.node_id]
    return tuple(slots)


def gamma_at(tree: SpecTree, node: PrimeNode) -> ValueTower:
    """The value group of the localization at a prime: the edge labels
    concatenated from the prime up to the root, the prime's own step on
    top.  The root has the trivial value group."""
    return ValueTower(_tower_below(tree, node, tree.root))


def finitely_generated_maximal(leaf: PrimeNode) -> bool:
    """Is the maximal ideal finitely generated?  Detected structurally: the
    top slot of its composed value tower, which is the top slot of its own
    edge label, is discrete."""
    return leaf.label[0] is Z


def branching_points(tree: SpecTree) -> list[PrimeNode]:
    """Non-maximal primes equal to the infimum of the maximal ideals above
    them.  In a finite tree these are exactly the internal nodes with at
    least two children (every subtree contains a leaf), the root included
    when it branches."""
    return [n for n in tree.nodes() if len(n.children) >= 2]


def contracted_spectrum(tree: SpecTree) -> SpecTree:
    """The contraction to root, maximal ideals and branching points, with
    edge labels composed along the contracted paths.  For a finite tree
    the result is finite by construction."""
    keep = {tree.root.node_id} | {n.node_id for n in tree.leaves()} \
        | {n.node_id for n in branching_points(tree)}
    # pre-order pass over the kept nodes: each with its composed label and
    # its kept children
    order: list[tuple[str, ValueTower | None, bool, list]] = []
    stack: list[tuple[PrimeNode, ValueTower | None]] = [(tree.root, None)]
    while stack:
        node, label = stack.pop()
        hops: list[tuple[PrimeNode, ValueTower]] = []
        for child in node.children:
            hop = child
            while hop.node_id not in keep:
                # a skipped node has exactly one child (not a leaf, not branching)
                hop = hop.children[0]
            hops.append((hop, ValueTower(_tower_below(tree, hop, node))))
        order.append((node.node_id, label, node.branched, hops))
        stack.extend(reversed(hops))
    return _indexed(order)


# ---------------------------------------------------------------------------
# Invertible-ideal decision
# ---------------------------------------------------------------------------

class DividedCut(namedtuple("DividedCut", "prime_id quotient_rank step_rank")):
    """One emitted split sequence
    ``0 → (quotient group) → (total group) → (tower of the cut prime) → 0``,
    by its prime and the free ranks of its outer terms.  Tree slots are
    ``Z``, ``Q`` or ``R``, so a finitely generated term is free and its rank
    is the whole invariant; a rank is ``None`` when a ``Q`` or ``R`` slot
    makes the term not finitely generated.  The total is not carried:
    ``verify`` recounts it from the tree."""

    __slots__ = ()


class InvDecision(namedtuple("InvDecision", Decision._fields + ("cuts",),
                             defaults=(None, {}, None, ()))):
    """A ``Decision`` of the invertible group, with the split sequence of
    every divided cut."""

    __slots__ = ()


def _free_at(tree: SpecTree) -> dict[str, bool]:
    """Whether the value group at each prime is free, in one pre-order
    pass: a prime's tower is its own edge on top of its parent's tower,
    and a tower is free exactly when each of its segments is
    (``ValueTower.is_free``, a count over its slots, read at each node)."""
    free = {tree.root.node_id: True}
    for node in tree.nodes():
        for child in node.children:
            free[child.node_id] = free[node.node_id] and child.label.is_free()
    return free


def _internal_gate(tree: SpecTree, free: dict[str, bool]) -> Certificate:
    """Check that every non-root branching point -- every internal node of
    the contraction -- has a free value group; this is the hypothesis of
    both cut recursions.  The certificate is empty when it holds; a failing
    node's tower holds a ``Q`` or ``R`` slot, a divisible witness: ``NotFree``."""
    for node in branching_points(tree):
        if node is tree.root or free[node.node_id]:
            continue
        return (
            CertStep.make("internal-gamma-not-free",
                          "the recursion requires a free value group at every "
                          "internal contraction node; the hypothesis fails here",
                          prime=node.node_id,
                          verdict=Verdict.NOT_FREE.value),)
    return ()


# steps met at every class sum, chain and cut; inputs sorted as in ``CertStep.make``
_CLASS_SUM = ("class-sum", "dependency classes of maximal ideals are complete, independent "
              "and locally finite, so the invertible group is the direct sum over the classes")
_VALUATION_INV_ISO = ("valuation-inv-iso", "every invertible ideal of a valuation ring is "
                      "principal, and principal ideals correspond to values: the "
                      "invertible group is the value group")
_DIVIDED_CUT = ("divided-cut", "the infimum of the maximal ideals is a divided prime; its "
                "free value group splits off: the invertible group is the quotient "
                "domain's group plus that value group")


def _decompose(tree: SpecTree, free: dict[str, bool]
               ) -> tuple[GroupExpr, list[CertStep], list[DividedCut], int, PrimeNode | None]:
    """The cut-and-sum recursion as one walk with an explicit stack on the
    nodes of ``tree`` itself, with the number of maximal ideals and the
    first of them, in pre-order, whose value group is not free (``free``,
    the map of ``_free_at``).  The root's class sum comes first; then each
    stack entry is a node with its sub-root: a child of the whole tree's
    root or of a divided prime, the top of one dependency class, walked
    down its unique-child spine to the only maximal ideal (a chain) or to
    the infimum of the maximal ideals, a divided prime.  A value group is
    measured from the sub-root, as a slot tuple that builds no
    ``ValueTower``: a node whose parent is its sub-root takes its own
    label, and a longer spine goes through ``_tower_below``.  Steps and
    cuts come out in pre-order.  A chain appends its tower and adds its
    free rank to the innermost open cut.  A divided cut pushes a close
    marker under its classes; when the marker pops, the cut records its
    quotient and step ranks (``None`` where a ``Q`` or ``R`` slot makes a
    term not finitely generated), appends its step tower after the
    quotient's summands and passes both ranks outward, where they add up.
    Each distinct tower is built, rendered and ranked once per call, and
    the steps met at every node are built straight from their constant
    fields.  The root's normal form is one ``normal_sum`` over the
    summands in order."""
    new = tuple.__new__
    sum_rule, sum_text = _CLASS_SUM
    chain_rule, chain_text = _VALUATION_INV_ISO
    cut_rule, cut_text = _DIVIDED_CUT
    steps: list[CertStep] = []
    cuts: list[DividedCut | None] = []
    summands: list[GroupExpr] = []
    towers: dict[tuple, tuple[GroupExpr, str, int | None]] = {}
    # the free ranks met so far inside each open cut's quotient, innermost
    # last; the bottom list holds the root's classes and is never read
    ranks: list[list[int | None]] = [[]]
    leaves, bad = 0, None
    root = tree.root
    kids = root.children
    if not kids:
        steps.append(CertStep.make("field-trivial", "a field has trivial ideal groups"))
    elif len(kids) > 1:
        steps.append(new(CertStep, (sum_rule, sum_text, (("classes", str(len(kids))),))))
    # (node, sub-root) entries and close markers (the cut's place in
    # ``cuts``, its prime, step tower and step rank)
    todo: list[tuple] = [(c, root) for c in reversed(kids)]
    while todo:
        entry = todo.pop()
        if len(entry) == 4:
            at, prime, tower_expr, rank = entry
            parts = ranks.pop()
            quotient = None if None in parts else sum(parts)
            cuts[at] = new(DividedCut, (prime, quotient, rank))
            summands.append(tower_expr)
            ranks[-1] += (quotient, rank)
            continue
        head, sub_root = entry
        node, kids = head, head.children
        while len(kids) == 1:
            node = kids[0]
            kids = node.children
        slots = node.label if node is head else _tower_below(tree, node, sub_root)
        known = towers.get(slots)
        if known is None:
            # a label is a ValueTower; the expression holds a plain tuple
            tower_expr = slots[0] if len(slots) == 1 else LexTower(tuple(slots))
            known = towers[slots] = (tower_expr, render_normal(tower_expr),
                                     len(slots) if slots.count(Z) == len(slots) else None)
        tower_expr, text, rank = known
        if not kids:
            leaves += 1
            if bad is None and not free[node.node_id]:
                bad = node
            steps.append(new(CertStep, (chain_rule, chain_text,
                                        (("maximal", node.node_id), ("value_group", text)))))
            summands.append(tower_expr)
            ranks[-1].append(rank)
            continue
        steps.append(new(CertStep, (cut_rule, cut_text,
                                    (("prime", node.node_id), ("value_group", text)))))
        steps.append(new(CertStep, (sum_rule, sum_text, (("classes", str(len(kids))),))))
        ranks.append([])
        todo.append((len(cuts), node.node_id, tower_expr, rank))
        cuts.append(None)
        todo.extend([(c, node) for c in reversed(kids)])
    return normal_sum(summands), steps, cuts, leaves, bad


def decide_inv_free(tree: SpecTree) -> InvDecision:
    """Decide freeness of the group of invertible ideals of the modeled
    domain, with a certificate and the emitted cut sequences.

    Under the internal-gamma hypothesis the decision reduces to the
    leaves: the group is free exactly when every maximal ideal's value
    group is free.  Both are read off one pre-order pass (``_free_at``),
    the gate in front of the walk and the leaves inside it; a value group
    is free or not free, never undecided."""
    free = _free_at(tree)
    gate_cert = _internal_gate(tree, free)
    if gate_cert:
        return InvDecision(Verdict.UNKNOWN, gate_cert, UNKNOWN)
    expr, steps, cuts, leaves, bad = _decompose(tree, free)
    if bad is not None:
        # the one root path walked in full: the witness trace of the first
        # maximal ideal whose value group is not free
        fv = freeness_verdict(gamma_at(tree, bad).to_expr())
        steps.append(CertStep.make(
            "leaf-gamma-not-free",
            "the decomposition shows the invertible group is free exactly "
            "when all maximal value groups are; this one is not",
            maximal=bad.node_id))
        steps += fv.certificate
        verdict = Verdict.NOT_FREE
    else:
        steps.append(CertStep.make(
            "all-leaf-gammas-free",
            "every maximal ideal's value group is free, so the decomposition "
            "exhibits the invertible group as a direct sum of free groups",
            leaves=leaves))
        verdict = Verdict.FREE
    return InvDecision(verdict, tuple(steps), expr, cuts=tuple(cuts))


def _class_counts(tree: SpecTree) -> dict[str, tuple[int, int]]:
    """The ``Z`` slots and the other slots of every node's subtree, its
    own edge included, in one reverse pre-order pass; the root's entry
    counts the whole tree."""
    counts: dict[str, tuple[int, int]] = {}
    for node in reversed(tree.nodes()):
        z = other = 0
        if node.label is not None:
            z = node.label.count(Z)
            other = len(node.label) - z
        for child in node.children:
            cz, co = counts[child.node_id]
            z += cz
            other += co
        counts[node.node_id] = (z, other)
    return counts


def _check_cut(tree: SpecTree, counts: dict[str, tuple[int, int]], cut: DividedCut) -> Check:
    # 0 → quotient → quotient ⊕ step → step → 0 is exact and split by
    # construction; what can fail is that the cut's total, its dependency class
    # recounted from the tree, is that sum: the class is the subtree at the top
    # of the unique-child chain above the cut prime
    label = f"cut-at-{cut.prime_id}"
    top = cut.prime_id
    parent = tree.parents[top]
    while parent is not tree.root and len(parent.children) == 1:
        top = parent.node_id
        parent = tree.parents[top]
    z, other = counts[top]
    if other or cut.quotient_rank is None or cut.step_rank is None:
        return label, True, "skipped: not finitely generated"
    return agree(label, cut.quotient_rank + cut.step_rank, z,
                 "exact and split on finitely generated stand-ins", "middle term mismatch")


def check_tree(tree: SpecTree) -> list[Check]:
    """``verify``'s checks of a tree: each divided cut of the invertible
    decision, and with no ``Q`` or ``R`` slot its rank, against the tree's
    own ``Z`` counts."""
    decision = decide_inv_free(tree)
    checks = [("decision-computed", True, decision.verdict.value)]
    counts = _class_counts(tree)
    checks.extend(_check_cut(tree, counts, cut) for cut in decision.cuts)
    slots, other = counts[tree.root.node_id]
    if not other:
        # every Decision.expr is a normal form: read it as it stands
        inv = normal_invariant_factors(decision.expr)
        rank = None if inv is None else inv.count(0)
        checks.append(agree("rank-matches-slots", rank, slots,
                            f"rank {rank} matches the slot count",
                            f"rank {rank} != slot count {slots}"))
    return checks


# ---------------------------------------------------------------------------
# Divisorial-ideal decision
# ---------------------------------------------------------------------------

def decide_div_free(tree: SpecTree) -> Decision:
    """Decide freeness of the group of divisorial ideals.

    Requires every maximal ideal branched and the internal-gamma
    hypothesis; then the group is free exactly when every maximal ideal
    is finitely generated, detected as a discrete (Z) top slot of the
    composed tower.  A non-discrete top slot picks up a real summand in
    the corresponding valuation ring, and that leaf is returned as
    ``metadata["witness_leaf"]``."""
    if not tree.root.children:
        return Decision(Verdict.FREE, (
            CertStep.make("field-trivial", "a field has trivial ideal groups"),))
    leaves = tree.leaves()
    unbranched = [l.node_id for l in leaves if not l.branched]
    if unbranched:
        return Decision(Verdict.UNKNOWN, (
            CertStep.make("unbranched-maximal",
                          "the divisorial recursion handles only branched maximal "
                          "ideals; no verdict for this input",
                          maximal=unbranched[0]),))
    gate_cert = _internal_gate(tree, _free_at(tree))
    if gate_cert:
        return Decision(Verdict.UNKNOWN, gate_cert)
    for leaf in leaves:
        if not finitely_generated_maximal(leaf):
            below = gamma_at(tree, leaf).root_segment(1).to_expr()
            witness_expr = direct_sum(R, below)
            return Decision(Verdict.NOT_FREE, (
                CertStep.make("nonprincipal-maximal-div",
                              "this maximal ideal is not finitely generated "
                              "(non-discrete top slot); its local divisorial group "
                              "is R plus the value group one step down, hence not "
                              "free, and the recursion propagates that",
                              maximal=leaf.node_id,
                              local_div=render_expr(witness_expr)),),
                metadata={"witness_leaf": leaf.node_id})
    return Decision(Verdict.FREE, (CertStep.make(
        "all-maximals-finitely-generated",
        "every maximal ideal has a discrete top slot, so it is finitely "
        "generated and each local divisorial group equals the (free) value "
        "group; the cut-and-sum recursion makes the whole group free",
        leaves=len(leaves)),))


# ---------------------------------------------------------------------------
# Strongly discrete trees
# ---------------------------------------------------------------------------

def strongly_discrete_decide(tree: SpecTree, codim_finite: bool,
                             locally_finite: bool) -> Decision:
    """Freeness for strongly discrete trees (every slot discrete, i.e. no
    idempotent primes).

    ``codim_finite`` declares that only finitely many primes fail to have
    maximal height, and ``locally_finite`` that the domain is locally
    finite.  With either flag the answer is ``Free``; otherwise the
    question is open and the verdict stays ``Unknown`` -- this procedure
    never answers ``NotFree``."""
    # slots are Z, Q or R, so a label is free exactly when all Z; asked once per label
    if not all(t.is_free() for t in {n.label for n in tree.nodes()[1:]}):
        return Decision(Verdict.UNKNOWN, (
            CertStep.make("not-strongly-discrete",
                          "a non-discrete slot means an idempotent prime; the "
                          "strongly discrete rule does not apply"),))
    if codim_finite:
        return Decision(Verdict.FREE, (
            CertStep.make("strongly-discrete-finite-codim",
                          "with only finitely many primes below maximal height, "
                          "induction over divided cuts of discrete steps keeps "
                          "every piece free"),))
    if locally_finite:
        return Decision(Verdict.FREE, (
            CertStep.make("strongly-discrete-locally-finite",
                          "a locally finite strongly discrete domain has free "
                          "invertible group: every chain of discrete steps is a "
                          "free tower and the family is locally finite"),))
    return Decision(Verdict.UNKNOWN, (
        CertStep.make("strongly-discrete-open",
                      "whether every strongly discrete domain of this kind has a "
                      "free invertible group is an open conjecture; no verdict"),))


# ---------------------------------------------------------------------------
# The question of an instance
# ---------------------------------------------------------------------------

def decide_tree(tree: SpecTree, question: str, locally_finite: bool, codim_finite: bool,
                t_finite_character: bool | None) -> Decision:
    """Decide a ``prufer_tree`` instance's ``question``, ``"inv"``, ``"div"`` or
    ``"strongly_discrete"``; a declared ``t_finite_character`` goes into
    ``metadata`` and extends the ``inv`` certificate to t-invertible ideals."""
    if question == "div":
        d = decide_div_free(tree)
    elif question == "strongly_discrete":
        d = strongly_discrete_decide(tree, codim_finite, locally_finite)
    else:
        d = decide_inv_free(tree)
        if t_finite_character:
            d = d._replace(certificate=d.certificate + (CertStep.make(
                "t-coincides-with-d",
                "on these trees the t-closure is the identity closure, so "
                "the verdict applies verbatim to t-invertible ideals"),))
    if t_finite_character:
        d = d._replace(metadata={"t_finite_character": True, **d.metadata})
    return d
