"""Golden digests of the spectral-tree decisions.

Each digest is the sha256 of the canonical JSON of ``decide_inv_free`` and
``decide_div_free`` on a family of trees: verdict, rendered expression and
its structure, the full certificate, each divided cut as its prime and
the free ranks of its quotient and step (``None`` where a term is not
finitely generated), and the leaf verdicts.  The digests were recorded
before the tree and expression layers were reworked for speed, and
re-recorded when cuts came to carry ranks instead of expressions, so any
change to a verdict, a certificate, a cut or a rendered group shows up
here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from igl import cli
from igl.prufer import decide_div_free, decide_inv_free
from igl.valgroup import render_expr
from oracles import all_parent_vectors, random_tree, tree_from_parents

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def decision_record(tree) -> dict:
    inv = decide_inv_free(tree)
    div = decide_div_free(tree)
    return {
        "inv": {
            "verdict": inv.verdict.value,
            "expr": render_expr(inv.expr),
            "expr_repr": repr(inv.expr),
            "certificate": [s.as_dict(True) for s in inv.certificate],
            "cuts": [[c.prime_id, c.quotient_rank, c.step_rank] for c in inv.cuts],
            "leaf_verdicts": [[lid, v.value] for lid, v in inv.leaf_verdicts],
        },
        "div": {
            "verdict": div.verdict.value,
            "certificate": [s.as_dict(True) for s in div.certificate],
            "witness_leaf": div.metadata.get("witness_leaf"),
        },
    }


def digest(trees) -> str:
    records = [decision_record(t) for t in trees]
    return hashlib.sha256(cli.canonical_json(records).encode("utf-8")).hexdigest()


# node count -> digest over every tree of ``all_parent_vectors(n)``
ENUMERATED = {
    1: "e4a9f324b36c301d454c8308df733d743943497fe9f8d9b9c798813cba1eb201",
    2: "ecdf04620574d16c447021c1aabab4a3157721837698b0018bcebd6d28488181",
    3: "c8ffbf24ee8e9674272fa4800b3c43bd2096e5354afe309908bba0fd0afaf221",
    4: "14b101727013392b584f4ff3a92b7c2c0fdbb71acb554d6674fbcb00446e1d68",
    5: "b29ff725a0a7de303eddd12cdf2353b1e7802232e789e645bd90f7077eab57da",
    6: "f4146cae995e4448d9017eb2a4c3bc6fb9e92e6d606917d815667cb73cd99df8",
    7: "a8c514f055eabacfd182ba8460664c5094e30a8c1cd253803603e24b30365b98",
}

# every ``prufer_tree`` file of ``instances/``
INSTANCE_DIGESTS = {
    "strongly_discrete_tree.json": "763cf3fe39df7c9c82cfba1fde25b4621cf5065444855ea8279c27fa7dd722fa",
    "y_tree.json": "962c89cf708adfe804c930f58e4948da2b2b6fa39bf92a07b3f37a3bb039ef9f",
    "y_tree_rational_trunk.json": "0e31c5fb2ac6d6adef026fd68d997b8112461b4401f180eec2098f9fca445932",
}

RANDOM_DIGEST = "6f75411631d6cf29114f50e3620ed6f05ed712e9527b9b4ef2c82d07b76b590a"


@pytest.mark.parametrize("n", sorted(ENUMERATED))
def test_enumerated_trees_match_golden(n):
    trees = [tree_from_parents(p) for p in all_parent_vectors(n)]
    assert digest(trees) == ENUMERATED[n]


@pytest.mark.parametrize("name", sorted(INSTANCE_DIGESTS))
def test_instance_trees_match_golden(name):
    # a new prufer_tree instance needs its digest recorded here
    payload = json.loads((INSTANCES / name).read_text(encoding="utf-8"))
    assert digest([cli.parse_prufer(payload)[0]]) == INSTANCE_DIGESTS[name]


def random_trees():
    # Q slots and two-slot labels reach the NotFree and Unknown branches
    return [random_tree(random.Random(seed), max_nodes=14, q_prob=0.3)
            for seed in range(150)]


def test_random_trees_match_golden():
    assert digest(random_trees()) == RANDOM_DIGEST
