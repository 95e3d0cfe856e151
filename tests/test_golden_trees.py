"""Golden digests of the spectral-tree decisions.

Each digest is the sha256 of the canonical JSON of ``decide_inv_free`` and
``decide_div_free`` on a family of trees: verdict, rendered expression and
its structure, the full certificate, the cut sequences and the leaf
verdicts.  The digests were recorded before the tree and expression layers
were reworked for speed, so any change to a verdict, a certificate or a
rendered group shows up here.
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
            "cuts": [[c.prime_id, render_expr(c.quotient_expr),
                      render_expr(c.step_expr), render_expr(c.total_expr)]
                     for c in inv.cuts],
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
    4: "1fa2b3c0dfe0cfdc18b9ad4c3287e9eef44b3add43e82a28f5c8827ca94c9e61",
    5: "ed2c1cb8df5c759d9cde6c20281df547b359e36048be5e3e8bc6f0792a845305",
    6: "0ad0d8a9758522b2b587ee9f8563c1f0347ecdc14dfeec662d9350ad966ca370",
    7: "3c40697ffb0faa51a261fcba7cd55efb4b57fc8d5c1aea9cbee2d302d5bc898c",
}

# every ``prufer_tree`` file of ``instances/``
INSTANCE_DIGESTS = {
    "strongly_discrete_tree.json": "f93e9fdfde7568d4aef5b40a205bff6c7dfb50f37862f46234afac96d0776fcd",
    "y_tree.json": "29eaa7f67dab8c25cacbb9ce70253131f5be5c395079b6b89393631f5eab2366",
    "y_tree_rational_trunk.json": "0e31c5fb2ac6d6adef026fd68d997b8112461b4401f180eec2098f9fca445932",
}

RANDOM_DIGEST = "76bfd05ef31af3c75ea86c46150c85dc9f7bca18d7d9e95b6fee358294b53183"


@pytest.mark.parametrize("n", sorted(ENUMERATED))
def test_enumerated_trees_match_golden(n):
    trees = [tree_from_parents(p) for p in all_parent_vectors(n)]
    assert digest(trees) == ENUMERATED[n]


@pytest.mark.parametrize("name", sorted(INSTANCE_DIGESTS))
def test_instance_trees_match_golden(name):
    # a new prufer_tree instance needs its digest recorded here
    payload = json.loads((INSTANCES / name).read_text(encoding="utf-8"))
    assert digest([cli.parse_prufer(payload)["tree"]]) == INSTANCE_DIGESTS[name]


def random_trees():
    # Q slots and two-slot labels reach the NotFree and Unknown branches
    return [random_tree(random.Random(seed), max_nodes=14, q_prob=0.3)
            for seed in range(150)]


def test_random_trees_match_golden():
    assert digest(random_trees()) == RANDOM_DIGEST
