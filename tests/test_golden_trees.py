"""Golden digests of the spectral-tree decisions.

Each digest is the sha256 of the canonical JSON of ``decide_inv_free`` and
``decide_div_free`` on a family of trees: verdict, rendered expression and
its structure, the full certificate, each divided cut as its prime and
the free ranks of its quotient and step (``None`` where a term is not
finitely generated).  The digests were recorded before the tree and
expression layers were reworked for speed, re-recorded when cuts came to
carry ranks instead of expressions, and again when the decision stopped
carrying leaf verdicts (the new digests equal the old records with that
key dropped), so any change to a verdict, a certificate, a cut or a
rendered group shows up here.  An instance file's digest also covers the
file's own ``decide_tree`` decision (verdict, expression, certificate and
metadata), so two files with one tree and different questions or
declarations get different digests.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from igl import cli
from igl.prufer import decide_div_free, decide_inv_free, decide_tree
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
        },
        "div": {
            "verdict": div.verdict.value,
            "certificate": [s.as_dict(True) for s in div.certificate],
            "witness_leaf": div.metadata.get("witness_leaf"),
        },
    }


def file_record(payload: dict) -> dict:
    """The file's own decision, under its question and declarations: a
    ``div`` decision has no expression where ``inv``'s is ``?``."""
    d = decide_tree(*cli.parse_prufer(payload))
    return {"verdict": d.verdict.value,
            "expr": None if d.expr is None else render_expr(d.expr),
            "certificate": [s.as_dict(True) for s in d.certificate],
            "metadata": d.metadata}


def sha(records: list) -> str:
    return hashlib.sha256(cli.canonical_json(records).encode("utf-8")).hexdigest()


def digest(trees) -> str:
    return sha([decision_record(t) for t in trees])


# node count -> digest over every tree of ``all_parent_vectors(n)``
ENUMERATED = {
    1: "c44f9d586bd96d844e43ab96586e65d442b5c32cb9b24bd37ac83571631e1a5d",
    2: "5f0725c6b7915e8692990e2645457cae74ad2f07f47b7d6333c54750611c2ddd",
    3: "75b4bad68ae09ac6e2000328fe910a12bfc173e8614ff46ed7f51dd77094d995",
    4: "b6d46121e60d02af4b7f060576268a88bb88e803b3764685059f5ec3701305f2",
    5: "9ea0761cb388d83e9ef97d9222857bda1fef67ade50a4ea5850334c782950aab",
    6: "52291b486cbfa2e10a23b3a4e1be45494964763a3206aaee7135e13c5af43914",
    7: "67be789c0ebb728c195e298cb9f0d7bc6e83b4699c23a21e5c68971e649fb873",
}

# every ``prufer_tree`` file of ``instances/``: its tree's record, then the
# file's own decision, so files with one tree and different questions differ
INSTANCE_DIGESTS = {
    "div_tree_finitely_generated.json": "876bfbfa6e0a31d18756dd44a0f21281585d9c654b74944a75e12979031541bc",
    "div_tree_rational_branch_point.json": "837d1ec37c06bd0246b575729039cc168b6ba6271f170cc0b63cf52167022f8e",
    "strongly_discrete_tree.json": "9aef6e68995c6f1a63ced7dc1264eb10af66fac6526797ed3018d42c66ddc188",
    "y_tree.json": "f4b3b9b9e94e42d432b8b11ee7b302338bf5b037a1c61f86f9d15430dd2e61a0",
    "y_tree_rational_trunk.json": "02cebc08faf564e884baa1e782ccc1fd3f3e0558c2e4c3acd15fae1fdd486a36",
    "y_tree_t_finite_character.json": "9fec645794e6b46c9b51e06b0cdcd7f2bb5a382c9cd8208793b5cc10da614175",
}
TREE_FILES = sorted(f.name for f in INSTANCES.glob("*.json")
                    if json.loads(f.read_text(encoding="utf-8"))["kind"] == "prufer_tree")

RANDOM_DIGEST = "5789af78cac70e1612a6bd5e350dde0543d2e6f20c12cbccdc8f79a4adcdf4aa"


@pytest.mark.parametrize("n", sorted(ENUMERATED))
def test_enumerated_trees_match_golden(n):
    trees = [tree_from_parents(p) for p in all_parent_vectors(n)]
    assert digest(trees) == ENUMERATED[n]


@pytest.mark.parametrize("name", TREE_FILES)
def test_instance_trees_match_golden(name):
    # a new prufer_tree instance needs its digest recorded here
    payload = json.loads((INSTANCES / name).read_text(encoding="utf-8"))
    tree = cli.parse_prufer(payload)[0]
    assert sha([decision_record(tree), file_record(payload)]) == INSTANCE_DIGESTS[name]


def random_trees():
    # Q slots and two-slot labels reach the NotFree and Unknown branches
    return [random_tree(random.Random(seed), max_nodes=14, q_prob=0.3)
            for seed in range(150)]


def test_random_trees_match_golden():
    assert digest(random_trees()) == RANDOM_DIGEST
