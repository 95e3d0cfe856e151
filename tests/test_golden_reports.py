"""Golden digests of the CLI reports.

Each digest is the sha256 of the canonical JSON of one instance's
``decide_payload`` report, rendered with the rule-only and the full
trace, and of its ``verify_payload`` checks, with ``elapsed_ms`` set to 0.
They cover every file of ``instances/`` and every payload of the built-in
corpus.  The digests were recorded before the deciders moved to one
decision record and the CLI to one dispatch table, so any change to a
verdict, a certificate, a metadata field or a check shows up here.  The
digests of the two ``ses`` instances, the snake ladder with a nonzero
``ker h`` and the finite and opaque conductor-data instances were
recorded before ``freeness_verdict`` and the conductor-data decider
returned ``Decision`` and before ``verify`` read a diagram's check
detail off its decision.  The digest of ``two_branches_opaque_char2.json``
was re-recorded when its residue units ``U(K)`` became ``free=yes``: a
subgroup of a branch's free unit group is free.  The digests of the four
``ses`` instances (``ses_split.json``, ``ses_nonsplit.json``,
``ses_split_torsion_quotient.json`` and
``ses_nonsplit_torsion_quotient.json``) were re-recorded when the
``split-test`` statement came to describe the lift of the right term one
cyclic factor at a time, the way the split test finds a section; nothing
else in those reports changed.  The digest of
``f4_opaque_branches_char2.json`` was added when the conductor-data
verdict came to be read off the report's own expression; it was
recorded at that change, and no other digest was re-recorded then.
The digests of ``two_branches_char3.json`` and of the corpus case
``two-branches-char-three`` were re-recorded when ``verify`` came to
check every finite-field unit quotient against the integer engine's
cokernel: their ``amalgam-crosscheck`` detail went from skipped to
``matches the amalgamated-quotient computation``, and nothing else in
those reports changed.  The ten instances added so that every statement
runs on some input (``scripts/line_reach.py``) had their digests
recorded from the source before the branches that no input reaches
were deleted.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from igl import cli, valgroup
from igl.corpus import CASES
from igl.errors import IglError
from oracles import parse_expr

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"


def digest(payload: dict, name: str) -> str:
    report = cli.decide_payload(payload, name)
    report.elapsed_ms = 0
    record = {"rules": report.to_dict(False), "full": report.to_dict(True),
              "verify": cli.verify_payload(payload, name)}
    return hashlib.sha256(cli.canonical_json(record).encode("utf-8")).hexdigest()


# file name -> digest
INSTANCE_DIGESTS = {
    "amalgam_two_planes.json": "ed089aa1b82451dd745678c2b605ce5688bad28408f873ecf86c453adffca05c",
    "dedekind.json": "665b169239a273f88d0867034eeb517d206092453dd9fb78ff9ee8699490c754",
    "div_tree_finitely_generated.json": "4598dbd4eaffd8610d84ee8a8849a1b48c6868ce14b1151136c83ebcb93c8c1f",
    "div_tree_rational_branch_point.json": "e7e9409810408b369e8c833e3ec0f62bc33c436004736aab24fbb692be01d495",
    "divisorial_nonprincipal.json": "3b92a840f503fff57670ec95104a1b747f90f9db3e380675fb606fb383a3ae7b",
    "dvr.json": "3145b790f96d8a13e77a97a2f0309233ec9ca16394a5d1c475ecc77f687cd76f",
    "f2_f4_one_branch.json": "6a206fae21818300b42e833e2c0622f20aeaaeca92c06cc00ef50a3bd7b229d0",
    "f2_f4_two_branches.json": "df2fd188b5730d48a78f52553d8cbd0b0f69d4d62b9c2e80252f47af04c9dc36",
    "f2_opaque_branches_free.json": "c225b5c21253326144fec3578614033e61073e8d676f5fe61724c3e2bcfab65b",
    "f53_f2809_one_branch.json": "0bee83115cb488d524df6d633e060066e5aa0c517dc3f1477e8a0132ae8fbabc",
    "f4_opaque_branches_char2.json": "0e676ffc0558bc19b39eb48df391db268154cbadcfec7ae700be06f4f65806f5",
    "f2_function_fields.json": "8efd53ad582e8979f32dd9500211b51d57d81a044316871c502f66ee240f56a7",
    "integrally_closed_curve.json": "1bd9d380e6e0e58f0eef86e71fcbfe430aca9619f31aecdcd7b346b6bc1a70dd",
    "monomial_curve.json": "90de9613b503327415d4f01c4df4a1818848b241130cf8dd997bd33d8559cbc2",
    "nonlocal_monomial_curve.json": "4118995238b48546dac4c53c55ca67ac6cb53cdf3315e418d5642ffc3c924cbc",
    "opaque_branch_declared_not_free.json": "ab718b1e6ad31fd66b2b9c6421395bed503ec204fed3fb00c713cd36d9f7f6ea",
    "pullback_totally_real.json": "aa3c3ce23539f0d6d489506ccfdb587d37ac36036c57bc5acf3cdb21c758a4f6",
    "rank_two_valuation.json": "7caafb88456cedce9fcdb943621e0ebd8284f83f2c9fa4e3b3e9ff8fc7266cde",
    "scattered_obstruction.json": "6c595c878bbe53b4eff10659014afa38ee085c3f1890e99665a6350ff0deb70c",
    "scattered_omega.json": "265895e9e855786a6eab940368f3bb7cd710f6abba04eacf742d83b3674843ea",
    "scattered_omega_squared.json": "7053c086686bce5482e5c89363e185caa464ddd5e7186b15fb6744fcd9edc187",
    "ses_nonsplit.json": "1c88f4d39a824642806176c483141ad6f6784239125f059e7e8b21233243abc2",
    "ses_nonsplit_torsion_quotient.json": "58c5eefbc1a22ec4d03b8cdd0b89cbcade85455ed745288c144b41cddca55f04",
    "ses_split.json": "ec07a776f7f1dfc9a99a5eeb29c276f95477a14303277bff7964bc1db469c258",
    "ses_split_redundant_generator.json": "0fc9947eed2f2bc6b8c85be568a86327e1f3b0413e195e8dab5fab30a04dcbd3",
    "ses_split_torsion_quotient.json": "123a324c65efbe574dfe1c2b2ab80d02b7feae447654f1e7eddcb02778b7940e",
    "snake_ladder.json": "a3c596428254b9a398617db7d75db341929061670720df455d17a87332ca644e",
    "snake_ladder_kernel.json": "0c58f4f7e5b600337c0a0df37999f4214515eeecc5e3c65b765b287c6f1c8238",
    "strongly_discrete_tree.json": "dbb578cca9a5755b888ee2ac6047c9c669e9cc37d8337462c9f45383420f5eea",
    "torsion_group.json": "0d5a77a1a899a64337e02afe94e906195c343a4245276cfa5eea490f79fd1895",
    "two_branches_char3.json": "c1aa4ba98a7ca6f329b3cb88bd866b2842349fa4cae924118beb36b368646bf3",
    "two_branches_opaque_char2.json": "ec0d1186e6c8e22137f299368cde4f5cea58ffd8203edf42d3a4365d880a296c",
    "two_opaque_branches_char3.json": "593d26f3bf11d3a6f2119f365b5005bcce2957b527fe9115e0b7fb507ad2720a",
    "y_tree.json": "fa1532ad08d6b94d4afa6874c8308e5e1ec44db0b2093bfd5bce772d08e2853a",
    "y_tree_rational_trunk.json": "f14c20be2a145768e7497cebacf306caf5dce09ff434fc9add51ad2e7706c72c",
    "y_tree_t_finite_character.json": "06eb3ba321297a231e626405c4a5a9aeec1571aa6133ed113f9f5bb2776f041a",
}

# corpus case name -> digest
CORPUS_DIGESTS = {
    "dvr": "bd93eb44739012b4d3eb7d108b76bb284d3ab2ca8ca3b53f66750449a64a8de7",
    "rank-two-discrete-tower": "17640d884c150cdfc8b20d6d0b858c0d78be3f0579b6176d3467de9ee9e8636c",
    "rational-value-group": "78b1a89534aa770bdff3a9fdea79d54b513fa8a031c0b6772fc87a75ff141906",
    "divisorial-nonprincipal-maximal": "12759e6c631b51bfeb04cca56fbac082d866b4483c07c9cde4a5d4003265bc17",
    "divisorial-principal-maximal": "688367a471d8c65ae5db5d2983e828c19c1408faf87fe293a6da604832da1ba1",
    "y-tree-all-discrete": "df5aff895f254239672a90128be8402f677ad9134049ce2d28eb521cc140d245",
    "y-tree-rational-trunk": "f14c20be2a145768e7497cebacf306caf5dce09ff434fc9add51ad2e7706c72c",
    "chain-divisorial-rational-top": "cde8721e6d596eb9d3a0ab9fd328773a825f3f38f8236e04640afe0c69625292",
    "strongly-discrete-chain": "a6ed7c6be02e3e3b01d687c207c00210e102b9aeda0e813116f05f502bb271c9",
    "monomial-curve-cusp": "8792b20c9bd4f59edd7c95312e9e1becd5f1d75448761318b732b9b50ceaf297",
    "pullback-totally-real-cubic": "df7c7f508aa5eeee3726d8391edc9473cd355dbad62a04da4fa6bfb4b9f872b5",
    "function-field-square-pullback": "80cbecafa307b40024427094b16771f23819e3a54f928f685eb4da2fcd0216b0",
    "two-branches-char-three": "40cca39a4c7e1ee16bba70aad6b1d5f0be3bea1fb45498bf5184b4a53d4494d7",
    "two-branches-all-f2": "7face63d65eaa481f1035d710064f27c5f266cbcfbc935a0b3b9243708102852",
    "dedekind": "665b169239a273f88d0867034eeb517d206092453dd9fb78ff9ee8699490c754",
    "omega-interval-all-discrete": "feeb1a1a5a77415dbf640b733861e3939b3105f7657fba4969a09dbc2c385e42",
    "omega-interval-rational-limit": "e19336ccece790cffb812cacdfd6c2bdd4e23d9c509735571fe32f416f21a315",
    "finite-family-with-torsion-label": "ced9e09b7b4825db3eefbd080d28d21ef614a29112cd53790f6839fe319d5d31",
}


@pytest.mark.parametrize("path", sorted(INSTANCES.glob("*.json")), ids=lambda p: p.name)
def test_instance_reports_match_golden(path):
    # a new instance file needs its digest recorded here
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert digest(payload, payload.get("name", path.stem)) == INSTANCE_DIGESTS[path.name]


@pytest.mark.parametrize("case", [c for c in CASES if c.payload is not None],
                         ids=lambda c: c.name)
def test_corpus_reports_match_golden(case):
    assert digest(case.payload, case.name) == CORPUS_DIGESTS[case.name]


def test_every_decision_expression_is_a_normal_form():
    # the report renders ``Decision.expr`` without normalizing it again
    payloads = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(INSTANCES.glob("*.json"))]
    payloads += [c.payload for c in CASES if c.payload is not None]
    kinds = set()
    for payload in payloads:
        kind = cli.validate_envelope(payload)
        d = cli.KINDS[kind][0](payload)
        if d.expr is not None:
            kinds.add(kind)
            assert valgroup.normalize(d.expr) == d.expr, payload
    # a krull decision carries no expression
    assert kinds == set(cli.KINDS) - {"krull"}


def test_every_report_decides_to_its_own_verdict():
    """The freeness rules on a report's parsed expression give the report's
    verdict, over every instance file, corpus payload and seed-5 instance of
    the benchmark generator.  The expression of a report is its group; a
    scattered report's expression is the candidate sum of its stage groups,
    which is free exactly when the verdict is ``DirectSumFree``.  Only
    reports without an expression are left out."""
    sys.path.append(str(ROOT / "bench"))
    import gen

    named = [(p.stem, json.loads(p.read_text(encoding="utf-8")))
             for p in sorted(INSTANCES.glob("*.json"))]
    named += [(c.name, c.payload) for c in CASES if c.payload is not None]
    for workload in gen.WORKLOADS:
        named += sorted(gen.make_requests(workload, 5)[0].items())
    kinds = set()
    for name, payload in named:
        try:
            report = cli.decide_payload(payload, name)
        except IglError:
            continue
        if report.expr is None:
            continue
        kinds.add(report.kind)
        got = valgroup.freeness_verdict(parse_expr(report.expr)).verdict.value
        if report.kind == "scattered_space":
            expected = "Free" if report.verdict == "DirectSumFree" else "NotFree"
        else:
            expected = report.verdict
        assert got == expected, (name, report.verdict, report.expr)
    assert kinds == set(cli.KINDS) - {"krull"}
