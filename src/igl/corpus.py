"""Built-in worked examples with recorded expected outcomes.

``igl selftest`` runs every case and compares against the expectations
recorded here.  Most cases are ordinary instance payloads (the same
schemas the CLI reads from files); a few exercise library-level rules
that have no file format, through small callables.
"""

from __future__ import annotations

from collections import namedtuple

from . import scattered, valgroup
from .errors import MalformedTraceError
from .scattered import Ordinal


# ``payload`` is an instance the CLI decides; ``direct``, for a rule with no
# file format, is a callable returning the outcome text instead
CorpusCase = namedtuple("CorpusCase", "name expected payload expected_expr direct",
                        defaults=(None, None, None))


def _check_infinite_product() -> str:
    return valgroup.freeness_verdict(valgroup.ZPROD).verdict.value


def _check_rationals() -> str:
    return valgroup.freeness_verdict(valgroup.Q).verdict.value


def _check_unbranched_steps() -> str:
    res = valgroup.unbranched_valuation_verdict([valgroup.Z, valgroup.Z, valgroup.Z], True)
    return res.verdict.value


def _check_escape_successor() -> str:
    w = Ordinal.omega_power(1)
    trace = [(Ordinal.zero(), True), (w, True), (w.successor(), False)]
    return scattered.escape_index(trace).render()


def _check_escape_limit_rejected() -> str:
    w = Ordinal.omega_power(1)
    trace = [(Ordinal.zero(), True), (Ordinal.from_int(5), True), (w, False)]
    try:
        scattered.escape_index(trace)
    except MalformedTraceError:
        return "rejected"
    return "accepted"


CASES: list[CorpusCase] = [
    # valuation rings
    CorpusCase(
        name="dvr",
        payload={"v": 1, "kind": "valuation", "tower": ["Z"]},
        expected="Free", expected_expr="Z"),
    CorpusCase(
        name="rank-two-discrete-tower",
        payload={"v": 1, "kind": "valuation", "tower": ["Z", "Z"]},
        expected="Free", expected_expr="lex(Z;Z)"),
    CorpusCase(
        name="rational-value-group",
        payload={"v": 1, "kind": "valuation", "tower": ["Q"]},
        expected="NotFree", expected_expr="Q"),
    CorpusCase(
        name="divisorial-nonprincipal-maximal",
        payload={"v": 1, "kind": "valuation", "tower": ["Q", "Z"],
                 "group": "div", "maximal_principal": False},
        expected="NotFree", expected_expr="R ⊕ Z"),
    CorpusCase(
        name="divisorial-principal-maximal",
        payload={"v": 1, "kind": "valuation", "tower": ["Z"],
                 "group": "div", "maximal_principal": True},
        expected="Free", expected_expr="Z"),
    # spectral trees
    CorpusCase(
        name="y-tree-all-discrete",
        payload={"v": 1, "kind": "prufer_tree",
                 "root": {"id": "0", "children": [
                     {"id": "P", "label": ["Z"], "children": [
                         {"id": "M1", "label": ["Z"]},
                         {"id": "M2", "label": ["Z"]}]}]}},
        expected="Free", expected_expr="Z^3"),
    CorpusCase(
        name="y-tree-rational-trunk",
        payload={"v": 1, "kind": "prufer_tree",
                 "root": {"id": "0", "children": [
                     {"id": "P", "label": ["Q"], "children": [
                         {"id": "M1", "label": ["Z"]},
                         {"id": "M2", "label": ["Z"]}]}]}},
        expected="Unknown"),
    CorpusCase(
        name="chain-divisorial-rational-top",
        payload={"v": 1, "kind": "prufer_tree", "question": "div",
                 "root": {"id": "0", "children": [
                     {"id": "P", "label": ["Z"], "children": [
                         {"id": "M", "label": ["Q"]}]}]}},
        expected="NotFree"),
    CorpusCase(
        name="strongly-discrete-chain",
        payload={"v": 1, "kind": "prufer_tree", "question": "strongly_discrete",
                 "codim_finite": True,
                 "root": {"id": "0", "children": [
                     {"id": "P", "label": ["Z"], "children": [
                         {"id": "M", "label": ["Z"]}]}]}},
        expected="Free"),
    # conductor data
    CorpusCase(
        name="monomial-curve-cusp",
        payload={"v": 1, "kind": "noeth_local",
                 "k": {"opaque": {"label": "K", "characteristic": 0}},
                 "branches": [{"L": {"opaque": {"label": "K", "characteristic": 0}},
                               "e": 2}]},
        expected="NotFree"),
    CorpusCase(
        name="pullback-totally-real-cubic",
        payload={"v": 1, "kind": "noeth_local",
                 "k": {"opaque": {"label": "Q", "characteristic": 0}},
                 "branches": [{"L": {"opaque": {"label": "Q(z7+1/z7)",
                                                "characteristic": 0,
                                                "quotient_free": True}},
                               "e": 1}]},
        expected="Free"),
    CorpusCase(
        name="function-field-square-pullback",
        payload={"v": 1, "kind": "noeth_local",
                 "k": {"opaque": {"label": "F2(X^2)", "characteristic": 2}},
                 "branches": [{"L": {"opaque": {"label": "F2(X)", "characteristic": 2,
                                                "quotient_free": False}},
                               "e": 1}]},
        expected="NotFree"),
    CorpusCase(
        name="two-branches-char-three",
        payload={"v": 1, "kind": "noeth_local",
                 "k": {"finite": {"p": 3, "r": 1}},
                 "branches": [{"L": {"finite": {"p": 3, "r": 2}}, "e": 1},
                              {"L": {"finite": {"p": 3, "r": 2}}, "e": 1}]},
        expected="NotFree"),
    CorpusCase(
        name="two-branches-all-f2",
        payload={"v": 1, "kind": "noeth_local",
                 "k": {"finite": {"p": 2, "r": 1}},
                 "branches": [{"L": {"finite": {"p": 2, "r": 1}}, "e": 1},
                              {"L": {"finite": {"p": 2, "r": 1}}, "e": 1}]},
        expected="Free"),
    CorpusCase(
        name="dedekind",
        payload={"v": 1, "kind": "krull", "variant": "dedekind"},
        expected="Free"),
    # scattered spaces
    CorpusCase(
        name="omega-interval-all-discrete",
        payload={"v": 1, "kind": "scattered_space", "bound": "w",
                 "labels": {"0": ["Z"], "1": ["Z"]}},
        expected="DirectSumFree", expected_expr="Z^(w) ⊕ Z"),
    CorpusCase(
        name="omega-interval-rational-limit",
        payload={"v": 1, "kind": "scattered_space", "bound": "w",
                 "labels": {"0": ["Z"], "1": ["Q"]}},
        expected="Obstructed"),
    CorpusCase(
        name="finite-family-with-torsion-label",
        payload={"v": 1, "kind": "scattered_space", "bound": "3",
                 "labels": {"0": ["Q"]}},
        expected="DirectSum"),
    # library-level rules without a file format
    CorpusCase(name="infinite-product-of-integers", expected="NotFree",
               direct=_check_infinite_product),
    CorpusCase(name="rationals-not-free", expected="NotFree",
               direct=_check_rationals),
    CorpusCase(name="unbranched-steps-assemble-basis", expected="Free",
               direct=_check_unbranched_steps),
    CorpusCase(name="escape-at-successor-stage", expected="w+1",
               direct=_check_escape_successor),
    CorpusCase(name="escape-at-limit-stage-rejected", expected="rejected",
               direct=_check_escape_limit_rejected),
]
