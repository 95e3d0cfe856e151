"""The benchmark's own tests.  Run from the root of a checkout with

    python3 -m pytest -q bench/checks.py

(the file name keeps them out of the repository's default test run).
"""

from __future__ import annotations

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

EXACT_SUFFIXES = (".calls", ".max_entry_bits", ".max_dim", "nodes_visited", "node_lookups")


def _texts(workload, seed):
    files, requests = gen.make_requests(workload, seed)
    return {name: gen.instance_text(p) for name, p in files.items()}, requests


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_instances(workload):
    a, ra = _texts(workload, 7)
    b, rb = _texts(workload, 7)
    assert a == b
    assert [(r.op, r.file, r.expect) for r in ra] == [(r.op, r.file, r.expect) for r in rb]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_changes_instances_not_size_mix(workload):
    a, ra = _texts(workload, 7)
    b, rb = _texts(workload, 8)
    assert sorted(a) == sorted(b)
    assert sum(a[n] != b[n] for n in a) > len(a) // 2
    mix = collections.Counter
    assert mix((r.op, r.size) for r in ra) == mix((r.op, r.size) for r in rb)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_percentiles_have_ten_samples_beyond_p90(workload):
    _, requests = gen.make_requests(workload, 1)
    ops = collections.Counter(r.op for r in requests)
    assert ops["decide"] >= 100 and ops["verify"] >= 100


def test_oracles_on_documented_examples():
    assert oracle.invariant_chain([2, 6]) == (2, 6)
    assert oracle.invariant_chain([2, 3, 0, 1]) == (6, 0)
    assert oracle.invariant_chain([4, 2, 2]) == (2, 2, 4)
    assert oracle.render_fg((2, 6)) == "Z/2 ⊕ Z/6"
    assert oracle.render_fg((2, 2, 0, 0, 0)) == "(Z/2)^2 ⊕ Z^3"
    assert oracle.render_fg(()) == "0"
    assert oracle.stratum_multiplicities([(2, 1), (1, 3), (0, 1)]) == ["w^2+w*3+1", "w+3", 1]
    assert oracle.stratum_multiplicities([(1, 1)]) == ["w", 1]
    assert oracle.stratum_multiplicities([(0, 4)]) == [5]
    assert oracle.expr_rank("Z^20 ⊕ lex(Z;Z;Z)") == 23
    assert oracle.expr_rank("Z ⊕ (lex(Z;Z) ⊕ Z)^2") == 7
    assert oracle.expr_rank("Z ⊕ Q") is None
    assert oracle.expr_rank("Z^(w)") is None
    assert oracle.cokernel_invariants([[8, 0, 4], [0, 8, 4]]) == (4, 8)


def test_wrappers_cover_every_binding_and_are_removed():
    import igl.cli  # noqa: F401  (imports every layer)
    from igl import abelian

    originals = {m: dict(vars(m)) for m in tracer._igl_modules()}
    functions = {}
    for layer, quals in tracer.TARGETS.items():
        mod = sys.modules[f"igl.{layer}"]
        functions.update({id(getattr(mod, q)): q for q in quals if "." not in q})
    bindings = [(m, k, v) for m, before in originals.items()
                for k, v in before.items() if id(v) in functions]
    per_name = collections.Counter(functions[id(v)] for _, _, v in bindings)
    assert per_name["snf"] >= 3 and per_name["freeness_verdict"] >= 5

    tr = tracer.Tracer()
    with tracer.installed(tr):
        for mod, key, value in bindings:
            assert getattr(mod, key).__wrapped__ is value, f"{mod.__name__}.{key}"
        abelian.FgGroup.from_invariants(2, 0).invariant_factors
    assert tr.layer_calls("matrices") > 0 and tr.layer_calls("abelian") > 0
    for mod, before in originals.items():
        assert {k: v for k, v in vars(mod).items() if k in before} == before


def test_missing_target_fails_loudly(monkeypatch):
    import igl.cli  # noqa: F401
    monkeypatch.setitem(tracer.TARGETS, "matrices", ("snf", "no_such_function"))
    with pytest.raises(LookupError):
        with tracer.installed(tracer.Tracer()):
            pass
    from igl import abelian, matrices
    assert abelian.snf is matrices.snf and not hasattr(matrices.snf, "__wrapped__")


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], out
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(EXACT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["small_batch", "fg_engine"])
def test_exact_counters_repeat_for_the_same_seed(workload):
    first = _traced(workload, 3)
    assert first == _traced(workload, 3)
    assert any(v > 0 for v in first.values())
