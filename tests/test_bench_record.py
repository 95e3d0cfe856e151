"""``scripts/bench_record.py`` records only checkouts without bytecode
caches, its runs leave none behind, and appended runs continue the
numbering of the rounds."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_cached_checkout_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    script = load_script()
    started = []
    monkeypatch.setattr(script, "run", lambda *args: started.append(args))
    # a record would be written here, not into the checkout under test
    monkeypatch.setattr(script, "ROOT", tmp_path)
    checkouts = []
    for label, cached in (("fresh", False), ("cached", True)):
        path = tmp_path / label
        (path / "bench").mkdir(parents=True)
        (path / "bench" / "run.py").write_text("", encoding="utf-8")
        (path / "src" / "igl").mkdir(parents=True)
        if cached:
            (path / "src" / "igl" / "__pycache__").mkdir()
        checkouts += ["--checkout", f"{label}={path}"]
    with pytest.raises(SystemExit) as exc:
        script.main(["1", *checkouts, "--workload", "small_batch"])
    assert exc.value.code == 2
    cache = tmp_path / "cached" / "src" / "igl" / "__pycache__"
    assert f"remove the bytecode cache {cache} first" in capsys.readouterr().err
    assert started == [] and not (tmp_path / "BENCH_1.json").exists()


def test_runs_write_no_bytecode(monkeypatch):
    script = load_script()
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen.update(env)

        class Done:
            stdout = '{"metrics": {}}\n'
        return Done()

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    assert script.run(ROOT, "small_batch", 1, 0.0, 0) == {"metrics": {}}
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"


def test_appended_rounds_continue_the_numbering(tmp_path, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "run", lambda *args: {"metrics": {}})
    monkeypatch.setattr(script, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 0}', encoding="utf-8")
    checkouts = []
    for label in ("parent", "change"):
        (tmp_path / label / "bench").mkdir(parents=True)
        (tmp_path / label / "bench" / "run.py").write_text("", encoding="utf-8")
        checkouts += ["--checkout", f"{label}={tmp_path / label}"]
    common = ["7", *checkouts, "--workload", "small_batch", "--rounds", "2"]
    assert script.main(common) == 0
    # another seed starts its own numbering; the first seed's continues
    assert script.main([*common, "--append", "--seed", "2"]) == 0
    assert script.main([*common, "--append"]) == 0
    runs = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))["runs"]
    assert [(r["seed"], r["round"], r["checkout"]) for r in runs] == [
        (1, 1, "parent"), (1, 1, "change"), (1, 2, "change"), (1, 2, "parent"),
        (2, 1, "parent"), (2, 1, "change"), (2, 2, "change"), (2, 2, "parent"),
        (1, 3, "parent"), (1, 3, "change"), (1, 4, "change"), (1, 4, "parent")]
