"""``scripts/bench_record.py`` records only checkouts without bytecode
caches, and its runs leave none behind."""

import importlib.util
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
