"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "igl"


def test_package_holds_no_assert_statement():
    """``python -O`` strips ``assert`` statements, so a check written as
    one would pass whatever it checks; ``verify``'s checks are
    comparisons."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _named(node, name: str) -> bool:
    # ``name`` itself, or an attribute of that name (``valgroup.name``)
    return (isinstance(node, ast.Name) and node.id == name) or \
        (isinstance(node, ast.Attribute) and node.attr == name)


def test_front_end_writes_no_rule_and_chooses_no_verdict():
    """Each layer owns its kind's rules and certificate wording: ``cli``
    makes no ``CertStep.make`` call and reads no ``Verdict`` member."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and (_named(node.value, "Verdict")
                  or (node.attr == "make" and _named(node.value, "CertStep")))]
    assert found == []


def test_front_end_holds_no_check():
    """Each layer owns its kind's ``verify`` checks: ``cli`` defines no
    ``_replay_`` function, names none of the layers' internals that the
    checks read and reads no tree's ``.parents``.  It builds an ``FgHom``
    only where the schema parses a diagram's map."""
    internals = {"decide_inv_free", "cb_derivative", "stratum_size", "unit_quotient_seq",
                 "cokernel", "FgHom"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    parse_hom = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_parse_hom")
    schema = {id(node) for node in ast.walk(parse_hom)}
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.FunctionDef) and node.name.startswith("_replay_"))
             or (isinstance(node, ast.Attribute) and node.attr == "parents")
             or any(_named(node, name) for name in internals - {"FgHom"})
             or (_named(node, "FgHom") and id(node) not in schema)]
    assert found == []


def test_no_record_checks_itself():
    """Each fact an instance supplies is checked once, where it is
    parsed, and every other record is built from checked values: no
    class defines ``__new__``, and no ``__init__`` calls anything.  Only
    ``cli.Report`` and ``abelian.FgGroup`` keep an ``__init__``, which
    stores its arguments."""
    found, inits = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for node in (cls.body if isinstance(cls, ast.ClassDef) else ()):
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    inits.add(f"{path.stem}.{cls.name}")
                    found += [f"{path.stem}.{cls.name}.__init__:{call.lineno}"
                              for call in ast.walk(node) if isinstance(call, ast.Call)]
                elif isinstance(node, ast.FunctionDef) and node.name == "__new__":
                    found.append(f"{path.stem}.{cls.name}.__new__:{node.lineno}")
    assert found == []
    assert inits == {"cli.Report", "abelian.FgGroup"}


# the functions that raise a schema error: the walker of ``cli.FIELDS``
# (``read`` and ``_unknown_keys``), the facts that relate fields, the readers of a
# path and of a file, and the layers' parses of a tree, an ordinal, a
# space's strata and a tower's slots
PARSES = {"cli.read", "cli._unknown_keys", "cli.parse_field_desc", "cli.parse_matrix",
          "cli.parse_noeth", "cli.parse_scattered", "cli.load_payload", "cli._files",
          "prufer.tree_from_payload", "scattered.parse_ordinal", "scattered.parse_digits",
          "scattered.ScatteredSpace.interval", "valgroup.ValueTower.from_names"}


def _schema_raises(node, qualname: str):
    """The qualified names of the functions under ``node`` that raise a
    ``SchemaError``: built there, by ``unknown_key`` or placed by ``under``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _schema_raises(child, f"{qualname}.{child.name}")
        elif isinstance(child, ast.Raise) and child.exc is not None and any(_named(
                child.exc.func if isinstance(child.exc, ast.Call) else child.exc, name)
                for name in ("SchemaError", "unknown_key", "under")):
            yield qualname
        else:
            yield from _schema_raises(child, qualname)


def test_only_the_parse_raises_a_schema_error():
    """A ``SchemaError`` is raised only where outside input is read, and
    every function that the list names raises one."""
    found = {qualname
             for path in sorted(SRC.rglob("*.py"))
             for qualname in _schema_raises(ast.parse(path.read_text(encoding="utf-8")),
                                            path.stem)}
    assert found == PARSES
