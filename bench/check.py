"""Compare one reply of the command-line front end with its planted answer."""

from __future__ import annotations

import json

import oracle


def reply_failure(op: str, expect: dict, code, out: str) -> str | None:
    """Why the reply (exit code and captured standard output) differs from
    the planted answer, or ``None`` when it matches.

    ``expect`` holds the exit code and, for successful requests:

    * ``decide``: ``verdict``; optionally ``expr`` (exact text), ``rank``
      (free rank of the expression, for trees whose answer is a rank), and
      ``meta`` (entries the report's metadata must contain);
    * ``verify``: ``checks`` (label → detail that must be present), and
      optionally ``prefix_counts`` (how many checks start with a prefix);
      every check must pass;
    * ``selftest``: ``green``.
    """
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect["exit"] != 0:
        return "output on a failing request" if out.strip() else None
    try:
        reply = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"reply is not JSON ({exc})"

    if op == "selftest":
        cases = reply.get("cases", [])
        if reply.get("green") is not expect["green"] or not cases \
                or not all(c.get("ok") for c in cases):
            return "selftest corpus not green"
        return None

    if op == "decide":
        if reply.get("verdict") != expect["verdict"]:
            return f"verdict {reply.get('verdict')!r}, expected {expect['verdict']!r}"
        if "expr" in expect and reply.get("expr") != expect["expr"]:
            return f"expression {reply.get('expr')!r}, expected {expect['expr']!r}"
        if "rank" in expect and oracle.expr_rank(reply.get("expr") or "") != expect["rank"]:
            return f"expression {reply.get('expr')!r} does not have rank {expect['rank']}"
        meta = reply.get("metadata", {})
        for key, value in expect.get("meta", {}).items():
            if meta.get(key) != value:
                return f"metadata {key} = {meta.get(key)!r}, expected {value!r}"
        return None

    checks = reply.get("checks", [])
    failing = [c["check"] for c in checks if not c.get("ok")]
    if failing:
        return f"verify checks failed: {', '.join(failing)}"
    details = {c["check"]: c["detail"] for c in checks}
    for label, detail in expect["checks"].items():
        if details.get(label) != detail:
            return f"check {label}: {details.get(label)!r}, expected {detail!r}"
    for prefix, count in expect.get("prefix_counts", {}).items():
        got = sum(1 for c in checks if c["check"].startswith(prefix))
        if got != count:
            return f"{got} checks named {prefix}*, expected {count}"
    return None
