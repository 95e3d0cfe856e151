#!/usr/bin/env python3
"""Enumerate every rooted spectral tree with up to N nodes (all edges
labeled with a single discrete slot), decide the invertible group of
each, tabulate the free rank against the contraction geometry, and run
``igl verify`` on each tree: every check must pass, and the divided-cut
checks are counted.

Usage: python3 scripts/enumerate_small_trees.py [max_nodes]
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import (all_parent_vectors, expr_rank, tree_from_parents, tree_payload,
                     tree_rank_oracle)

from igl.cli import verify_payload
from igl.prufer import decide_inv_free, contracted_spectrum
from igl.valgroup import Verdict


def main() -> int:
    max_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"{'nodes':>5} {'trees':>6} {'rank=edges':>10} {'cut checks':>10} "
          f"{'hi sizes seen':>20}")
    for n in range(1, max_nodes + 1):
        count = cut_checks = 0
        hi_sizes = Counter()
        for parents in all_parent_vectors(n):
            tree = tree_from_parents(parents)
            res = decide_inv_free(tree)
            assert res.verdict is Verdict.FREE
            rank = expr_rank(res.expr)
            assert rank == tree_rank_oracle(tree) == n - 1
            hi = contracted_spectrum(tree)
            assert rank == tree_rank_oracle(hi)
            hi_sizes[len(hi.nodes())] += 1
            checks = verify_payload(tree_payload(parents), str(parents))
            assert all(ok for _, ok, _ in checks), (parents, checks)
            cut_checks += sum(1 for label, _, _ in checks if label.startswith("cut-at-"))
            count += 1
        sizes = ", ".join(f"{k}:{v}" for k, v in sorted(hi_sizes.items()))
        print(f"{n:>5} {count:>6} {'yes':>10} {cut_checks:>10} {sizes:>20}")
    print("\nevery decision Free; rank always equals the edge count "
          "(slot-weighted contraction edges); every verify check passes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
