"""Matrix-free operators on the interface space.

Everything here works with the splitting S = C0 - Es, where S is the Schur
complement C - F B^{-1} E, C0 is the block-diagonal part of C and
Es = (C0 - C) + F B^{-1} E.  The inverse Schur complement is approximated by
the truncated power series  sum_{i=0}^{m} (C0^{-1} Es)^i C0^{-1}, whose
residual operator is (Es C0^{-1})^{m+1}.

B^{-1} and C0^{-1} always mean the ILUT factors held in the context; with
droptol=0 these are exact and the operators satisfy the exact-arithmetic
identities, which is what the diagnostics oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ilu import BlockILU, block_solve, factor_blocks
from .partition import PartitionedSystem


@dataclass
class SchurContext:
    """Partitioned system plus the block factors needed to apply S, Es, etc."""

    system: PartitionedSystem
    b_ilu: BlockILU
    c0_ilu: BlockILU    # factors of C0, the diagonal blocks of C


def build_schur_context(ps: PartitionedSystem, droptol: float = 1e-2) -> SchurContext:
    """Factor the B_i and C_i diagonal blocks and assemble the context; C0
    is never formed, as `factor_blocks` reads only C's diagonal blocks."""
    return SchurContext(system=ps,
                        b_ilu=factor_blocks(ps.B, ps.interior_sizes, droptol=droptol),
                        c0_ilu=factor_blocks(ps.C, ps.interface_sizes, droptol=droptol))


def _check_len(ctx, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != ctx.system.q:
        raise ValueError(f"vector has length {v.shape[0]}, "
                         f"interface dimension is {ctx.system.q}")
    return v


def solve_B(ctx: SchurContext, rhs) -> np.ndarray:
    return block_solve(ctx.b_ilu, rhs)


def solve_C0(ctx: SchurContext, rhs) -> np.ndarray:
    return block_solve(ctx.c0_ilu, rhs)


def apply_S(ctx: SchurContext, v) -> np.ndarray:
    """S v = C v - F B^{-1} (E v)."""
    v = _check_len(ctx, v)
    return ctx.system.C @ v - ctx.system.F @ solve_B(ctx, ctx.system.E @ v)


def apply_Es(ctx: SchurContext, v) -> np.ndarray:
    """Es v = (C0 - C) v + F B^{-1} (E v); equals C0 v - S v to roundoff."""
    v = _check_len(ctx, v)
    return ctx.system.F @ solve_B(ctx, ctx.system.E @ v) - ctx.system.Cg @ v


def apply_neumann(ctx: SchurContext, m: int, v) -> np.ndarray:
    """Truncated power series: sum_{i=0}^{m} (C0^{-1} Es)^i C0^{-1} v.

    Horner recurrence: exactly m+1 C0-solves and m Es-applies.
    """
    if m < 0:
        raise ValueError("series degree m must be >= 0")
    v = _check_len(ctx, v)
    c0v = solve_C0(ctx, v)
    y = c0v
    for _ in range(m):
        y = solve_C0(ctx, apply_Es(ctx, y)) + c0v
    return y


def apply_Err(ctx: SchurContext, m: int, v) -> np.ndarray:
    """Series residual operator (Es C0^{-1})^{m+1} applied to v."""
    if m < 0:
        raise ValueError("series degree m must be >= 0")
    v = _check_len(ctx, v)
    y = v
    for _ in range(m + 1):
        y = apply_Es(ctx, solve_C0(ctx, y))
    return y
