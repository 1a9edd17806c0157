"""Span tracing of pslr's layers, done entirely from outside the library.

pslr binds names with ``from .x import y``, so a function is wrapped by
replacing the name in the module that *calls* it (``pslr.schur.block_solve``,
``pslr.cli.gmres``, ...), never in the module that defines it. Every span
records (trace id, span id, parent id, name, start, end, attributes); spans
stay in memory and are written out once the run ends. A layer's self time is
its span's duration minus the time its child spans cover; the program runs on
one thread, so children never overlap.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import pslr.cli
import pslr.partition
import pslr.preconditioner
import pslr.schur

# (module, attribute, span name). A boundary that a refactor moves or removes
# fails at patch time (missing attribute) or at check time (zero calls).
BOUNDARIES = [
    (pslr.cli, "parse_problem", "problems.generate"),
    (pslr.cli, "partition_graph", "partition.partition_graph"),
    (pslr.cli, "classify_and_reorder", "partition.classify_and_reorder"),
    (pslr.cli, "build_schur_context", "schur.build_context"),
    (pslr.cli, "arnoldi", "lowrank.arnoldi"),
    (pslr.cli, "build_correction", "lowrank.build_correction"),
    (pslr.cli, "apply_Err", "schur.apply_Err"),
    (pslr.cli, "gmres", "krylov.gmres"),
    (pslr.preconditioner, "build", "preconditioner.build"),
    (pslr.preconditioner, "partition_graph", "partition.partition_graph"),
    (pslr.preconditioner, "classify_and_reorder", "partition.classify_and_reorder"),
    (pslr.preconditioner, "build_schur_context", "schur.build_context"),
    (pslr.preconditioner, "arnoldi", "lowrank.arnoldi"),
    (pslr.preconditioner, "build_correction", "lowrank.build_correction"),
    (pslr.preconditioner, "apply_Err", "schur.apply_Err"),
    (pslr.preconditioner, "apply_correction", "lowrank.apply_correction"),
    (pslr.preconditioner, "apply_neumann", "schur.apply_neumann"),
    (pslr.preconditioner.PslrPreconditioner, "apply", "preconditioner.apply"),
    (pslr.partition, "permute_symmetric", "sparse.permute_symmetric"),
    (pslr.partition, "extract_submatrix", "sparse.extract_submatrix"),
    (pslr.schur, "factor_blocks", "ilu.factor_blocks"),
    (pslr.schur, "block_solve", "ilu.block_solve"),
    (pslr.schur, "apply_Es", "schur.apply_Es"),
]

# Span names every benchmark workload must record at least once.
REQUIRED = sorted({name for _, _, name in BOUNDARIES} - {"ilu.factor_blocks", "ilu.block_solve"}
                  | {"ilu.factor_B", "ilu.factor_C0", "ilu.solve_B", "ilu.solve_C0",
                     "sparse.matvec", "cli.main"})


class TraceCheckError(RuntimeError):
    """The trace contradicts the program's documented structure."""


class Span:
    __slots__ = ("trace", "id", "parent", "name", "t0", "t1", "attrs", "child_s")

    def __init__(self, trace, id, parent, name, t0):
        self.trace, self.id, self.parent, self.name, self.t0 = trace, id, parent, name, t0
        self.t1 = t0
        self.attrs = {}
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def to_dict(self) -> dict:
        return {"trace": self.trace, "id": self.id, "parent": self.parent, "name": self.name,
                "start": self.t0, "end": self.t1, "self": self.self_s, "attrs": self.attrs}


def _solve_cost(filu) -> tuple[int, int]:
    """Computed (flops, bytes) of one L then U triangular solve with these factors.

    Bytes count every CSR array of L and U once plus four vector passes
    (read rhs, write y, read y, write x); cache reuse is ignored.
    """
    nbytes = sum(a.nbytes for M in (filu.L, filu.U) for a in (M.data, M.indices, M.indptr))
    return 2 * (filu.L.nnz + filu.U.nnz), nbytes + 4 * 8 * filu.n


class Tracer:
    """Records spans at the wrapped boundaries while `patched()` is active."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._factors: dict[int, tuple] = {}   # id(BlockILU) -> (kind, factor, flops, bytes)
        self._systems: list = []               # PartitionedSystems being factored
        self._rows = 0

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(self.trace_id, len(self.spans), parent.id if parent else None, name,
                  time.perf_counter())
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.dur

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(fn, *args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self):
        """Replace every boundary name by a recording wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in BOUNDARIES:
                if attr not in owner.__dict__:
                    raise TraceCheckError(f"{owner.__name__}.{attr} no longer exists: "
                                          f"the {name} boundary moved")
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- boundaries that need more than a plain span -----------------------
    def _on_schur_build_context(self, fn, ps, *args, **kwargs):
        self._systems.append(ps)
        try:
            with self.span("schur.build_context"):
                return fn(ps, *args, **kwargs)
        finally:
            self._systems.pop()

    def _on_ilu_factor_blocks(self, fn, A, sizes, *args, **kwargs):
        ps = self._systems[-1] if self._systems else None
        if ps is not None and sizes is ps.interior_sizes:
            kind = "B"
        elif ps is not None and sizes is ps.interface_sizes:
            kind = "C0"
        else:
            raise TraceCheckError("factor_blocks called outside build_schur_context "
                                  "or on blocks that are neither B nor C0")
        with self.span("ilu.factor_" + kind) as sp:
            filu = fn(A, sizes, *args, **kwargs)
            flops, nbytes = _solve_cost(filu)
            self._factors[id(filu)] = (kind, filu, flops, nbytes)
            sp.attrs.update(nnz=filu.nnz, pivot_repairs=filu.pivot_repairs)
            return filu

    def _on_ilu_block_solve(self, fn, filu, rhs):
        entry = self._factors.get(id(filu))
        if entry is None or entry[1] is not filu:
            raise TraceCheckError("block_solve on factors that no traced factor_blocks built")
        kind, _, flops, nbytes = entry
        with self.span("ilu.solve_" + kind, flops=flops, bytes=nbytes):
            return fn(filu, rhs)

    def _on_partition_classify_and_reorder(self, fn, *args, **kwargs):
        with self.span("partition.classify_and_reorder") as sp:
            ps = fn(*args, **kwargs)
            sp.attrs.update(n=ps.n, q=ps.q)
            return ps

    def _on_lowrank_arnoldi(self, fn, *args, **kwargs):
        with self.span("lowrank.arnoldi") as sp:
            V, H, r = fn(*args, **kwargs)
            sp.attrs["rank"] = r
            return V, H, r

    def _on_lowrank_build_correction(self, fn, *args, **kwargs):
        # A correction built directly under cli.main starts a sweep row.
        if self._stack and self._stack[-1].name == "cli.main":
            self._rows += 1
            self.trace_id = f"{self._stack[-1].trace}/row{self._rows}"
        with self.span("lowrank.build_correction"):
            return fn(*args, **kwargs)

    def _on_krylov_gmres(self, fn, apply_A, apply_M, b, *args, **kwargs):
        def matvec(v):
            with self.span("sparse.matvec"):
                return apply_A(v)
        with self.span("krylov.gmres") as sp:
            x, report = fn(matvec, apply_M, b, *args, **kwargs)
            sp.attrs.update(n=int(b.shape[0]), iterations=report.iterations,
                            converged=report.converged)
            return x, report

    # -- derived numbers ---------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.by_name(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.by_name(name))

    def calls(self, name: str) -> int:
        return len(self.by_name(name))

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        spans = self.by_name(name)
        if not spans:
            return 0.0
        return 1e3 * statistics.fmean(s.self_s if self_time else s.dur for s in spans)

    def last_attr(self, name: str, key: str):
        spans = self.by_name(name)
        return spans[-1].attrs[key] if spans else 0


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded boundary crossing adds, timed on a scratch tracer."""
    wrapped = Tracer("cost")._wrap("cost", lambda: None)
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return (time.perf_counter() - t0) / samples


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced repetition, keyed by BENCHMARK.json name."""
    solves = tr.by_name("ilu.solve_B") + tr.by_name("ilu.solve_C0")
    flops = sum(s.attrs["flops"] for s in solves)
    nbytes = sum(s.attrs["bytes"] for s in solves)
    gm = tr.by_name("krylov.gmres")
    n_q = [(s.attrs["n"], s.attrs["q"]) for s in tr.by_name("partition.classify_and_reorder")]
    return {
        "problems.generate_s": tr.total("problems.generate"),
        "sparse.permute_symmetric_s": tr.total("sparse.permute_symmetric"),
        "sparse.extract_submatrix_s": tr.total("sparse.extract_submatrix"),
        "sparse.matvec_calls": tr.calls("sparse.matvec"),
        "sparse.matvec_s": tr.total("sparse.matvec"),
        "partition.partition_graph_s": tr.total("partition.partition_graph"),
        "partition.classify_and_reorder_s": tr.total("partition.classify_and_reorder"),
        "partition.interface_frac": n_q[-1][1] / n_q[-1][0] if n_q else 0.0,
        "ilu.factor_B_s": tr.total("ilu.factor_B"),
        "ilu.factor_C0_s": tr.total("ilu.factor_C0"),
        "ilu.nnz_B": tr.last_attr("ilu.factor_B", "nnz"),
        "ilu.nnz_C0": tr.last_attr("ilu.factor_C0", "nnz"),
        "ilu.solve_B_calls": tr.calls("ilu.solve_B"),
        "ilu.solve_B_ms": tr.mean_ms("ilu.solve_B"),
        "ilu.solve_C0_calls": tr.calls("ilu.solve_C0"),
        "ilu.solve_C0_ms": tr.mean_ms("ilu.solve_C0"),
        "ilu.solve_bytes_computed": nbytes,
        "ilu.solve_flops_computed": flops,
        "ilu.solve_ops_per_byte": flops / nbytes if nbytes else 0.0,
        "schur.apply_Es_calls": tr.calls("schur.apply_Es"),
        "schur.apply_Es_self_ms": tr.mean_ms("schur.apply_Es", self_time=True),
        "schur.apply_neumann_ms": tr.mean_ms("schur.apply_neumann"),
        "schur.apply_Err_calls": tr.calls("schur.apply_Err"),
        "schur.build_context_self_s": tr.self_total("schur.build_context"),
        "lowrank.arnoldi_s": tr.total("lowrank.arnoldi"),
        "lowrank.arnoldi_self_s": tr.self_total("lowrank.arnoldi"),
        "lowrank.rank_achieved": tr.last_attr("lowrank.arnoldi", "rank"),
        "lowrank.build_correction_s": tr.total("lowrank.build_correction"),
        "lowrank.apply_correction_ms": tr.mean_ms("lowrank.apply_correction"),
        "preconditioner.build_self_s": tr.self_total("preconditioner.build"),
        "preconditioner.apply_calls": tr.calls("preconditioner.apply"),
        "preconditioner.apply_ms": tr.mean_ms("preconditioner.apply"),
        "preconditioner.apply_self_ms": tr.mean_ms("preconditioner.apply", self_time=True),
        "krylov.self_s": tr.self_total("krylov.gmres"),
        # full GMRES with one reorthogonalization pass: 8 n (j+1) flops at step j
        "krylov.orth_flops_computed": sum(4 * s.attrs["n"] * s.attrs["iterations"]
                                          * (s.attrs["iterations"] + 1) for s in gm),
        "cli.overhead_s": tr.self_total("cli.main"),
        "trace.spans": len(tr.spans),
    }


def check_structure(tr: Tracer, m: int) -> list[str]:
    """Self-checks of a traced repetition; returns the list of violations."""
    problems = [f"boundary {name} recorded zero calls" for name in REQUIRED
                if tr.calls(name) == 0]
    applies = tr.calls("preconditioner.apply")
    steps = tr.calls("schur.apply_Err")
    expected = {
        "ilu.solve_B": (2 + m) * applies + (m + 1) * steps,
        "ilu.solve_C0": (m + 1) * applies + (m + 1) * steps,
        "schur.apply_Es": m * applies + (m + 1) * steps,
        "schur.apply_Err": sum(s.attrs["rank"] for s in tr.by_name("lowrank.arnoldi")),
    }
    for name, want in expected.items():
        got = tr.calls(name)
        if got != want:
            problems.append(f"{name}: {got} calls, the algorithm implies {want} "
                            f"({applies} applies, {steps} Arnoldi steps, m={m})")
    if tr._stack:
        problems.append("unclosed spans: " + ", ".join(s.name for s in tr._stack))
    return problems
