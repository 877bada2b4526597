"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The layers are traced from outside the package: :func:`installed` rebinds the
module and class attributes through which each layer is called to timing
wrappers, and puts the original objects back when it exits.  Spans carry a
parent link; each thread keeps its own stack of open spans, and the members
that ``_pmap`` runs on worker threads are parented to the pool span of the
thread that submitted them.  A span's self time is its duration minus the
part of its interval covered by its children.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

#: Per-layer metrics of a traced run: name -> (unit, which direction is better).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "kernels.lindblad_s": ("s", "lower"),
    "kernels.lindblad_calls": ("count", "lower"),
    "kernels.lindblad_us_per_step": ("us", "lower"),
    "kernels.lindblad_gflop": ("GFLOP-computed", "lower"),
    "kernels.lindblad_gflops": ("GFLOP/s-computed", "higher"),
    "kernels.schrodinger_s": ("s", "lower"),
    "kernels.schrodinger_us_per_step": ("us", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.gap_scan_s": ("s", "lower"),
    "dynamics.gap_evals": ("count", "lower"),
    "dynamics.evolve_self_s": ("s", "lower"),
    "model.build_s": ("s", "lower"),
    "model.coef_table_s": ("s", "lower"),
    "model.term_count": ("count", "lower"),
    "protocols.run_scenario_self_s": ("s", "lower"),
    "protocols.reduction_self_s": ("s", "lower"),
    "pool.members": ("count", "higher"),
    "pool.busy_s": ("s", "lower"),
    "pool.contention_s": ("s", "lower"),
    "pool.failed": ("count", "lower"),
    "pool.speedup_2v1": ("ratio", "higher"),
    "cli.parse_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "kernels_only.lindblad_n3_us_per_step": ("us", "lower"),
    "kernels_only.lindblad_n4_us_per_step": ("us", "lower"),
    "kernels_only.lindblad_n6_us_per_step": ("us", "lower"),
    "kernels_only.schrodinger_c8_us_per_step": ("us", "lower"),
}


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects finished spans in memory; open spans live on per-thread stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int = None, **attrs) -> Iterator[Span]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1].id if stack else 0
        with self._lock:
            span_id = next(self._ids)
        s = Span(span_id, parent, name, threading.get_ident(), time.perf_counter(),
                 attrs=attrs)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)


# ---------------------------------------------------------------------------
# wrappers and the table of traced attributes
# ---------------------------------------------------------------------------

def _timed(tracer: Tracer, name: str, fn: Callable, attrs_of: Callable = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                s.attrs.update(attrs_of(args, out))
            return out

    return wrapper


def _kernel_attrs(args, out) -> Dict[str, int]:
    terms, ctab = args[0], args[1]
    return {"steps": (ctab.shape[0] - 1) // 2, "dim": terms.shape[1]}


def _csv_bytes(args, out) -> Dict[str, int]:
    return {"bytes": os.path.getsize(args[1])}


def _manifest_bytes(args, out) -> Dict[str, int]:
    return {"bytes": os.path.getsize(os.path.join(args[1], "manifest.json"))}


def _build_terms(args, out) -> Dict[str, int]:
    return {"terms": out.terms.shape[0]}


def _traced_get_kernels(tracer: Tracer, get_kernels: Callable) -> Callable:
    @functools.wraps(get_kernels)
    def wrapper(backend=None):
        kern = get_kernels(backend)
        return kern._replace(
            lindblad_rk4=_timed(tracer, "kernels.lindblad", kern.lindblad_rk4, _kernel_attrs),
            schrodinger_rk4=_timed(tracer, "kernels.schrodinger", kern.schrodinger_rk4, _kernel_attrs),
        )

    return wrapper


def _traced_pmap(tracer: Tracer, pmap: Callable) -> Callable:
    @functools.wraps(pmap)
    def wrapper(fn, items, workers):
        with tracer.span("pool.map", workers=workers) as pool:

            def member(item):
                with tracer.span("pool.member", parent=pool.id) as s:
                    s.attrs["failed"] = True  # stays set if fn raises
                    out = fn(item)
                    # sweep rows report their own status and measured wall time
                    s.attrs["failed"] = getattr(out, "status", "ok") != "ok"
                    s.attrs["busy"] = getattr(out, "wall_time", None)
                    return out

            return pmap(member, items, workers)

    return wrapper


def _patches(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced call site."""
    from lmg_adiabat import _kernels, cli, dynamics, model, protocols, sweep

    def timed(name, attrs_of=None):
        return lambda fn: _timed(tracer, name, fn, attrs_of)

    return [
        (cli, "parse_config", timed("cli.parse")),
        (cli, "write_csv", timed("cli.write", _csv_bytes)),
        (cli, "write_manifest", timed("cli.write", _manifest_bytes)),
        (cli, "run_sweep", timed("sweep.run_sweep")),
        (sweep, "run_sweep", timed("sweep.run_sweep")),
        (cli, "run_scenario", timed("protocols.run_scenario")),
        (sweep, "run_scenario", timed("protocols.run_scenario")),
        (protocols, "run_scenario", timed("protocols.run_scenario")),
        (cli, "validate_effective_reduction", timed("protocols.reduction")),
        (protocols, "_pmap", lambda fn: _traced_pmap(tracer, fn)),
        (sweep, "_pmap", lambda fn: _traced_pmap(tracer, fn)),
        (protocols, "lmg_sweep_hamiltonian", timed("model.build", _build_terms)),
        (protocols, "full_interaction_hamiltonian", timed("model.build", _build_terms)),
        (model.LinearHamiltonian, "coefficient_table", timed("model.coef_table")),
        (protocols, "evolve", timed("dynamics.evolve")),
        (protocols, "evolve_state", timed("dynamics.evolve")),
        (dynamics, "_hamiltonian_matrix", timed("dynamics.gap_matrix")),
        (dynamics, "spectral_gap", timed("dynamics.gap_eval")),
        (_kernels, "get_kernels", lambda fn: _traced_get_kernels(tracer, fn)),
    ]


def traced_attributes() -> List[Tuple[object, str]]:
    """The (owner, attribute) pairs that :func:`installed` rebinds."""
    return [(owner, attr) for owner, attr, _ in _patches(Tracer())]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route the package's layer calls through ``tracer`` for the duration."""
    patches = _patches(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(vars(owner)[attr]))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _self_time(span: Span, children: List[Span]) -> float:
    covered = 0.0
    reach = span.start
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Layer totals of one traced round (pool and overhead figures excluded)."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    names = {s.id: s.name for s in spans}
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(_self_time(s, children[s.id]) for s in by_name[name])

    lind = by_name["kernels.lindblad"]
    schr = by_name["kernels.schrodinger"]
    lind_s, schr_s = total("kernels.lindblad"), total("kernels.schrodinger")
    lind_steps = sum(s.attrs["steps"] for s in lind)
    schr_steps = sum(s.attrs["steps"] for s in schr)
    # computed, not counted: 4 RK4 stages x 2 complex d^3 products x 8 real flops
    gflop = sum(64.0 * s.attrs["dim"] ** 3 * s.attrs["steps"] for s in lind) / 1e9
    table_s = sum(
        s.duration for s in by_name["model.coef_table"]
        if names.get(s.parent) != "dynamics.gap_matrix"
    )
    return {
        "kernels.lindblad_s": lind_s,
        "kernels.lindblad_calls": len(lind),
        "kernels.lindblad_us_per_step": 1e6 * lind_s / lind_steps if lind_steps else 0.0,
        "kernels.lindblad_gflop": gflop,
        "kernels.lindblad_gflops": gflop / lind_s if lind_s else 0.0,
        "kernels.schrodinger_s": schr_s,
        "kernels.schrodinger_us_per_step": 1e6 * schr_s / schr_steps if schr_steps else 0.0,
        "dynamics.steps": lind_steps + schr_steps,
        "dynamics.gap_scan_s": total("dynamics.gap_matrix") + total("dynamics.gap_eval"),
        "dynamics.gap_evals": len(by_name["dynamics.gap_eval"]),
        "dynamics.evolve_self_s": self_total("dynamics.evolve"),
        "model.build_s": total("model.build"),
        "model.coef_table_s": table_s,
        "model.term_count": sum(s.attrs["terms"] for s in by_name["model.build"]),
        "protocols.run_scenario_self_s": self_total("protocols.run_scenario"),
        "protocols.reduction_self_s": self_total("protocols.reduction"),
        "cli.parse_s": total("cli.parse"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": sum(s.attrs["bytes"] for s in by_name["cli.write"]),
    }


def pool_stats(spans: List[Span]) -> Dict[str, float]:
    """Members, busy time, failures and wall time of the ``_pmap`` calls."""
    members = [s for s in spans if s.name == "pool.member"]
    busy = [s.attrs["busy"] if s.attrs.get("busy") is not None else s.duration for s in members]
    return {
        "members": len(members),
        "busy_s": sum(busy),
        "failed": sum(1 for s in members if s.attrs["failed"]),
        "wall_s": sum(s.duration for s in spans if s.name == "pool.map"),
    }
