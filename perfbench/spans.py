"""In-memory span recorder and the layer wrappers of the traced run.

Layers are traced from outside the library: ``instrument`` rebinds the
module attributes through which each layer is called (for example
``ehub.sweep.ground_state`` or ``ehub.eigen.lanczos_ground``) to
wrappers that record a span per call, and restores the originals on
exit.  Nothing under ``src/`` is modified.

A span has a name, start and end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the id of the grid
point it belongs to.  Spans of one point share that id; a span whose
parent belongs to no point joins the point most recently started under
that parent, so in ``momentum_scan`` a V value's partial trace and
entropy join the point its solve opened.  Spans are kept in a list and
written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import resource
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    point: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    last_point: int | None = None  # the point most recently started under this span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; safe to use from the worker threads of ``run_grid``.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack takes the innermost span opened by
    ``root`` as its parent, so pool workers hang under the pass that
    started them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._points = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, new_point: bool) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        point = None
        if new_point:
            point = next(self._points)
            if parent is not None:
                parent.last_point = point
        elif parent is not None:
            point = parent.point if parent.point is not None else parent.last_point
        span = Span(next(self._ids), name, parent.id if parent else None, point, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, new_point: bool = False):
        span = self._open(name, new_point)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span on the calling thread that also adopts orphan spans of other threads."""
        with self.span(name) as span:
            outer, self._root = self._root, span
            try:
                yield span
            finally:
                self._root = outer

    def in_point(self) -> bool:
        return any(s.name == "sweep.run_point" for s in self._stack())

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "point": s.point,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children can overlap (pool workers under one pass), so the covered
    part is the length of the union of the clipped child intervals.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def maxrss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def csr_matvec_bytes(m) -> int:
    """Bytes one CSR product reads and writes, computed from array sizes.

    Values, column indices and row pointers once, the input and output
    vectors once each; cache misses on the gathered input are ignored.
    """
    return int(
        m.nnz * (m.data.itemsize + m.indices.itemsize)
        + m.indptr.size * m.indptr.itemsize
        + 2 * m.shape[0] * m.data.itemsize
    )


class TracedHamiltonian:
    """Proxy around a SparseHamiltonian whose ``matvec`` records a span per call."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder
        self.matvec_bytes = csr_matvec_bytes(inner.matrix)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def matvec(self, x):
        with self._recorder.span("eigen.matvec"):
            return self._inner.matvec(x)


@contextlib.contextmanager
def instrument(recorder: Recorder, layers: bool = True):
    """Rebind the entry points of ``ehub`` to span-recording wrappers.

    With ``layers=False`` only the per-point entry points are wrapped
    (``run_point`` and the solve call of ``momentum_scan``): that is all
    an untraced run needs for its per-point times.
    """
    import ehub.eigen
    import ehub.fock
    import ehub.hamiltonian
    import ehub.momentum
    import ehub.sweep

    saved: list[tuple[object, str, object]] = []

    def patch(module, name, wrapper_factory):
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, wrapper_factory(original))

    def plain(span_name, new_point=False):
        def factory(fn):
            def wrapper(*args, **kwargs):
                with recorder.span(span_name, new_point=new_point):
                    return fn(*args, **kwargs)
            return wrapper
        return factory

    def terms(span_name):
        def factory(fn):
            def wrapper(*args, **kwargs):
                before = maxrss_mb()
                with recorder.span(span_name) as span:
                    out = fn(*args, **kwargs)
                span.attrs["maxrss_growth_mb"] = maxrss_mb() - before
                return out
            return wrapper
        return factory

    def assemble(span_name):
        def factory(fn):
            def wrapper(*args, **kwargs):
                with recorder.span(span_name) as span:
                    H = fn(*args, **kwargs)
                span.attrs.update(dim=int(H.dimension), nnz=int(H.nnz))
                return TracedHamiltonian(H, recorder)
            return wrapper
        return factory

    def solve(fn):
        def wrapper(H, *args, **kwargs):
            with recorder.span("eigen.solve") as span:
                result = fn(H, *args, **kwargs)
            dim = int(H.dimension)
            # Lanczos stores one vector per iteration; the dense path holds the matrix
            stored = result.iterations if result.method == "lanczos" else dim
            span.attrs.update(
                method=result.method,
                iterations=int(result.iterations),
                degenerate=bool(result.degenerate),
                basis_mb=stored * dim * H.matrix.data.itemsize / 1e6,
                matvec_bytes=H.matvec_bytes,  # per product; the eigen.matvec spans count them
            )
            return result
        return wrapper

    def ground_state(fn):
        # momentum_scan has no per-point span of its own, so each solve
        # outside run_point starts a new point, which the partial trace and
        # entropy of the same V then join
        def wrapper(*args, **kwargs):
            with recorder.span("eigen.ground_state", new_point=not recorder.in_point()):
                return fn(*args, **kwargs)
        return wrapper

    try:
        patch(ehub.sweep, "run_point", plain("sweep.run_point", new_point=True))
        patch(ehub.sweep, "ground_state", ground_state)
        if not layers:
            yield recorder
            return
        for module in (ehub.fock, ehub.eigen, ehub.momentum, ehub.sweep):
            patch(module, "enumerate_sector", plain("fock.enumerate"))
        patch(ehub.hamiltonian, "real_terms", terms("hamiltonian.terms"))
        patch(ehub.momentum, "momentum_terms", terms("momentum.terms"))
        patch(ehub.eigen, "build_real_hamiltonian", assemble("hamiltonian.assemble"))
        patch(ehub.momentum, "build_momentum_hamiltonian", assemble("momentum.assemble"))
        patch(ehub.eigen, "lanczos_ground", solve)
        patch(ehub.eigen, "dense_ground", solve)
        patch(ehub.sweep, "reduced_density_matrix", plain("rdm.trace"))
        patch(ehub.sweep, "von_neumann_entropy", plain("rdm.entropy"))
        patch(ehub.sweep, "classify_config", plain("reference.classify"))
        patch(ehub.sweep, "momentum_scan", plain("sweep.momentum_scan"))
        yield recorder
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
