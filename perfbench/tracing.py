"""Outside-in layer tracing for the pairlab benchmark.

The tracer wraps public pairlab functions from the benchmark's side: each
wrapper is installed under every module attribute of the `pairlab` package
that is bound to the original function, because that is the namespace in
which a caller (the benchmark, or another pairlab module such as
`objective._gd_single` looking up `loss_gradient`) finds the name at call
time.  `PositivePairGraph.joint_coo` is wrapped on the class.  The original
objects are put back by `uninstall`.

Spans are not stored one by one: there are hundreds of thousands of
loss+gradient evaluations per run.  Each span name keeps running totals
(calls, wall seconds, self seconds, raised `PairLabError`s), and each
(parent, child) pair keeps a call count.  Self time is a span's duration
minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def pairlab_modules() -> list:
    """The loaded `pairlab` package and its submodules."""
    return [m for name, m in sys.modules.items()
            if name == "pairlab" or name.startswith("pairlab.")]


def span_targets() -> Dict[str, List[Tuple[object, str]]]:
    """Span name -> [(owner, attribute)] of the functions it times.

    Several functions may share one span name (all synthetic-data
    generators, all `construct_*` routines, both loss oracles).
    """
    import pairlab.cli as cli
    import pairlab.funclass as funclass
    import pairlab.objective as objective
    import pairlab.posgraph as posgraph
    import pairlab.probe as probe
    import pairlab.septest as septest
    import pairlab.spectral as spectral
    import pairlab.synthdata as synthdata

    def public_functions(module, keep: Callable[[str], bool]):
        return [(module, name) for name, obj in sorted(vars(module).items())
                if callable(obj) and getattr(obj, "__module__", None) == module.__name__
                and not isinstance(obj, type) and not name.startswith("_")
                and keep(name)]

    targets = {
        "objective.train": [(objective, "train")],
        "objective.loss_gradient": [(objective, "loss_gradient")],
        "objective.whiten": [(objective, "whiten")],
        "objective.oracle": [(objective, "tabular_min_oracle"),
                             (objective, "linear_min_oracle")],
        "funclass.forward": [(funclass, "forward")],
        "funclass.grad_params": [(funclass, "grad_params")],
        "funclass.construct": public_functions(
            funclass, lambda n: n.startswith("construct_") or n == "zero_loss_certificate"),
        "septest.estimate_br": [(septest, "estimate_br")],
        "septest.br_oracle_tabular": [(septest, "br_oracle_tabular")],
        "spectral.eigendecompose": [(spectral, "eigendecompose")],
        "spectral.pair_discrepancy": [(spectral, "pair_discrepancy")],
        "spectral.min_expansion_over_class": [(spectral, "min_expansion_over_class")],
        "posgraph.joint_coo": [(posgraph.PositivePairGraph, "joint_coo")],
        "posgraph.connected_components": [(posgraph, "connected_components")],
        "posgraph.graph_to_dict": [(posgraph, "graph_to_dict")],
        "posgraph.graph_from_dict": [(posgraph, "graph_from_dict")],
        "posgraph.build_graph": [(posgraph, "build_graph")],
        "posgraph.restrict": [(posgraph, "restrict")],
        "synthdata.generate": public_functions(synthdata, lambda n: True),
        "probe.measure_assumptions": [(probe, "measure_assumptions")],
        "probe.measure_eigenspace_quantities": [(probe, "measure_eigenspace_quantities")],
        "probe.fit_linear_head": [(probe, "fit_linear_head")],
    }
    for name in cli.VERIFIERS:
        targets[f"cli.verify_{name}"] = [(cli, f"verify_{name}")]
    return targets


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0


class Tracer:
    """Aggregating span recorder; install() wraps, uninstall() restores."""

    def __init__(self, error_type: type):
        self._error_type = error_type
        self.stats: Dict[str, SpanStats] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        self._stack: List[list] = []          # [name, child seconds]
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        error_type = self._error_type

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            edges[parent, name] = edges.get((parent, name), 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                stats.failed += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets: Dict[str, Iterable[Tuple[object, str]]],
                modules: Iterable[object],
                on_result: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every target, rebinding each module attribute that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        on_result = on_result or {}
        modules = list(modules)
        for name, owners in targets.items():
            for owner, attr in owners:
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original, on_result.get(name))
                homes = [owner] + [m for m in modules
                                   if m is not owner and vars(m).get(attr) is original]
                for home in homes:
                    self._saved.append((home, attr, original))
                    setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._saved):
            setattr(home, attr, original)
        self._saved.clear()
