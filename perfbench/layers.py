"""Per-layer self time, measured from outside the program.

The program's own spans are off by default and do not cover every layer,
so the traced run wraps each layer's public entry points from here
instead. A wrapper records a B/E span (category = layer) into a
`repro.obs.tracing.Tracer`; a layer's self time is the time inside its
spans minus the time inside spans nested in them. Each item of a traced
run sits in one ``bench`` span, whose self time is the time no wrapped
entry point accounts for (reported as ``other``).

Wrapping rebinds the class attribute of a method, and every module
attribute that still points at the original function, so
``from x import f`` bindings made before the wrappers went in are
covered too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Tuple

#: layer -> entry points, as ``module:function`` or ``module:Class.method``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "riscv": ("repro.riscv.machine:RiscvMachine.run",),
    "kami": ("repro.kami.framework:System.run",
             "repro.kami.framework:System.run_cycles"),
    "platform": ("repro.platform.bus:MMIOBus.read",
                 "repro.platform.bus:MMIOBus.write",
                 "repro.platform.lan9250:Lan9250.inject_frame"),
    "traces": ("repro.traces.predicates:TracePred.prefix_of",
               "repro.traces.predicates:TracePred.matches",
               "repro.traces.online:OnlineChecker.check"),
    "net": ("repro.net.sim:Simulator.run_until",
            "repro.net.switch:EthernetSwitch.ingress"),
    "compiler": ("repro.compiler.pipeline:compile_program",),
    "bedrock2": ("repro.bedrock2.vcgen:verify_function",
                 "repro.bedrock2.semantics:run_function",
                 "repro.bedrock2.smallstep:run_function_smallstep"),
    "logic": ("repro.logic.solver:check_valid",
              "repro.logic.cache:ProofCache.lookup",
              "repro.logic.cache:ProofCache.store"),
    # `analyze_image` is the binary analysis every lint path (including
    # the fuzz oracle's `lint_image`) and `analyze_timing` run through.
    "analysis": ("repro.analysis.binlint:lint_binary_program",
                 "repro.analysis.binlint:analyze_image",
                 "repro.analysis.wcet:analyze_timing",
                 "repro.analysis.prescreen:Prescreener.__call__"),
    "fuzz": ("repro.fuzz.generator:generate_program",
             "repro.fuzz.oracle:run_differential"),
}

#: The category of the span around each traced item; its self time is
#: reported as the ``other`` layer.
BENCH_CAT = "bench"


def _resolve(path: str) -> Tuple[object, str, Callable]:
    """``module:Qual.name`` -> (owner object, attribute, original)."""
    module_name, _, qual = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, attr = qual.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        original = owner.__dict__[attr]
    else:
        original = getattr(owner, attr)
    if not callable(original):
        raise TypeError("%s is not callable" % path)
    return owner, attr, original


class LayerProbe:
    """Installs the wrappers; `tracer` is swapped per traced item."""

    def __init__(self) -> None:
        self.tracer = None
        self.counts: Dict[str, int] = {"traces.checks": 0,
                                       "traces.events_in": 0}
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        probe = self
        counts = self.counts
        # The `traces` entry points take the trace as their one argument.
        trace_arg = layer == "traces"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace_arg:
                counts["traces.checks"] += 1
                counts["traces.events_in"] += len(args[1])
            tracer = probe.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(name, layer)
        return wrapper

    def install(self) -> List[str]:
        """Wrap every entry point; returns the ones that did not resolve
        (also kept in `missing`)."""
        for layer, paths in LAYERS.items():
            for path in paths:
                try:
                    owner, attr, original = _resolve(path)
                except (ImportError, AttributeError, KeyError, TypeError):
                    self.missing.append(path)
                    continue
                wrapper = self._wrap(original, path.partition(":")[2], layer)
                self._rebind(owner, attr, original, wrapper)
        return self.missing

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            if module is owner or module is None:
                continue
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(events: List[Dict]) -> Tuple[Dict[str, float],
                                             Dict[str, int]]:
    """Per-category self seconds and span counts from B/E events.

    Self time is a span's duration minus the durations of the spans
    directly nested in it; ``bench`` spans come back as ``other``."""
    selfs: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    stack: List[List] = []
    for event in events:
        if event["ph"] == "B":
            stack.append([event["cat"], event["ts"], 0.0])
        elif event["ph"] == "E" and stack:
            cat, start, nested = stack.pop()
            duration = event["ts"] - start
            if stack:
                stack[-1][2] += duration
            key = "other" if cat == BENCH_CAT else cat
            selfs[key] = selfs.get(key, 0.0) + (duration - nested) / 1e6
            if cat != BENCH_CAT:
                calls[key] = calls.get(key, 0) + 1
    return selfs, calls
