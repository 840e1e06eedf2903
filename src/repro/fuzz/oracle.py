"""Differential co-simulation oracle: one program, every layer.

Each generated program runs through (in divergence-stopping order):

===============  ==========================================================
layer            what runs
===============  ==========================================================
interp           big-step interpreter (`repro.bedrock2.semantics`) --
                 the reference; UB or out-of-fuel here means an *invalid*
                 program (a generator bug), never a divergence
binlint          *static* layer: the binary-level abstract interpreter
                 (`repro.analysis.binlint`) lints the compiled image
                 before anything executes it, and validates its stores
                 against the source (B2A108); any finding is a
                 divergence (the compiler emitted code that violates an
                 ISA-level invariant or changes what the program
                 writes), shrunk like any other failure
wcet             second static layer: `repro.analysis.wcet` proves WCET
                 and stack bounds from the same abstract interpretation
                 (computed once, by `binlint` when it runs); the
                 dynamic layers' measured stack watermark and pipeline
                 firings must stay under them
compiled         compiled RV32IM binary on the ISA spec machine
                 (`repro.riscv.machine`), reference interpreter loop
fast             the same binary on the same machine through the
                 fast-path engine (`repro.riscv.fastpath`: shared
                 executors + fused blocks + flat RAM); additionally
                 compared against the "compiled" layer's *full machine
                 state* (registers, pc, instret, memory, XAddrs, trace,
                 stack watermark)
kami-spec        the same binary on the single-cycle Kami processor
kami-pipelined   the same binary on the paper's p4mm pipeline
===============  ==========================================================

The five executing layers observe the same synthetic MMIO device (a
fresh copy each -- the device is deterministic in its access sequence,
so layers agree iff their MMIO behavior agrees). Compared per layer:
return values, the final scratch region, and the full MMIO trace
(reusing the refinement checker's
`repro.kami.refinement.match_trace_prefix`). The pipelined processor is
additionally prefix-checked *during* execution so a divergence is
caught at the first wrong event rather than at a timeout.

The small-step semantics (`repro.bedrock2.smallstep`) is no layer: run
beside the interpreter it killed no catalog mutation. Its agreement
with the interpreter (§4.2) is checked by
`tests/test_bedrock2_agreement.py` and `repro check`.

A sampled cross-check of `repro.bedrock2.vcgen` piggybacks on the
reference run: we symbolically execute the program with a collecting VC
(no solver verdicts), then concretely evaluate every collected proof
obligation in the model induced by the interpreter's MMIO reads -- an
obligation that evaluates false on the concretely-taken path is a logic
divergence.

`run_fuzz_seed` is the picklable unit of work dispatched by
`repro.logic.dispatch.parallel_call`; per-layer runtimes are counters,
merged across workers.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..bedrock2 import vcgen
from ..bedrock2.ast_ import Program, cmd_size
from ..bedrock2.extspec import MMIOSpec
from ..bedrock2.semantics import (
    Memory,
    MMIOExtHandler,
    OutOfFuel,
    UndefinedBehavior,
    run_function,
    to_mmio_triples,
)
from ..compiler.pipeline import CompileError, compile_program
from ..kami.refinement import (
    build_pipelined_system,
    build_spec_system,
    match_trace_prefix,
)
from ..logic import terms as T
from ..platform.bus import KamiWorldAdapter
from ..riscv.fastpath import machine_state_diff
from ..riscv.machine import RiscvMachine, RiscvUB
from .generator import (
    DEV_BASE,
    DEV_SIZE,
    GenConfig,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    generate_program,
)

#: Stop-at-first-divergence comparison order; "interp" is the reference.
#: "wcet" is the second static layer: it must *prove* timing and stack
#: bounds that the dynamic layers after it are then measured against.
LAYERS = ("interp", "binlint", "wcet", "compiled", "fast", "kami-spec",
          "kami-pipelined")

_MEM_SIZE = 1 << 16          # machine RAM [0, 0x10000): image, scratch, stack
_STACK_TOP = 1 << 16
_RAM_WORDS = _MEM_SIZE // 4  # Kami RAM covers exactly the same range
_SCRATCH_WORD = SCRATCH_BASE // 4
_MAX_MACHINE_STEPS = 200_000  # generated programs retire < ~20k instrs
_PIPELINE_CHUNK = 256

_PROGRAMS = obs.counter("fuzz.programs")
_DIVERGENCES = obs.counter("fuzz.divergences")
_INVALID = obs.counter("fuzz.invalid_programs")


class SyntheticDevice:
    """Deterministic MMIO device: the value of a read depends only on the
    address and how many reads happened before it, so independent copies
    presented with the same access sequence answer identically."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes: List[Tuple[int, int]] = []

    def read(self, addr: int) -> int:
        self.reads += 1
        return (addr ^ (self.reads * 0x9E3779B1) ^ 0x5A5A1234) & 0xFFFFFFFF

    def write(self, addr: int, value: int) -> None:
        self.writes.append((addr, value))

    def is_mmio(self, addr: int) -> bool:
        return DEV_BASE <= addr < DEV_BASE + DEV_SIZE


class LayerOutcome:
    """What one layer produced: comparable (rets, scratch, trace) on
    success, or an error kind + detail."""

    __slots__ = ("name", "status", "rets", "scratch", "trace", "detail",
                 "cycles")

    def __init__(self, name: str, status: str = "ok",
                 rets: Tuple[int, ...] = (), scratch: bytes = b"",
                 trace: Optional[List[Tuple[str, int, int]]] = None,
                 detail: str = "", cycles: Optional[int] = None):
        self.name = name
        self.status = status       # "ok" | "crash" | "stuck" | "timeout"
        self.rets = rets
        self.scratch = scratch
        self.trace = trace if trace is not None else []
        self.detail = detail
        # Successful rule firings spent (kami-pipelined only): the
        # measured side of the WCET soundness check.
        self.cycles = cycles


def _timed(layer: str, fn: Callable[[], LayerOutcome]) -> LayerOutcome:
    t0 = time.perf_counter()
    try:
        return fn()
    finally:
        micros = int((time.perf_counter() - t0) * 1e6)
        obs.counter("fuzz.layer.%s.micros" % layer).inc(micros)
        obs.counter("fuzz.layer.%s.runs" % layer).inc()


def _scratch_memory() -> Memory:
    return Memory.from_regions([(SCRATCH_BASE, bytes(SCRATCH_SIZE))])


def _scratch_from_snapshot(snap: Dict[int, int]) -> bytes:
    return bytes(snap.get(SCRATCH_BASE + i, 0) for i in range(SCRATCH_SIZE))


def _run_interp(program: Program) -> LayerOutcome:
    dev = SyntheticDevice()
    mem = _scratch_memory()
    rets, state = run_function(program, "main", (), mem=mem,
                               ext=MMIOExtHandler(dev))
    return LayerOutcome("interp", rets=tuple(rets),
                        scratch=_scratch_from_snapshot(mem.snapshot()),
                        trace=to_mmio_triples(state.trace))


def _lint_config():
    """The oracle's memory map for the static layers: owned RAM below
    the stack top, the synthetic device as the only MMIO range."""
    from ..analysis.binlint import BinaryLintConfig

    return BinaryLintConfig.for_platform(
        _STACK_TOP, ((DEV_BASE, DEV_BASE + DEV_SIZE),))


def _binlint_findings(program: Program, compiled):
    """The static layer: the full binary lint of the compiled image,
    abstract-interpretation checks and translation validation against
    ``program``, as ``lint --binary`` runs it. Returns ``(analyses,
    findings)``; the `wcet` layer reuses ``analyses`` instead of
    analyzing the image again. Imported lazily so execution-only layer
    subsets never pay for the analysis import."""
    from ..analysis.binlint import analyze_image, lint_binary_program

    config = _lint_config()
    analyses = analyze_image(compiled.image, compiled.symbols, config)
    return analyses, lint_binary_program(program, compiled, config,
                                         analyses=analyses)


def _wcet_prove(compiled, analyses) -> Tuple[Optional[dict], Optional[str]]:
    """The second static layer: prove WCET and stack bounds, from the
    `binlint` layer's ``analyses`` (None when that layer did not run).

    Returns ``({"static_cycles": fill + wcet, "stack_bound": bytes},
    None)`` on success or ``(None, detail)`` when the analyzer cannot
    bound the program -- generated programs are fuel-bounded by
    construction, so an unproved bound is an analyzer bug and diverges
    like any other kill.  Analyzer *crashes* (possible on mutated
    binaries with mangled control flow) are reported the same way, not
    raised.  Lazy imports, mirroring `_binlint_findings`.
    """
    from ..analysis.costmodel import pipeline_cost_model
    from ..analysis.wcet import TimingConfig, analyze_timing

    icache_words = len(compiled.image) // 4 + 4
    try:
        config = TimingConfig(lint=_lint_config(),
                              model=pipeline_cost_model())
        report = analyze_timing(compiled, config,
                                icache_words=icache_words,
                                analyses=analyses)
    except Exception as exc:  # mutated image: analyzer must not crash out
        return None, "analyzer error: %s: %s" % (type(exc).__name__, exc)
    if report.findings:
        shown = "; ".join(d.render() for d in report.findings[:3])
        if len(report.findings) > 3:
            shown += "; (+%d more)" % (len(report.findings) - 3)
        return None, shown
    if report.wcet_cycles is None or report.startup_cycles is not None:
        return None, ("program did not get a terminating WCET "
                      "(wcet=%r startup=%r)" % (report.wcet_cycles,
                                                report.startup_cycles))
    if report.stack_bound is None:
        return None, "no static stack bound"
    return {"static_cycles": report.fill_cycles + report.wcet_cycles,
            "stack_bound": report.stack_bound}, None


def _run_machine(name: str, compiled, n_rets: int,
                 fast: bool) -> Tuple[LayerOutcome, RiscvMachine]:
    """Run the compiled binary on the ISA machine (reference interpreter
    loop or the fast-path engine); returns the outcome plus the final
    machine, kept for full-state comparison and for the retired
    instruction count (the step budget reference for both Kami layers)."""
    machine = _isa_machine(compiled, fast)
    machine.run(_MAX_MACHINE_STEPS, until_pc=compiled.halt_pc)
    if machine.pc != compiled.halt_pc:
        return (LayerOutcome(name, status="timeout",
                             trace=list(machine.trace),
                             detail="no halt within %d steps"
                             % _MAX_MACHINE_STEPS),
                machine)
    rets = tuple(machine.get_register(10 + i) for i in range(n_rets))
    scratch = bytes(machine.mem[SCRATCH_BASE + i] for i in range(SCRATCH_SIZE))
    return (LayerOutcome(name, rets=rets, scratch=scratch,
                         trace=list(machine.trace)),
            machine)


def _isa_machine(compiled, fast: bool) -> RiscvMachine:
    """The compiled binary loaded on the ISA machine, over a fresh device."""
    return RiscvMachine.with_program(compiled.image, base=0, pc=0,
                                     mem_size=_MEM_SIZE,
                                     mmio_bus=SyntheticDevice(), fast=fast)


def _isa_instret(compiled) -> int:
    """Instructions the reference ISA machine retires on ``compiled``
    before it halts, faults or reaches the step limit: the scale of both
    Kami layers' step budgets when the "compiled" layer does not run."""
    machine = _isa_machine(compiled, fast=False)
    try:
        machine.run(_MAX_MACHINE_STEPS, until_pc=compiled.halt_pc)
    except RiscvUB:
        pass
    return machine.instret


def _scratch_from_ram(ram: Sequence[int]) -> bytes:
    out = bytearray()
    for w in ram[_SCRATCH_WORD:_SCRATCH_WORD + SCRATCH_SIZE // 4]:
        out += bytes(((w >> (8 * i)) & 0xFF) for i in range(4))
    return bytes(out)


def _run_kami_spec(compiled, n_rets: int, ref_instret: int) -> LayerOutcome:
    system = build_spec_system(compiled.image,
                               KamiWorldAdapter(SyntheticDevice()),
                               ram_words=_RAM_WORDS)
    proc, mem_mod = system.modules
    budget = ref_instret + 64
    system.run(budget, stop=lambda s: proc.regs["pc"] == compiled.halt_pc)
    if proc.regs["pc"] != compiled.halt_pc:
        return LayerOutcome("kami-spec", status="stuck",
                            trace=system.mmio_trace(),
                            detail="pc=%#x after %d steps"
                            % (proc.regs["pc"], budget))
    rf = proc.regs["rf"]
    return LayerOutcome("kami-spec",
                        rets=tuple(rf[10 + i] for i in range(n_rets)),
                        scratch=_scratch_from_ram(mem_mod.regs["ram"]),
                        trace=system.mmio_trace())


def _run_kami_pipelined(compiled, n_rets: int, ref_instret: int,
                        expected: LayerOutcome) -> LayerOutcome:
    """Run p4mm with in-flight trace prefix checking against the
    reference outcome. The pipeline never quiesces at the halt spin, so
    completion is detected by state: full expected trace emitted, return
    registers and scratch memory settled to the expected values."""
    icache_words = len(compiled.image) // 4 + 4
    system = build_pipelined_system(compiled.image,
                                    KamiWorldAdapter(SyntheticDevice()),
                                    ram_words=_RAM_WORDS,
                                    icache_words=icache_words)
    proc, mem_mod = system.modules
    budget = icache_words + 24 * ref_instret + 600

    def snapshot() -> LayerOutcome:
        rf = proc.regs["rf"]
        return LayerOutcome("kami-pipelined",
                            rets=tuple(rf[10 + i] for i in range(n_rets)),
                            scratch=_scratch_from_ram(mem_mod.regs["ram"]),
                            trace=system.mmio_trace())

    spent = 0
    while spent < budget:
        chunk = min(_PIPELINE_CHUNK, budget - spent)
        taken = system.run(chunk)
        spent += taken
        trace = system.mmio_events
        prefix = match_trace_prefix(trace, expected.trace)
        if not prefix:
            out = snapshot()
            out.status = "ok"  # comparable; the trace mismatch is the diff
            out.detail = prefix.detail
            out.cycles = spent
            return out
        if len(trace) == len(expected.trace):
            done = snapshot()
            if done.rets == expected.rets and done.scratch == expected.scratch:
                done.cycles = spent
                return done
        if taken < chunk:  # quiescent: every rule aborted
            out = snapshot()
            out.status = "stuck"
            out.detail = "pipeline quiescent after %d steps" % spent
            out.cycles = spent
            return out
    out = snapshot()
    out.status = "timeout"
    out.detail = "no settle within %d steps" % budget
    out.cycles = spent
    return out


def _compare(reference: LayerOutcome, other: LayerOutcome) -> Optional[dict]:
    """None if the layers agree; otherwise a JSON-able divergence record."""
    if other.status != "ok":
        return {"layer": other.name, "kind": other.status,
                "detail": other.detail}
    trace_match = match_trace_prefix(other.trace, reference.trace)
    if not trace_match or len(other.trace) != len(reference.trace):
        return {"layer": other.name, "kind": "trace",
                "detail": trace_match.detail or
                "trace length %d vs %d" % (len(other.trace),
                                           len(reference.trace))}
    if other.rets != reference.rets:
        return {"layer": other.name, "kind": "rets",
                "detail": "rets %r vs %r" % (list(other.rets),
                                             list(reference.rets))}
    if other.scratch != reference.scratch:
        idx = next(i for i in range(SCRATCH_SIZE)
                   if other.scratch[i] != reference.scratch[i])
        return {"layer": other.name, "kind": "memory",
                "detail": "scratch[%#x]: %#x vs %#x"
                % (SCRATCH_BASE + idx, other.scratch[idx],
                   reference.scratch[idx])}
    return None


def run_differential(program: Program,
                     layers: Sequence[str] = LAYERS) -> dict:
    """Run ``program`` through ``layers`` and stop at the first
    divergence from the reference interpreter.

    Returns ``{"status": "ok"|"divergence"|"invalid", "layers": [names
    actually run], "divergence": {...}|None, "rets": [...], "trace_len":
    N}``. "invalid" means the reference itself hit UB or ran out of fuel
    -- a generator bug, not a layer bug.
    """
    _PROGRAMS.inc()
    try:
        reference = _timed("interp", lambda: _run_interp(program))
    except (UndefinedBehavior, OutOfFuel) as exc:
        _INVALID.inc()
        return {"status": "invalid", "layers": ["interp"],
                "divergence": None,
                "detail": "%s: %s" % (type(exc).__name__, exc)}
    n_rets = len(reference.rets)
    result = {"status": "ok", "layers": ["interp"], "divergence": None,
              "rets": list(reference.rets),
              "trace_len": len(reference.trace)}

    def diverged(record: dict) -> dict:
        _DIVERGENCES.inc()
        result["status"] = "divergence"
        result["divergence"] = record
        return result

    # Every layer after the reference runs the binary.
    if not any(name in layers for name in LAYERS[1:]):
        return result
    try:
        compiled = compile_program(program, stack_top=_STACK_TOP)
    except CompileError as exc:
        return diverged({"layer": "compiled", "kind": "crash",
                         "detail": "CompileError: %s" % exc})
    if len(compiled.image) > SCRATCH_BASE:
        return diverged({"layer": "compiled", "kind": "crash",
                         "detail": "image overlaps scratch (%d bytes)"
                         % len(compiled.image)})

    analyses = None
    if "binlint" in layers:
        result["layers"].append("binlint")
        analyses, findings = _timed(
            "binlint", lambda: _binlint_findings(program, compiled))
        if findings:
            shown = "; ".join(d.render() for d in findings[:3])
            if len(findings) > 3:
                shown += "; (+%d more)" % (len(findings) - 3)
            return diverged({"layer": "binlint", "kind": "static",
                             "detail": shown})

    bounds: Optional[dict] = None
    if "wcet" in layers:
        result["layers"].append("wcet")
        bounds, why = _timed("wcet", lambda: _wcet_prove(compiled, analyses))
        if bounds is None:
            return diverged({"layer": "wcet", "kind": "static",
                             "detail": why or "unbounded"})
        result["wcet"] = dict(bounds)
    analyses = None  # released: the dynamic layers do not read it

    def stack_overrun(machine, layer: str) -> Optional[dict]:
        """Watermark vs proved bound: `sp_min` is the lowest value ever
        written to sp, so the measured high water is its distance below
        the stack top (zero if sp was never set)."""
        if bounds is None:
            return None
        depth = max(0, _STACK_TOP - machine.sp_min)
        result["wcet"]["measured_stack"] = max(
            depth, result["wcet"].get("measured_stack", 0))
        if depth > bounds["stack_bound"]:
            return {"layer": layer, "kind": "wcet-soundness",
                    "detail": "stack watermark %d exceeds static bound %d"
                    % (depth, bounds["stack_bound"])}
        return None

    ref_machine = None
    if "compiled" in layers:
        result["layers"].append("compiled")
        try:
            machine_out, ref_machine = _timed(
                "compiled",
                lambda: _run_machine("compiled", compiled, n_rets, False))
        except RiscvUB as exc:
            return diverged({"layer": "compiled", "kind": "crash",
                             "detail": "RiscvUB: %s" % exc})
        record = _compare(reference, machine_out)
        if record:
            return diverged(record)
        record = stack_overrun(ref_machine, "compiled")
        if record:
            return diverged(record)

    if "fast" in layers:
        result["layers"].append("fast")
        try:
            fast_out, fast_machine = _timed(
                "fast", lambda: _run_machine("fast", compiled, n_rets, True))
        except RiscvUB as exc:
            return diverged({"layer": "fast", "kind": "crash",
                             "detail": "RiscvUB: %s" % exc})
        record = _compare(reference, fast_out)
        if record:
            return diverged(record)
        if ref_machine is not None:
            # Beyond the observable outcome, the fast engine must leave
            # the machine in the *bit-identical* final state.
            state_diff = machine_state_diff(ref_machine, fast_machine)
            if state_diff:
                return diverged({"layer": "fast", "kind": "machine-state",
                                 "detail": state_diff})
        record = stack_overrun(fast_machine, "fast")
        if record:
            return diverged(record)

    if "kami-spec" in layers or "kami-pipelined" in layers:
        ref_instret = (ref_machine.instret if ref_machine is not None
                       else _isa_instret(compiled))
    if "kami-spec" in layers:
        result["layers"].append("kami-spec")
        spec_out = _timed("kami-spec",
                          lambda: _run_kami_spec(compiled, n_rets,
                                                 ref_instret))
        record = _compare(reference, spec_out)
        if record:
            return diverged(record)

    if "kami-pipelined" in layers:
        result["layers"].append("kami-pipelined")
        pipe_out = _timed("kami-pipelined",
                          lambda: _run_kami_pipelined(compiled, n_rets,
                                                      ref_instret, reference))
        record = _compare(reference, pipe_out)
        if record:
            return diverged(record)
        if bounds is not None and pipe_out.cycles is not None:
            # Measured firings vs the proved bound. Completion is only
            # *detected* at chunk granularity (the halt spin keeps the
            # pipeline firing), so allow that detection lag on top.
            result["wcet"]["measured_cycles"] = pipe_out.cycles
            limit = bounds["static_cycles"] + 2 * _PIPELINE_CHUNK
            if pipe_out.cycles > limit:
                return diverged({
                    "layer": "kami-pipelined", "kind": "wcet-soundness",
                    "detail": "measured %d firings exceed static WCET %d "
                              "(+%d detection slack)"
                    % (pipe_out.cycles, bounds["static_cycles"],
                       2 * _PIPELINE_CHUNK)})
    return result


# -- logic (vcgen) cross-check -----------------------------------------------


class _CollectVC(vcgen.VC):
    """A VC that records proof obligations instead of discharging them.
    Path-pruning solver queries (`SymExec._feasible`, in-bounds
    resolution) still run normally, so the collected set is exactly what
    the real verifier would try to prove."""

    def __init__(self) -> None:
        super().__init__()
        self.collected: List[Tuple[tuple, object, tuple, str]] = []

    def prove(self, state, goal, context: str) -> None:
        self.collected.append(
            (tuple(state.path), goal, tuple(state.trace), context))


def logic_crosscheck(program: Program, reference: LayerOutcome) -> dict:
    """Concretely evaluate collected vcgen obligations in the model
    induced by the reference run's MMIO reads.

    For each obligation we bind the k-th symbolic ``mmio_read`` result to
    the k-th value the interpreter actually read, then evaluate the path
    facts: if any is unbound (symbolic stack base, havocked byte) or
    false (a path the concrete run did not take), the obligation is
    skipped; otherwise the goal itself must evaluate true.
    """
    out = {"obligations": 0, "checked": 0, "skipped": 0, "failed": 0,
           "errors": 0, "failures": []}
    concrete_reads = [value for (op, _addr, value) in reference.trace
                      if op == "ld"]
    vc = _CollectVC()
    state = vcgen.SymState()
    state.regions["scratch"] = vcgen.Region(
        "scratch", T.const(SCRATCH_BASE), SCRATCH_SIZE,
        [T.const(0, 8)] * SCRATCH_SIZE)
    try:
        executor = vcgen.SymExec(
            program, vc, MMIOSpec(((DEV_BASE, DEV_BASE + DEV_SIZE),)),
            unroll_limit=64)
        executor.run(program["main"].body, state, lambda final: None,
                     context="fuzz-logic")
    except Exception as exc:
        # Recorded, not raised: a solver budget (`SolverTimeout`) or a
        # `VerificationError` such as the unroll limit or an unowned access.
        out["errors"] += 1
        out["error_detail"] = "%s: %s" % (type(exc).__name__, exc)
        return out
    out["obligations"] = len(vc.collected)
    for path, goal, trace, context in vc.collected:
        model: Dict[str, int] = {}
        reads = iter(concrete_reads)
        for event in trace:
            if isinstance(event, vcgen.SymEvent) and event.action == "MMIOREAD":
                try:
                    model[event.rets[0].attr] = next(reads)
                except StopIteration:
                    break
        try:
            if not all(T.evaluate(fact, model) for fact in path):
                out["skipped"] += 1
                continue
            holds = T.evaluate(goal, model)
        except KeyError:
            out["skipped"] += 1
            continue
        out["checked"] += 1
        if not holds:
            out["failed"] += 1
            if len(out["failures"]) < 5:
                out["failures"].append(context)
    return out


# -- the picklable per-seed worker and the campaign driver -------------------


def run_fuzz_seed(seed: int, config: Optional[dict] = None,
                  mutation: Optional[str] = None,
                  logic_check: bool = False,
                  layers: Sequence[str] = LAYERS) -> dict:
    """Generate the program for ``seed`` and run the differential oracle
    (optionally under an injected mutation). JSON-able and picklable:
    this is the `repro.logic.dispatch.parallel_call` work unit."""
    gen_config = GenConfig.from_dict(config)
    program = generate_program(seed, gen_config)
    result = {"seed": seed, "stmts": cmd_size(program["main"].body)}
    if mutation is None:
        result.update(run_differential(program, layers=layers))
    else:
        from .mutate import mutation_context

        with mutation_context(mutation):
            result.update(run_differential(program, layers=layers))
        result["mutation"] = mutation
    if logic_check and result["status"] == "ok":
        logic = logic_crosscheck(program, _run_interp(program))
        result["logic"] = logic
        if logic["failed"]:
            result["status"] = "divergence"
            result["divergence"] = {
                "layer": "logic", "kind": "obligation",
                "detail": "%d obligation(s) evaluate false: %s"
                % (logic["failed"], ", ".join(logic["failures"]))}
    return result


def run_campaign(seeds: Sequence[int], config: Optional[GenConfig] = None,
                 mutation: Optional[str] = None,
                 logic_sample: int = 0, jobs: int = 1,
                 time_budget: Optional[float] = None) -> dict:
    """Run the oracle over ``seeds`` (in parallel when ``jobs > 1``),
    optionally stopping early once ``time_budget`` seconds have elapsed.

    The report is fully deterministic for a fixed seed list (no wall
    times in it); per-layer timing lives in the obs counter registry.
    """
    from ..logic.dispatch import parallel_call

    config_doc = (config or GenConfig()).to_dict()
    logic_seeds = set(list(seeds)[:logic_sample])
    deadline = (time.monotonic() + time_budget
                if time_budget is not None else None)
    results: List[dict] = []
    batch = max(1, 2 * max(jobs, 1))
    for start in range(0, len(seeds), batch):
        if deadline is not None and time.monotonic() >= deadline:
            break
        chunk = list(seeds)[start:start + batch]
        kwargs_list = [{"seed": s, "config": config_doc,
                        "mutation": mutation,
                        "logic_check": s in logic_seeds} for s in chunk]
        results.extend(parallel_call("repro.fuzz.oracle:run_fuzz_seed",
                                     kwargs_list, jobs=jobs))
    summary = {
        "programs": len(results),
        "divergences": sum(r["status"] == "divergence" for r in results),
        "invalid": sum(r["status"] == "invalid" for r in results),
        "logic_obligations": sum(r.get("logic", {}).get("obligations", 0)
                                 for r in results),
        "logic_checked": sum(r.get("logic", {}).get("checked", 0)
                             for r in results),
        "logic_failed": sum(r.get("logic", {}).get("failed", 0)
                            for r in results),
    }
    return {"format": "repro-fuzz-report", "version": 1,
            "config": config_doc, "mutation": mutation,
            "seeds": results, "summary": summary}
