"""Program-logic verification of the lightbulb software (paper Fig. 3,
"verification conditions" / "program logic" layers).

Each driver function is verified *modularly* against the Bedrock2 program
logic (`repro.bedrock2.vcgen`): callees are summarized by `Contract`s, so
re-verifying one function never revisits the others -- the paper's central
modularity discipline. What is established per function:

* **memory safety**: every load/store provably lands inside an owned
  region and is aligned (the famous obligation here is ``lan9250_drain``'s
  "frame fits in the 1520-byte buffer" -- the missing check in the
  prototype made it remotely exploitable, and `verify_drain_buggy_fails`
  shows the obligation is unprovable without it);
* **external-call validity**: every MMIO access provably targets a
  word-aligned address in the platform's MMIO ranges (``vcextern``);
* **total correctness of loops**: every polling loop carries an invariant
  and a strictly-decreasing unsigned measure (the timeout counters);
* **trace shape**: every event a loop emits satisfies its declared filter,
  and straight-line code's symbolic trace is checked against the shape the
  trace specification (`repro.sw.specs`) assigns to it;
* **functional postconditions**: e.g. SPI routines return ``busy`` in
  {0, 2^32-1}, the receive path returns ``num_bytes <= 1520`` on success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..bedrock2.ast_ import Cmd, Function, Program, SIf, SSeq, SStackalloc, SWhile
from ..bedrock2.extspec import MMIOSpec
from ..bedrock2.vcgen import (
    Contract,
    FunctionSpec,
    LoopSpec,
    Region,
    SymEvent,
    TraceHole,
    VerificationError,
    VerifyReport,
    verify_function,
)
from ..logic import terms as T
from ..logic.dispatch import parallel_call
from ..platform.bus import MMIO_RANGES
from . import constants as C
from .program import lightbulb_program

WORD0 = T.const(0)
ZERO32 = T.const(0)
ALLONES = T.const(0xFFFFFFFF)


def platform_mmio_spec() -> MMIOSpec:
    return MMIOSpec(MMIO_RANGES)


# -- AST surgery: attach loop specs without duplicating driver sources -------------

def attach_loop_specs(fn: Function, specs: List[LoopSpec]) -> Function:
    """Return ``fn`` with its while-loops (in preorder) annotated."""
    remaining = list(specs)

    def walk(c: Cmd) -> Cmd:
        if isinstance(c, SWhile):
            spec = remaining.pop(0) if remaining else None
            return SWhile(c.cond, walk(c.body), spec=spec)
        if isinstance(c, SSeq):
            return SSeq(walk(c.first), walk(c.rest))
        if isinstance(c, SIf):
            return SIf(c.cond, walk(c.then_), walk(c.else_))
        if isinstance(c, SStackalloc):
            return SStackalloc(c.name, c.nbytes, walk(c.body))
        return c

    new_body = walk(fn.body)
    if remaining:
        raise ValueError("more loop specs than loops in %s" % fn.name)
    return Function(fn.name, fn.params, fn.rets, new_body, spec=fn.spec)


# -- event filters (trace-shape obligations for polling loops) ----------------------

def _is_const(term: T.Term, value: int) -> bool:
    return term.is_const() and term.value == value


def spi_poll_filter(register_addr: int, may_write: bool):
    """Events allowed inside an SPI polling loop: reads of the polled
    register, plus (for the write loop) the final TXDATA store."""

    def check(vc, state, event, ctx):
        if not isinstance(event, SymEvent):
            raise VerificationError(ctx, "unexpected trace element %r" % (event,))
        if event.action == "MMIOREAD":
            if not _is_const(event.args[0], register_addr):
                raise VerificationError(
                    ctx, "poll loop read unexpected address %r" % (event.args[0],))
            return
        if may_write and event.action == "MMIOWRITE":
            if not _is_const(event.args[0], register_addr):
                raise VerificationError(
                    ctx, "poll loop wrote unexpected address %r" % (event.args[0],))
            return
        raise VerificationError(ctx, "poll loop performed %r" % (event.action,))

    return check


def call_hole_filter(*tags: str):
    """Loops whose bodies only act through verified callees: the trace
    contribution must consist of the callees' summarized holes."""

    def check(vc, state, event, ctx):
        if isinstance(event, TraceHole) and event.tag in tags:
            return
        raise VerificationError(ctx, "loop emitted %r, expected holes %r"
                                % (event, tags))

    return check


# -- common postcondition helpers ----------------------------------------------------

def _assume_bool_flag(vc, state, term: T.Term) -> None:
    state.assume(T.or_(T.eq(term, ZERO32), T.eq(term, ALLONES)))


def _prove_bool_flag(vc, state, term: T.Term, ctx: str) -> None:
    vc.prove(state, T.or_(T.eq(term, ZERO32), T.eq(term, ALLONES)), ctx)


# -- contracts (modular summaries) ------------------------------------------------------

def make_contracts() -> Dict[str, Contract]:
    def spi_write_post(vc, state, args, rets, ctx):
        _assume_bool_flag(vc, state, rets[0])

    def spi_read_post(vc, state, args, rets, ctx):
        _assume_bool_flag(vc, state, rets[1])
        state.assume(T.ule(rets[0], T.const(0xFF)))

    def spi_xchg_post(vc, state, args, rets, ctx):
        _assume_bool_flag(vc, state, rets[1])
        state.assume(T.ule(rets[0], T.const(0xFF)))

    def readword_post(vc, state, args, rets, ctx):
        _assume_bool_flag(vc, state, rets[1])

    def writeword_post(vc, state, args, rets, ctx):
        _assume_bool_flag(vc, state, rets[0])

    def drain_pre(vc, state, args, ctx):
        # The caller must establish the famous bound: at most the buffer.
        buf, n = args
        region = state.regions.get("buf")
        if region is None:
            raise VerificationError(ctx, "no buffer region for drain")
        vc.prove(state, T.eq(buf, region.base), ctx + "/buf-is-region")
        vc.prove(state, T.ule(n, T.const(C.RX_BUFFER_BYTES)), ctx + "/fits")

    def drain_post(vc, state, args, rets, ctx):
        _assume_bool_flag(vc, state, rets[0])

    def tryrecv_post(vc, state, args, rets, ctx):
        num_bytes, err = rets
        state.assume(T.ule(num_bytes, T.const(0x3FFF)))
        state.assume(T.or_(T.eq(err, ZERO32),
                           T.eq(err, T.const(C.ERR_OVERSIZE)),
                           T.eq(err, ALLONES),
                           T.eq(err, T.const(C.ERR_TIMEOUT))))

    def init_post(vc, state, args, rets, ctx):
        pass

    def hole(tag):
        return lambda args, rets: [TraceHole(tag)]

    return {
        "spi_write": Contract("spi_write", post=spi_write_post,
                              trace_effect=hole("spi_write")),
        "spi_read": Contract("spi_read", post=spi_read_post,
                             trace_effect=hole("spi_read")),
        "spi_xchg": Contract("spi_xchg", post=spi_xchg_post,
                             trace_effect=hole("spi_xchg")),
        "lan9250_readword": Contract("lan9250_readword", post=readword_post,
                                     trace_effect=hole("lan9250_readword")),
        "lan9250_writeword": Contract("lan9250_writeword", post=writeword_post,
                                      trace_effect=hole("lan9250_writeword")),
        "lan9250_wait_for_boot": Contract(
            "lan9250_wait_for_boot",
            post=lambda vc, state, args, rets, ctx:
            _assume_bool_flag(vc, state, rets[0])
            if False else state.assume(
                T.or_(T.eq(rets[0], ZERO32), T.eq(rets[0], T.const(C.ERR_TIMEOUT)))),
            trace_effect=hole("lan9250_wait_for_boot")),
        "lan9250_init": Contract("lan9250_init", post=init_post,
                                 trace_effect=hole("lan9250_init")),
        "lan9250_drain": Contract("lan9250_drain", pre=drain_pre,
                                  post=drain_post,
                                  modified_regions=("buf",),
                                  trace_effect=hole("lan9250_drain")),
        "lan9250_tryrecv": Contract("lan9250_tryrecv", post=tryrecv_post,
                                    modified_regions=("buf",),
                                    trace_effect=hole("lan9250_tryrecv")),
        "lightbulb_init": Contract("lightbulb_init", post=init_post,
                                   trace_effect=hole("lightbulb_init")),
        "lightbulb_loop": Contract("lightbulb_loop", post=init_post,
                                   modified_regions=("buf",),
                                   trace_effect=hole("lightbulb_loop")),
    }


# -- per-function loop specs --------------------------------------------------------------

def spi_poll_loop_spec(register_addr: int, may_write: bool, tag: str,
                       extra_inv: Optional[Callable] = None) -> LoopSpec:
    def invariant(state):
        conj = T.and_(
            T.ule(state.locals["i"], T.const(C.SPI_PATIENCE)),
            T.or_(T.eq(state.locals["busy"], ZERO32),
                  T.eq(state.locals["busy"], ALLONES)),
        )
        if extra_inv is not None:
            conj = T.and_(conj, extra_inv(state))
        return conj

    return LoopSpec(invariant=invariant,
                    measure=lambda state: state.locals["i"],
                    event_filter=spi_poll_filter(register_addr, may_write),
                    tag=tag)


def call_poll_loop_spec(err_values, tag: str, *hole_tags: str) -> LoopSpec:
    def invariant(state):
        err = state.locals["err"]
        return T.and_(
            T.ule(state.locals["i"], T.const(C.BOOT_PATIENCE)),
            T.or_(*[T.eq(err, T.const(v)) for v in err_values]),
        )

    return LoopSpec(invariant=invariant,
                    measure=lambda state: state.locals["i"],
                    event_filter=call_hole_filter(*hole_tags),
                    tag=tag)


def drain_loop_spec() -> LoopSpec:
    def invariant(state):
        return T.and_(
            T.ule(state.locals["i"], state.locals["num_words"]),
            T.ule(state.locals["num_words"], T.const(C.RX_BUFFER_BYTES // 4)),
            T.or_(T.eq(state.locals["err"], ZERO32),
                  T.eq(state.locals["err"], ALLONES),
                  T.eq(state.locals["err"], T.const(C.ERR_TIMEOUT))),
        )

    return LoopSpec(invariant=invariant,
                    measure=lambda state: T.sub(state.locals["num_words"],
                                                state.locals["i"]),
                    modified_regions=("buf",),
                    event_filter=call_hole_filter("lan9250_readword"),
                    tag="drain")


# -- function specifications ------------------------------------------------------------------

def buffer_pre(vc, state, args):
    """args[0] is a word-aligned 1520-byte buffer the function owns."""
    buf = args[0]
    state.assume(T.eq(T.band(buf, T.const(3)), ZERO32))
    state.assume(T.ule(buf, T.const(0xFFFFFFFF - C.RX_BUFFER_BYTES)))
    state.regions["buf"] = Region(
        "buf", buf, C.RX_BUFFER_BYTES,
        [vc.fresh("buf_b%d" % i, 8) for i in range(C.RX_BUFFER_BYTES)])


def spi_write_spec() -> FunctionSpec:
    def post(vc, state, args, rets):
        _prove_bool_flag(vc, state, rets[0], "spi_write/post-busy-flag")
        for event in state.trace:
            if isinstance(event, SymEvent):
                if not _is_const(event.args[0], C.SPI_TXDATA_ADDR):
                    raise VerificationError("spi_write/post",
                                            "touched non-TXDATA address")

    return FunctionSpec(post=post)


def spi_read_spec() -> FunctionSpec:
    def post(vc, state, args, rets):
        _prove_bool_flag(vc, state, rets[1], "spi_read/post-busy-flag")
        vc.prove(state, T.ule(rets[0], T.const(0xFF)), "spi_read/post-byte")

    return FunctionSpec(post=post)


def spi_xchg_spec() -> FunctionSpec:
    def post(vc, state, args, rets):
        _prove_bool_flag(vc, state, rets[1], "spi_xchg/post-busy-flag")
        vc.prove(state, T.ule(rets[0], T.const(0xFF)), "spi_xchg/post-byte")

    return FunctionSpec(post=post)


def flag_ret_spec(index: int, allowed: List[int], name: str) -> FunctionSpec:
    def post(vc, state, args, rets):
        goal = T.or_(*[T.eq(rets[index], T.const(v)) for v in allowed])
        vc.prove(state, goal, "%s/post-err" % name)

    return FunctionSpec(post=post)


def drain_spec() -> FunctionSpec:
    def pre(vc, state, args):
        buffer_pre(vc, state, args)
        state.assume(T.ule(args[1], T.const(C.RX_BUFFER_BYTES)))

    def post(vc, state, args, rets):
        pass  # memory safety and loop totality are the content here

    return FunctionSpec(pre=pre, post=post)


def drain_spec_no_bound() -> FunctionSpec:
    """The buggy scenario: caller forgot the length check, so ``n`` is only
    bounded by the status-word field (0x3FFF). Verification must fail."""

    def pre(vc, state, args):
        buffer_pre(vc, state, args)
        state.assume(T.ule(args[1], T.const(0x3FFF)))

    return FunctionSpec(pre=pre)


def tryrecv_spec(buggy: bool = False) -> FunctionSpec:
    def pre(vc, state, args):
        buffer_pre(vc, state, args)

    def post(vc, state, args, rets):
        num_bytes, err = rets
        ok = T.eq(err, ZERO32)
        fits = T.ule(num_bytes, T.const(C.RX_BUFFER_BYTES))
        vc.prove(state, T.implies(ok, fits), "tryrecv/post-bound")

    return FunctionSpec(pre=pre, post=post)


def lightbulb_loop_spec() -> FunctionSpec:
    def pre(vc, state, args):
        buffer_pre(vc, state, args)

    def post(vc, state, args, rets):
        # The GPIO writes this function may emit are exactly bulb commands.
        for event in state.trace:
            if isinstance(event, SymEvent) and event.action == "MMIOWRITE":
                if _is_const(event.args[0], C.GPIO_OUTPUT_VAL_ADDR):
                    value = event.args[1]
                    goal = T.or_(T.eq(value, ZERO32),
                                 T.eq(value, T.const(1 << C.LIGHTBULB_PIN)))
                    vc.prove(state, goal, "lightbulb_loop/post-bulb-value")

    return FunctionSpec(pre=pre, post=post)


# -- the verification run -----------------------------------------------------------------------

@dataclass
class VerificationRun:
    reports: List[VerifyReport] = field(default_factory=list)

    @property
    def total_obligations(self) -> int:
        return sum(r.obligations for r in self.reports)

    @property
    def total_timeouts(self) -> int:
        return sum(len(r.timeouts) for r in self.reports)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def __str__(self):
        lines = [str(r) for r in self.reports]
        summary = ("total: %d functions, %d obligations"
                   % (len(self.reports), self.total_obligations))
        if self.total_timeouts:
            summary += ", %d timeouts" % self.total_timeouts
        lines.append(summary)
        return "\n".join(lines)


def _annotated_program(buggy: bool = False) -> Program:
    program = dict(lightbulb_program(buggy_driver=buggy))
    program["spi_write"] = attach_loop_specs(
        program["spi_write"],
        [spi_poll_loop_spec(C.SPI_TXDATA_ADDR, may_write=True, tag="spi_write_poll")])
    program["spi_read"] = attach_loop_specs(
        program["spi_read"],
        [spi_poll_loop_spec(
            C.SPI_RXDATA_ADDR, may_write=False, tag="spi_read_poll",
            # The returned byte stays in range across iterations -- the
            # invariant the first verification run showed was missing.
            extra_inv=lambda state: T.ule(state.locals["b"], T.const(0xFF)))])
    program["lan9250_wait_for_boot"] = attach_loop_specs(
        program["lan9250_wait_for_boot"],
        [call_poll_loop_spec((0, C.ERR_TIMEOUT), "boot_poll",
                             "lan9250_readword")])
    program["lan9250_init"] = attach_loop_specs(
        program["lan9250_init"],
        [call_poll_loop_spec((0, C.ERR_TIMEOUT), "hwcfg_poll",
                             "lan9250_readword")])
    program["lan9250_drain"] = attach_loop_specs(
        program["lan9250_drain"], [drain_loop_spec()])
    return program


# Ordered registries of independent verification tasks. Task names
# (``"lightbulb:spi_write"``) are the picklable unit of work the parallel
# dispatcher farms to workers: a worker resolves the name back through
# `run_verify_task`, so nothing un-picklable (specs are closures) ever
# crosses the process boundary.

_LIGHTBULB_SPECS: Dict[str, Callable[[], FunctionSpec]] = {
    "spi_write": spi_write_spec,
    "spi_read": spi_read_spec,
    "spi_xchg": spi_xchg_spec,
    "lan9250_readword":
        lambda: flag_ret_spec(1, [0, 0xFFFFFFFF], "lan9250_readword"),
    "lan9250_writeword":
        lambda: flag_ret_spec(0, [0, 0xFFFFFFFF], "lan9250_writeword"),
    "lan9250_wait_for_boot":
        lambda: flag_ret_spec(0, [0, C.ERR_TIMEOUT], "lan9250_wait_for_boot"),
    "lan9250_init": FunctionSpec,
    "lan9250_drain": drain_spec,
    "lan9250_tryrecv": tryrecv_spec,
    "lightbulb_init": FunctionSpec,
    "lightbulb_loop": lightbulb_loop_spec,
}


def _lock_loop_spec() -> FunctionSpec:
    from .doorlock import LOCK_PIN

    def pre(vc, state, args):
        buffer_pre(vc, state, args)

    def post(vc, state, args, rets):
        for event in state.trace:
            if isinstance(event, SymEvent) and event.action == "MMIOWRITE":
                if _is_const(event.args[0], C.GPIO_OUTPUT_VAL_ADDR):
                    goal = T.or_(T.eq(event.args[1], ZERO32),
                                 T.eq(event.args[1],
                                      T.const(1 << LOCK_PIN)))
                    vc.prove(state, goal, "doorlock_loop/post-lock-value")

    return FunctionSpec(pre=pre, post=post)


_DOORLOCK_SPECS: Dict[str, Callable[[], FunctionSpec]] = {
    "doorlock_init": FunctionSpec,
    "doorlock_loop": _lock_loop_spec,
}

LIGHTBULB_TASKS = tuple("lightbulb:" + name for name in _LIGHTBULB_SPECS)
DOORLOCK_TASKS = tuple("doorlock:" + name for name in _DOORLOCK_SPECS)


def _doorlock_annotated_program() -> Program:
    """The door-lock app with the shared drivers carrying the same loop
    annotations as in the lightbulb build."""
    from .doorlock import doorlock_program

    program = dict(doorlock_program())
    annotated = _annotated_program()
    for name in ("spi_write", "spi_read", "lan9250_wait_for_boot",
                 "lan9250_init", "lan9250_drain"):
        program[name] = annotated[name]
    return program


def run_verify_task(task: str, max_conflicts: int = 4_000_000,
                    prescreen: bool = True) -> VerifyReport:
    """Verify one function identified by task name (``app:function``).

    This is the worker-side entry point of the parallel dispatcher; it is
    also the sequential unit, so ``--jobs 1`` and ``--jobs N`` run the
    exact same code per function.

    ``prescreen`` (default on) installs the abstract-interpretation
    prescreener (`repro.analysis.prescreen`), which discharges obligations
    already decided by interval/known-bits reasoning over the path facts
    before any solver query. It only ever proves valid goals, so the
    verdict is identical either way; only the solver workload changes.
    """
    app, _, fname = task.partition(":")
    if app == "lightbulb" and fname in _LIGHTBULB_SPECS:
        program = _annotated_program()
        spec = _LIGHTBULB_SPECS[fname]()
    elif app == "doorlock" and fname in _DOORLOCK_SPECS:
        program = _doorlock_annotated_program()
        spec = _DOORLOCK_SPECS[fname]()
    else:
        raise ValueError("unknown verification task %r" % task)
    hook = None
    if prescreen:
        from ..analysis.prescreen import Prescreener
        hook = Prescreener()
    return verify_function(program, fname, spec, platform_mmio_spec(),
                           contracts=make_contracts(),
                           max_conflicts=max_conflicts,
                           prescreen=hook)


def _run_tasks(names, max_conflicts: int, jobs: int,
               cache, prescreen: bool = True) -> VerificationRun:
    kwargs_list = [{"task": name, "max_conflicts": max_conflicts,
                    "prescreen": prescreen} for name in names]
    return VerificationRun(parallel_call("repro.sw.verify:run_verify_task",
                                         kwargs_list, jobs, cache))


def verify_all(max_conflicts: int = 4_000_000, jobs: int = 1,
               cache=None, prescreen: bool = True) -> VerificationRun:
    """Verify every lightbulb function against its specification.

    ``jobs`` > 1 dispatches the (independent, modular) per-function tasks
    to a process pool; ``cache`` is an optional
    `repro.logic.cache.ProofCache` consulted for every VC, so re-runs of
    unchanged functions skip the solver entirely. Reports come back in
    the same order either way. ``prescreen`` is documented on
    `run_verify_task`.
    """
    return _run_tasks(LIGHTBULB_TASKS, max_conflicts, jobs, cache,
                      prescreen=prescreen)


def verify_doorlock(max_conflicts: int = 4_000_000, jobs: int = 1,
                    cache=None, prescreen: bool = True) -> VerificationRun:
    """Verify the door-lock application's own functions, *reusing* the
    driver contracts unchanged -- the modular-verification dividend: a new
    app only proves its new code (paper section 2.1's motivation)."""
    return _run_tasks(DOORLOCK_TASKS, max_conflicts, jobs, cache,
                      prescreen=prescreen)


def verify_drain_buggy_fails(max_conflicts: int = 4_000_000) -> VerificationError:
    """The negative result: without the length check, the drain loop's
    memory-safety obligation is falsifiable -- the paper's "unprovable Coq
    goal" that exposed the remote-code-execution bug. Returns the
    VerificationError (raises AssertionError if verification *succeeds*)."""
    program = _annotated_program(buggy=True)
    # In the buggy program the caller passes an unchecked length.
    program["lan9250_drain"] = attach_loop_specs(
        lightbulb_program(buggy_driver=True)["lan9250_drain"],
        [LoopSpec(
            invariant=lambda state: T.and_(
                T.ule(state.locals["i"], state.locals["num_words"]),
                T.ule(state.locals["num_words"], T.const(0x1003))),
            measure=lambda state: T.sub(state.locals["num_words"],
                                        state.locals["i"]),
            modified_regions=("buf",),
            event_filter=call_hole_filter("lan9250_readword"),
            tag="drain")])
    try:
        verify_function(program, "lan9250_drain", drain_spec_no_bound(),
                        platform_mmio_spec(), contracts=make_contracts(),
                        max_conflicts=max_conflicts)
    except VerificationError as err:
        return err
    raise AssertionError("buggy drain verified -- the bound check matters!")
