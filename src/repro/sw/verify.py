"""Program-logic verification of the lightbulb and door-lock software
(paper Fig. 3, "verification conditions" / "program logic" layers).

Each function is verified *modularly* against the Bedrock2 program logic
(`repro.bedrock2.vcgen`). `SPECS` holds one `FunctionSpec` per function of
both apps: a function's own verification proves its spec, and every call
to it assumes that same spec, so re-verifying one function never revisits
the others -- the paper's central modularity discipline -- and a caller
assumes only what the callee's verification proved. What is established
per function:

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

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..bedrock2.ast_ import Cmd, Function, Program, SIf, SSeq, SStackalloc, SWhile
from ..bedrock2.extspec import MMIOSpec
from ..bedrock2.vcgen import (
    FunctionSpec,
    LoopSpec,
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
from .doorlock import LOCK_PIN, doorlock_program
from .program import lightbulb_program


def platform_mmio_spec() -> MMIOSpec:
    return MMIOSpec(MMIO_RANGES)


# -- AST surgery: attach loop specs without duplicating driver sources -------------

def attach_loop_specs(fn: Function, specs: List[LoopSpec]) -> Function:
    """Return ``fn`` with its while-loops (in preorder) annotated."""
    remaining = list(specs)

    def walk(c: Cmd) -> Cmd:
        new: Cmd
        if isinstance(c, SWhile):
            spec = remaining.pop(0) if remaining else None
            new = SWhile(c.cond, walk(c.body), spec=spec)
        elif isinstance(c, SSeq):
            new = SSeq(walk(c.first), walk(c.rest))
        elif isinstance(c, SIf):
            new = SIf(c.cond, walk(c.then_), walk(c.else_))
        elif isinstance(c, SStackalloc):
            new = SStackalloc(c.name, c.nbytes, walk(c.body))
        else:
            return c
        # Keep the eDSL source stamp (`repro.bedrock2.builder._mark`), so
        # the obligations raised at a rebuilt node still name its line.
        if hasattr(c, "loc"):
            object.__setattr__(new, "loc", c.loc)
        return new

    new_body = walk(fn.body)
    if remaining:
        raise ValueError("more loop specs than loops in %s" % fn.name)
    return Function(fn.name, fn.params, fn.rets, new_body)


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


# -- facts ---------------------------------------------------------------------------

def _one_of(term: T.Term, *values: int) -> T.Term:
    return T.or_(*[T.eq(term, T.const(v)) for v in values])


def _flag(term: T.Term) -> T.Term:
    """A ``busy``/``err`` flag: 0 or all-ones."""
    return _one_of(term, 0, 0xFFFFFFFF)


# -- per-function loop specs --------------------------------------------------------------

def spi_poll_loop_spec(register_addr: int, may_write: bool, tag: str,
                       extra_inv: Optional[Callable] = None) -> LoopSpec:
    def invariant(state):
        conj = T.and_(
            T.ule(state.locals["i"], T.const(C.SPI_PATIENCE)),
            _flag(state.locals["busy"]),
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
        return T.and_(
            T.ule(state.locals["i"], T.const(C.BOOT_PATIENCE)),
            _one_of(state.locals["err"], *err_values),
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
            # Only a readword error ever lands in err.
            _flag(state.locals["err"]),
        )

    return LoopSpec(invariant=invariant,
                    measure=lambda state: T.sub(state.locals["num_words"],
                                                state.locals["i"]),
                    modified_regions=("buf",),
                    event_filter=call_hole_filter("lan9250_readword"),
                    tag="drain")


# -- the one spec table -------------------------------------------------------------

def _only_txdata(vc, state, args, rets) -> None:
    """``spi_write`` touches no MMIO register but TXDATA."""
    for event in state.trace:
        if isinstance(event, SymEvent):
            if not _is_const(event.args[0], C.SPI_TXDATA_ADDR):
                raise VerificationError("spi_write/post",
                                        "touched non-TXDATA address")


def _actuates_only(pin: int, ctx: str) -> Callable:
    """Exit hook: every GPIO output the body writes is 0 or ``pin``'s bit."""

    def check(vc, state, args, rets) -> None:
        for event in state.trace:
            if isinstance(event, SymEvent) and event.action == "MMIOWRITE":
                if _is_const(event.args[0], C.GPIO_OUTPUT_VAL_ADDR):
                    vc.prove(state, _one_of(event.args[1], 0, 1 << pin), ctx)

    return check


def _byte_and_flag(args, rets) -> Dict[str, T.Term]:
    return {"busy-flag": _flag(rets[1]),
            "byte": T.ule(rets[0], T.const(0xFF))}


def _tryrecv_post(args, rets) -> Dict[str, T.Term]:
    num_bytes, err = rets
    return {
        "bound": T.implies(T.eq(err, T.const(0)),
                           T.ule(num_bytes, T.const(C.RX_BUFFER_BYTES))),
        "len": T.ule(num_bytes, T.const(0x3FFF)),
        "err": _one_of(err, 0, C.ERR_OVERSIZE, 0xFFFFFFFF, C.ERR_TIMEOUT),
    }


#: Argument 0 is the base of the app's 1520-byte receive buffer.
_RX_BUFFER = ((0, "buf", C.RX_BUFFER_BYTES),)

#: The one specification of every function of both apps, and beside it
#: the loop specs of its body (in preorder). A function's verification
#: task proves its spec; every call to it, in either app, assumes it.
_TABLE: Dict[str, Tuple[FunctionSpec, List[LoopSpec]]] = {
    "spi_write": (
        FunctionSpec(post=lambda args, rets: {"busy-flag": _flag(rets[0])},
                     on_exit=_only_txdata),
        [spi_poll_loop_spec(C.SPI_TXDATA_ADDR, may_write=True,
                            tag="spi_write_poll")]),
    "spi_read": (
        FunctionSpec(post=_byte_and_flag),
        [spi_poll_loop_spec(
            C.SPI_RXDATA_ADDR, may_write=False, tag="spi_read_poll",
            # The returned byte stays in range across iterations -- the
            # invariant the first verification run showed was missing.
            extra_inv=lambda state: T.ule(state.locals["b"], T.const(0xFF)))]),
    "spi_xchg": (FunctionSpec(post=_byte_and_flag), []),
    "lan9250_readword": (
        FunctionSpec(post=lambda args, rets: {"err": _flag(rets[1])}), []),
    "lan9250_writeword": (
        FunctionSpec(post=lambda args, rets: {"err": _flag(rets[0])}), []),
    "lan9250_wait_for_boot": (
        FunctionSpec(post=lambda args, rets:
                     {"err": _one_of(rets[0], 0, C.ERR_TIMEOUT)}),
        [call_poll_loop_spec((0, C.ERR_TIMEOUT), "boot_poll",
                             "lan9250_readword")]),
    "lan9250_init": (
        FunctionSpec(),
        [call_poll_loop_spec((0, C.ERR_TIMEOUT), "hwcfg_poll",
                             "lan9250_readword")]),
    "lan9250_drain": (
        FunctionSpec(
            # The famous bound: the caller proves the frame fits.
            pre=lambda args: {"fits": T.ule(args[1],
                                            T.const(C.RX_BUFFER_BYTES))},
            post=lambda args, rets: {"err": _flag(rets[0])},
            buffers=_RX_BUFFER),
        [drain_loop_spec()]),
    "lan9250_tryrecv": (
        FunctionSpec(post=_tryrecv_post, buffers=_RX_BUFFER), []),
    "lightbulb_init": (FunctionSpec(), []),
    "lightbulb_loop": (
        FunctionSpec(buffers=_RX_BUFFER,
                     on_exit=_actuates_only(C.LIGHTBULB_PIN,
                                            "lightbulb_loop/post-bulb-value")),
        []),
    "doorlock_init": (FunctionSpec(), []),
    "doorlock_loop": (
        FunctionSpec(buffers=_RX_BUFFER,
                     on_exit=_actuates_only(LOCK_PIN,
                                            "doorlock_loop/post-lock-value")),
        []),
}

SPECS: Dict[str, FunctionSpec] = {name: spec
                                  for name, (spec, _) in _TABLE.items()}

# Verification tasks, one per `SPECS` entry, in report order. Task names
# (``"lightbulb:spi_write"``) are the picklable unit of work the parallel
# dispatcher farms to workers: a worker resolves the name back through
# `run_verify_task`, so nothing un-picklable (specs are closures) ever
# crosses the process boundary. The drivers are verified once, in the
# lightbulb build; the door lock proves only its own two functions.
_DOORLOCK_OWN = ("doorlock_init", "doorlock_loop")
LIGHTBULB_TASKS = tuple("lightbulb:" + name for name in SPECS
                        if name not in _DOORLOCK_OWN)
DOORLOCK_TASKS = tuple("doorlock:" + name for name in _DOORLOCK_OWN)
_APPS = {"lightbulb": lightbulb_program, "doorlock": doorlock_program}


def annotate(program: Program) -> Program:
    """``program`` with the loop specs of `_TABLE` attached."""
    return {name: attach_loop_specs(fn, _TABLE[name][1])
            if name in _TABLE and _TABLE[name][1] else fn
            for name, fn in program.items()}


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
    if task not in LIGHTBULB_TASKS + DOORLOCK_TASKS:
        raise ValueError("unknown verification task %r" % task)
    app, _, fname = task.partition(":")
    program = annotate(_APPS[app]())
    hook = None
    if prescreen:
        from ..analysis.prescreen import Prescreener
        hook = Prescreener()
    return verify_function(program, fname, SPECS, platform_mmio_spec(),
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
    driver specs unchanged -- the modular-verification dividend: a new app
    only proves its new code (paper section 2.1's motivation)."""
    return _run_tasks(DOORLOCK_TASKS, max_conflicts, jobs, cache,
                      prescreen=prescreen)


def verify_drain_buggy_fails(max_conflicts: int = 4_000_000) -> VerificationError:
    """The negative result: without the length check, the drain loop's
    memory-safety obligation is falsifiable -- the paper's "unprovable Coq
    goal" that exposed the remote-code-execution bug. Returns the
    VerificationError (raises AssertionError if verification *succeeds*)."""
    program = lightbulb_program(buggy_driver=True)
    program["lan9250_drain"] = attach_loop_specs(
        program["lan9250_drain"],
        [LoopSpec(
            invariant=lambda state: T.and_(
                T.ule(state.locals["i"], state.locals["num_words"]),
                T.ule(state.locals["num_words"], T.const(0x1003))),
            measure=lambda state: T.sub(state.locals["num_words"],
                                        state.locals["i"]),
            modified_regions=("buf",),
            event_filter=call_hole_filter("lan9250_readword"),
            tag="drain")])
    # In the buggy program the caller passes an unchecked length, bounded
    # only by the status word's 14-bit field.
    specs = dict(SPECS)
    specs["lan9250_drain"] = replace(
        SPECS["lan9250_drain"],
        pre=lambda args: {"status-field": T.ule(args[1], T.const(0x3FFF))})
    try:
        verify_function(program, "lan9250_drain", specs,
                        platform_mmio_spec(), max_conflicts=max_conflicts)
    except VerificationError as err:
        return err
    raise AssertionError("buggy drain verified -- the bound check matters!")
