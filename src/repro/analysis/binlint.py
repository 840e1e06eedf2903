"""Binary-level abstract interpretation of compiled RV32IM images.

Where `repro.analysis.lint` checks Bedrock2 *source*, this module checks
the *machine code* the compiler emits: it recovers a CFG from the
encoded image (`repro.analysis.cfg`), then runs a forward dataflow over
each function with a per-register × stack-slot product domain of
unsigned intervals ∧ known-bits (`repro.logic.intervals.AbstractWord`)
enriched with symbolic bases: a value is either a plain abstract word or
``Init(r) + word`` for an entry-time register ``r``, which is what lets
the analysis track the stack pointer, frame slots, and callee-saved
registers exactly without knowing any concrete addresses.

Diagnostic codes (stable; documented in docs/static-analysis.md):

======= ==================================================================
B2A101  control transfer outside XAddrs: branch/jump target outside the
        image, misaligned, undecodable, or leaving the function; call to
        a non-function-entry; non-return ``jalr``; falling off the end
B2A102  load/store address not classifiable as owned RAM vs MMIO (the
        abstract address straddles region boundaries)
B2A103  bad access shape: MMIO access not word-sized, not provably
        aligned, or outside the platform address map; provably
        misaligned RAM/stack access
B2A104  stack-pointer imbalance: sp not provably entry-sp at return, or
        not at a provable constant frame offset at a call
B2A105  memory access provably below the stack pointer
B2A106  callee-saved register (per `compiler/regalloc.py`'s ABI,
        including ra) not provably restored at return
B2A107  read of a register never written on some path (beyond the
        registers defined at function entry: sp, ra, a0-a7)
B2A108  translation-validation conflict: the abstract value the binary
        stores is incompatible with the source-level abstract value at
        the corresponding store site (or the store sites themselves
        don't line up)
======= ==================================================================

Unlike most source-level checks, which fire only on *definite* defects,
the control-flow, MMIO-shape, stack-balance, and callee-saved checks
here are proof obligations in the translation-validation sense: the
analysis must *prove* the property or it reports a finding. The domain
is precise enough on real compiler output that every shipped and
fuzzer-generated program proves clean (CI enforces zero findings), so a
finding means the binary -- i.e. the compiler -- is wrong.

Documented assumptions (each matches a compiler invariant):

* Stores through non-sp pointers never alias the current frame's slots:
  a caller-provided pointer predates the frame and verified source code
  is memory-safe, so only sp-relative stores update or invalidate
  tracked stack slots.
* Accesses through ``Init(r)``-based pointers (caller-provided buffer
  arguments) are the *caller's* obligation and are not classified here.
* Callees preserve sp, the callee-saved registers, and the caller's
  frame slots; this is exactly what B2A104/B2A106 verify for every
  callee, so the assumption is discharged by mutual induction over the
  call graph.
* Translation validation pairs binary store sites with source store
  sites by order; sp-relative stores (frame bookkeeping: spills, saves)
  are excluded, which identifies program stores exactly when frames are
  smaller than 2 KiB (the code generator's near path -- true for every
  shipped and generated program; functions with larger frames are
  skipped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import obs
from ..bedrock2.ast_ import Cmd, Expr, Program, SInteract, SStore
from ..logic.intervals import MASK, WIDTH, AbstractWord, word_binop
from ..riscv.disasm import format_instr, reg
from ..riscv.insts import B_TYPE, I_ARITH, I_SHIFT, R_TYPE, Instr
from .cfg import RA, SP, BasicBlock, BinaryCFG, BinFunction, recover_cfg
from .dataflow import AbstractDomain, run_cfg, run_cmd
from .domains import WordDomain, WordState
from .lint import Diagnostic

_FINDINGS = obs.counter("analysis.binlint_findings")
_FUNCTIONS = obs.counter("analysis.binlint_functions")

LOAD_SIZES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4}

#: The regalloc ABI (see `repro.compiler.regalloc`): x10-x17 carry
#: arguments/returns, x29-x31 are code-generator scratch, everything
#: else a function touches it must restore -- including ra, and
#: trivially gp/tp which nothing may touch at all.
ARG_REGS = tuple(range(10, 18))
SCRATCH_REGS = (29, 30, 31)
CALLEE_SAVED = (1, 3, 4) + tuple(range(5, 10)) + tuple(range(18, 29))

#: Registers a function may read without writing first.
ENTRY_DEFINED = frozenset((0, RA, SP) + ARG_REGS)

#: Near-path bound for sp-relative addressing; frames at least this big
#: use scratch-register address arithmetic and are skipped by TV.
_NEAR_FRAME_LIMIT = 2048

#: RV32IM instruction -> the `repro.logic.intervals.word_binop`
#: operator it computes.
_R_OPS = {
    "add": "add", "sub": "sub", "sll": "shl", "slt": "slt", "sltu": "ult",
    "xor": "bxor", "srl": "lshr", "sra": "ashr", "or": "bor", "and": "band",
    "mul": "mul", "mulhu": "mulhuu", "divu": "udiv", "remu": "urem",
}
_I_OPS = {"addi": "add", "slti": "slt", "sltiu": "ult",
          "xori": "bxor", "ori": "bor", "andi": "band"}
_SHIFT_OPS = {"slli": "shl", "srli": "lshr", "srai": "ashr"}


def _signed(value: int) -> int:
    return value - (1 << WIDTH) if value >= (1 << (WIDTH - 1)) else value


# ---------------------------------------------------------------------------
# The domain: symbolic-base values and machine states


#: A symbolic base: a register number, or ``("slot", off)`` for the
#: frame word at signed byte offset ``off`` from the entry sp.
Base = Union[int, Tuple[str, int]]


@dataclass(frozen=True)
class AVal:
    """An abstract register/slot value: ``word`` when ``base`` is None,
    otherwise ``Init(base) + word`` -- the entry-time value of ``base``
    plus an abstract 32-bit offset.

    The lint fixpoint starts every function with register bases only
    and never creates a slot base. `repro.analysis.wcet` takes a
    stabilized loop-header state, keeps sp, and rebases every other
    register and every tracked slot on its own value at header entry;
    there ``Init`` means "at header entry", and slot bases name the
    frame words, such as a spilled fuel counter, that the header
    re-reads."""

    base: Optional[Base]
    word: AbstractWord


def _top() -> AVal:
    return AVal(None, AbstractWord.top())


def _const(value: int) -> AVal:
    return AVal(None, AbstractWord.const(value))


def _init(base: Base) -> AVal:
    return AVal(base, AbstractWord.const(0))


def _is_init(v: AVal, r: int) -> bool:
    return v.base == r and v.word.as_const() == 0


def _plain(v: AVal) -> AbstractWord:
    """Forget the base: sound because ``Init(r)`` is arbitrary, so a
    based value concretizes to any word."""
    return v.word if v.base is None else AbstractWord.top()


def _aval_add(a: AVal, b: AVal) -> AVal:
    if a.base is not None and b.base is not None:
        return _top()
    if a.base is not None:
        return AVal(a.base, word_binop("add", a.word, b.word))
    if b.base is not None:
        return AVal(b.base, word_binop("add", a.word, b.word))
    return AVal(None, word_binop("add", a.word, b.word))


def _aval_sub(a: AVal, b: AVal) -> AVal:
    if b.base is None:
        return AVal(a.base, word_binop("sub", a.word, b.word))
    if a.base == b.base:  # Init(r)+x - (Init(r)+y) = x - y
        return AVal(None, word_binop("sub", a.word, b.word))
    return _top()


def _aval_join(a: AVal, b: AVal) -> AVal:
    if a.base == b.base:
        return AVal(a.base, a.word.join(b.word))
    return _top()


def _aval_widen(a: AVal, b: AVal) -> AVal:
    if a.base == b.base:
        return AVal(a.base, a.word.widen(b.word))
    return _top()


@dataclass(frozen=True)
class BinState:
    """Machine state at one program point: 32 register values, the
    tracked word-aligned frame slots (keyed by signed byte offset from
    the *entry* stack pointer), and the registers definitely written on
    every path so far."""

    regs: Tuple[AVal, ...]
    slots: Dict[int, AVal]
    defined: FrozenSet[int]


def _entry_state() -> BinState:
    regs = tuple(_const(0) if r == 0 else _init(r) for r in range(32))
    return BinState(regs=regs, slots={}, defined=ENTRY_DEFINED)


def _with_reg(state: BinState, rd: int, val: AVal) -> BinState:
    if rd == 0:
        return state  # x0 is hardwired
    regs = state.regs[:rd] + (val,) + state.regs[rd + 1:]
    return BinState(regs=regs, slots=state.slots,
                    defined=state.defined | {rd})


# ---------------------------------------------------------------------------
# Instruction transfer


def _rop(name: str, a: AVal, b: AVal) -> AVal:
    if name == "add":
        return _aval_add(a, b)
    if name == "sub":
        return _aval_sub(a, b)
    op = _R_OPS.get(name)
    if op is None:  # mulh, mulhsu, div, rem
        return _top()
    return AVal(None, word_binop(op, _plain(a), _plain(b)))


def step_instr(pc: int, instr: Instr, state: BinState) -> BinState:
    """The state after executing ``instr`` at ``pc`` in ``state``.

    This is the transfer of the lint fixpoint, with no checking: the
    analyzer reports on an instruction before stepping over it, and
    `repro.analysis.wcet` re-applies the transfer (with `step_call`) to
    stabilized states and walks loops with it.
    Stores through non-sp pointers never alias the frame (see the module
    docstring), so only sp-relative stores touch the tracked slots."""
    name = instr.name
    rd = instr.rd or 0
    regs = state.regs
    if name in R_TYPE:
        return _with_reg(state, rd, _rop(name, regs[instr.rs1 or 0],
                                         regs[instr.rs2 or 0]))
    if name in I_ARITH:
        a = regs[instr.rs1 or 0]
        imm = _const(instr.imm or 0)
        if name == "addi":
            val = _aval_add(a, imm)
        else:
            val = AVal(None, word_binop(_I_OPS[name], _plain(a), imm.word))
        return _with_reg(state, rd, val)
    if name in I_SHIFT:
        val = AVal(None, word_binop(_SHIFT_OPS[name],
                                    _plain(regs[instr.rs1 or 0]),
                                    AbstractWord.const(instr.imm or 0)))
        return _with_reg(state, rd, val)
    if name == "lui":
        return _with_reg(state, rd, _const(((instr.imm or 0) << 12) & MASK))
    if name == "auipc":
        return _with_reg(state, rd,
                         _const((pc + ((instr.imm or 0) << 12)) & MASK))
    if name in LOAD_SIZES:
        addr = _aval_add(regs[instr.rs1 or 0], _const(instr.imm or 0))
        val = _top()
        if (addr.base == SP and LOAD_SIZES[name] == 4
                and addr.word.is_const() and addr.word.lo % 4 == 0):
            val = state.slots.get(_signed(addr.word.lo), val)
        elif name == "lbu":
            val = AVal(None, AbstractWord(0, 0xFF))
        elif name == "lhu":
            val = AVal(None, AbstractWord(0, 0xFFFF))
        return _with_reg(state, rd, val)
    if name in STORE_SIZES:
        addr = _aval_add(regs[instr.rs1 or 0], _const(instr.imm or 0))
        if addr.base != SP:
            return state
        slots = dict(state.slots)
        size = STORE_SIZES[name]
        if addr.word.is_const():
            off = _signed(addr.word.lo)
            if size == 4 and off % 4 == 0:
                slots[off] = regs[instr.rs2 or 0]
            else:
                for k in list(slots):
                    if k < off + size and off < k + 4:
                        del slots[k]
        else:
            slots.clear()
        return BinState(regs=regs, slots=slots, defined=state.defined)
    if name in ("jal", "jalr"):
        return _with_reg(state, rd, _const((pc + 4) & MASK))
    return state  # branches write nothing


def step_call(cfg: BinaryCFG, block: BasicBlock,
              state: BinState) -> BinState:
    """The state on return from the call that ends ``block``: the
    callee preserves sp, the callee-saved registers and the caller's
    frame (see the module docstring) and clobbers the argument and
    scratch registers. An unknown callee is trusted with nothing (the
    lint reports it as B2A101)."""
    if block.target not in cfg.entries:
        regs = tuple(_const(0) if r == 0 else _top() for r in range(32))
        return BinState(regs=regs, slots={}, defined=frozenset(range(32)))
    regs = list(state.regs)
    for r in ARG_REGS + SCRATCH_REGS:
        regs[r] = _top()
    defined = (state.defined | set(ARG_REGS)) - set(SCRATCH_REGS)
    return BinState(regs=tuple(regs), slots=state.slots,
                    defined=frozenset(defined))


class _BinDomain(AbstractDomain[BinState]):
    def join(self, a: BinState, b: BinState) -> BinState:
        slots = {k: _aval_join(a.slots[k], b.slots[k])
                 for k in a.slots.keys() & b.slots.keys()}
        return BinState(
            regs=tuple(_aval_join(x, y) for x, y in zip(a.regs, b.regs)),
            slots=slots, defined=a.defined & b.defined)

    def widen(self, a: BinState, b: BinState) -> BinState:
        slots = {k: _aval_widen(a.slots[k], b.slots[k])
                 for k in a.slots.keys() & b.slots.keys()}
        return BinState(
            regs=tuple(_aval_widen(x, y) for x, y in zip(a.regs, b.regs)),
            slots=slots, defined=a.defined & b.defined)

    def equals(self, a: BinState, b: BinState) -> bool:
        return a == b


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class BinaryLintConfig:
    """Address-map facts the binary checks are parameterized by.

    ``ram`` is the half-open owned-RAM interval (the image, globals, and
    the stack all live here); ``mmio_ranges`` are half-open device
    intervals. ``suppress`` holds codes or ``(code, function)`` pairs,
    same convention as `repro.analysis.lint.LintConfig`.
    """

    ram: Tuple[int, int]
    mmio_ranges: Tuple[Tuple[int, int], ...] = ()
    suppress: FrozenSet[object] = frozenset()

    def suppressed(self, diag: Diagnostic) -> bool:
        return (diag.code in self.suppress
                or (diag.code, diag.function) in self.suppress)

    @staticmethod
    def for_platform(stack_top: int,
                     mmio_ranges: Sequence[Tuple[int, int]],
                     ext_spec: Optional[object] = None,
                     suppress: FrozenSet[object] = frozenset()
                     ) -> "BinaryLintConfig":
        """Build a config from the platform memory map, cross-checking
        the extspec's device ranges against the bus's: a compiled MMIO
        access is judged against the *intersection* of what the spec
        allows and what the bus decodes, so a drift between the two
        layers is caught here rather than at runtime."""
        ranges = tuple((int(lo), int(hi)) for lo, hi in mmio_ranges)
        if ext_spec is not None:
            ext_ranges = tuple(getattr(ext_spec, "ranges", ()))
            for lo, hi in ext_ranges:
                if not any(blo <= lo and hi <= bhi for blo, bhi in ranges):
                    raise ValueError(
                        "extspec MMIO range [0x%x, 0x%x) is not covered by "
                        "the platform bus map" % (lo, hi))
        for lo, hi in ranges:
            if lo < stack_top and hi > 0:  # overlaps [0, stack_top)
                raise ValueError(
                    "MMIO range [0x%x, 0x%x) overlaps owned RAM "
                    "[0, 0x%x)" % (lo, hi, stack_top))
        return BinaryLintConfig(ram=(0, stack_top), mmio_ranges=ranges,
                                suppress=suppress)


# ---------------------------------------------------------------------------
# Per-function analysis


@dataclass
class FunctionAnalysis:
    """Everything the fixpoint learned about one function."""

    function: BinFunction
    #: Stabilized in-state at every *reachable* instruction pc.
    states: Dict[int, BinState] = field(default_factory=dict)
    #: Program stores (non-sp-relative), in pc order, with the abstract
    #: stored value; unreachable sites carry top. Feeds TV mode.
    stores: List[Tuple[int, Instr, AbstractWord]] = field(
        default_factory=list)
    findings: List[Diagnostic] = field(default_factory=list)


class _FunctionAnalyzer:
    def __init__(self, cfg: BinaryCFG, fn: BinFunction,
                 config: BinaryLintConfig):
        self.cfg = cfg
        self.fn = fn
        self.config = config
        self.result = FunctionAnalysis(function=fn)
        self._checking = False
        self._reported: Set[Tuple[str, object]] = set()

    # -- driving --------------------------------------------------------

    def run(self) -> FunctionAnalysis:
        dom = _BinDomain()
        block_states = run_cfg(self.fn.entry, _entry_state(),
                               self._transfer, dom)
        self._checking = True
        for start in sorted(self.fn.blocks):
            block = self.fn.blocks[start]
            state = block_states.get(start)
            if state is None:
                # Unreachable (e.g. the epilogue after a while(1) body):
                # nothing to check, but TV still needs the store sites.
                for pc, instr in block.instrs:
                    if instr.name in STORE_SIZES and instr.rs1 != SP:
                        self.result.stores.append(
                            (pc, instr, AbstractWord.top()))
                continue
            self._transfer(start, state)
        return self.result

    def _transfer(self, start: int, state: BinState
                  ) -> Dict[int, BinState]:
        block = self.fn.blocks[start]
        for pc, instr in block.instrs[:-1]:
            state = self._step(pc, instr, state)
        pc, term = block.instrs[-1]
        state = self._step(pc, term, state)
        if self._checking:
            self._check_terminator(block, state)
        kind = block.kind
        if kind == "fall":
            return {succ: state for succ in block.succs}
        if kind == "branch":
            return self._branch_out(block, pc, term, state)
        if kind == "jump":
            return {succ: state for succ in block.succs}
        if kind == "call":
            state = step_call(self.cfg, block, state)
            return {succ: state for succ in block.succs}
        return {}  # return / indirect

    # -- findings -------------------------------------------------------

    def _report(self, code: str, pc: int, instr: Optional[Instr],
                message: str, key: object = None) -> None:
        if not self._checking:
            return
        dedup = (code, key if key is not None else pc)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        at = "pc 0x%04x" % pc
        if instr is not None:
            at += ": `%s`" % format_instr(instr, pc)
        self.result.findings.append(Diagnostic(
            code=code, function=self.fn.name,
            message="%s: %s" % (at, message)))

    # -- instruction transfer -------------------------------------------

    def _read(self, state: BinState, r: Optional[int], pc: int,
              instr: Instr, exempt: bool = False) -> AVal:
        assert r is not None
        if not exempt and r not in state.defined:
            self._report(
                "B2A107", pc, instr,
                "reads %s, which is not written on every path to here "
                "(and is not defined at function entry)" % reg(r),
                key=("read", r))
        return state.regs[r]

    def _step(self, pc: int, instr: Instr, state: BinState) -> BinState:
        if self._checking:
            self.result.states[pc] = state
            self._check(pc, instr, state)
        return step_instr(pc, instr, state)

    def _check(self, pc: int, instr: Instr, state: BinState) -> None:
        """Report what executing ``instr`` in ``state`` may get wrong
        (undefined reads, bad memory accesses) and record program stores
        for translation validation."""
        name = instr.name
        if name in R_TYPE or name in B_TYPE:
            self._read(state, instr.rs1, pc, instr)
            self._read(state, instr.rs2, pc, instr)
        elif name in I_ARITH or name in I_SHIFT or name == "jalr":
            self._read(state, instr.rs1, pc, instr)
        elif name in LOAD_SIZES:
            addr = _aval_add(self._read(state, instr.rs1, pc, instr),
                             _const(instr.imm or 0))
            self._classify(pc, instr, addr, LOAD_SIZES[name], state)
        elif name in STORE_SIZES:
            addr = _aval_add(self._read(state, instr.rs1, pc, instr),
                             _const(instr.imm or 0))
            # A prologue save reads a callee-saved register precisely to
            # preserve it; only flag non-frame stores as reads.
            value = self._read(state, instr.rs2, pc, instr,
                               exempt=addr.base == SP)
            self._classify(pc, instr, addr, STORE_SIZES[name], state)
            if instr.rs1 != SP:
                self.result.stores.append((pc, instr, _plain(value)))

    # -- memory classification ------------------------------------------

    def _classify(self, pc: int, instr: Instr, addr: AVal, size: int,
                  state: BinState) -> None:
        """Classify an access as stack, caller pointer, RAM or MMIO,
        reporting B2A102/B2A103/B2A105 when it is none of them."""
        if addr.base == SP:
            off = addr.word
            self._check_below_sp(pc, instr, off, state)
            if off.bits.known_ones() & (size - 1):
                self._report("B2A103", pc, instr,
                             "provably misaligned %d-byte stack access"
                             % size)
            return
        if addr.base is not None:
            # Caller-provided pointer: the caller's obligation.
            return
        w = addr.word
        ram_lo, ram_hi = self.config.ram
        if ram_lo <= w.lo and w.hi < ram_hi:
            if w.bits.known_ones() & (size - 1):
                self._report("B2A103", pc, instr,
                             "provably misaligned %d-byte RAM access"
                             % size)
            return
        for lo, hi in self.config.mmio_ranges:
            if lo <= w.lo and w.hi < hi:
                if size != 4:
                    self._report("B2A103", pc, instr,
                                 "MMIO access is not word-sized "
                                 "(%d bytes)" % size)
                elif (w.bits.known_zeros() & 3) != 3:
                    self._report("B2A103", pc, instr,
                                 "MMIO access not provably word-aligned "
                                 "(abstract address [0x%x, 0x%x])"
                                 % (w.lo, w.hi))
                return
        if self._disjoint_from_map(w):
            self._report("B2A103", pc, instr,
                         "access outside the platform address map "
                         "(abstract address [0x%x, 0x%x])" % (w.lo, w.hi))
            return
        self._report("B2A102", pc, instr,
                     "cannot classify access as owned RAM vs MMIO "
                     "(abstract address [0x%x, 0x%x])" % (w.lo, w.hi))

    def _disjoint_from_map(self, w: AbstractWord) -> bool:
        regions = (self.config.ram,) + self.config.mmio_ranges
        return all(w.hi < lo or w.lo >= hi for lo, hi in regions)

    def _check_below_sp(self, pc: int, instr: Instr, off: AbstractWord,
                        state: BinState) -> None:
        sp_val = state.regs[SP]
        if not (sp_val.base == SP and sp_val.word.is_const()
                and off.is_const()):
            return
        if _signed(off.lo) < _signed(sp_val.word.lo):
            self._report(
                "B2A105", pc, instr,
                "access at sp%+d is provably below the stack pointer "
                "(sp = entry sp%+d)"
                % (_signed(off.lo), _signed(sp_val.word.lo)))

    # -- control flow ---------------------------------------------------

    def _branch_out(self, block: BasicBlock, pc: int, term: Instr,
                    state: BinState) -> Dict[int, BinState]:
        taken_ok, fall_ok = self._branch_feasible(state, term)
        out: Dict[int, BinState] = {}
        fall_pc = pc + 4
        target = block.target
        if fall_ok and fall_pc in block.succs:
            out[fall_pc] = self._branch_refine(state, term, taken=False)
        if taken_ok and target is not None and target in block.succs:
            refined = self._branch_refine(state, term, taken=True)
            if target in out:
                out[target] = _BinDomain().join(out[target], refined)
            else:
                out[target] = refined
        return out

    def _branch_feasible(self, state: BinState,
                         instr: Instr) -> Tuple[bool, bool]:
        a = state.regs[instr.rs1 or 0]
        b = state.regs[instr.rs2 or 0]
        name = instr.name
        if name in ("beq", "bne"):
            if a.base == b.base:  # plain/plain or same-base offsets
                e = word_binop("eq", a.word, b.word).as_const()
            else:
                e = None
            if e is None:
                return True, True
            equal = bool(e)
            taken = equal if name == "beq" else not equal
            return taken, not taken
        if name in ("bltu", "bgeu") and a.base is None and b.base is None:
            lt = word_binop("ult", a.word, b.word).as_const()
            if lt is None:
                return True, True
            taken = bool(lt) if name == "bltu" else not lt
            return taken, not taken
        return True, True

    def _branch_refine(self, state: BinState, instr: Instr,
                       taken: bool) -> BinState:
        rs1, rs2 = instr.rs1 or 0, instr.rs2 or 0
        a, b = state.regs[rs1], state.regs[rs2]
        name = instr.name
        if name in ("beq", "bne"):
            equal = taken if name == "beq" else not taken
            if a.base is not None or b.base is not None:
                return state
            if equal:
                if b.word.is_const():
                    state = _with_reg(state, rs1, AVal(None, b.word))
                elif a.word.is_const():
                    state = _with_reg(state, rs2, AVal(None, a.word))
            else:
                state = self._refine_nonzero(state, rs1, a, b)
                state = self._refine_nonzero(state, rs2, b, a)
            return state
        if name in ("bltu", "bgeu") and a.base is None and b.base is None:
            lt = taken if name == "bltu" else not taken
            aw, bw = a.word, b.word
            if lt:  # rs1 < rs2
                if bw.hi >= 1:
                    state = _with_reg(state, rs1, AVal(
                        None, AbstractWord(aw.lo, min(aw.hi, bw.hi - 1),
                                           aw.bits)))
                if aw.lo <= MASK - 1:
                    state = _with_reg(state, rs2, AVal(
                        None, AbstractWord(max(bw.lo, aw.lo + 1), bw.hi,
                                           bw.bits)))
            else:  # rs1 >= rs2
                state = _with_reg(state, rs1, AVal(
                    None, AbstractWord(max(aw.lo, bw.lo), aw.hi, aw.bits)))
                state = _with_reg(state, rs2, AVal(
                    None, AbstractWord(bw.lo, min(bw.hi, aw.hi), bw.bits)))
            return state
        return state

    def _refine_nonzero(self, state: BinState, r: int, v: AVal,
                        other: AVal) -> BinState:
        """``v != other`` with ``other`` a known zero: bump v's lo."""
        if (v.base is None and other.base is None
                and other.word.as_const() == 0 and v.word.lo == 0):
            return _with_reg(state, r, AVal(
                None, AbstractWord(1, max(v.word.hi, 1), v.word.bits)))
        return state

    # -- terminator / return checks -------------------------------------

    def _check_terminator(self, block: BasicBlock, state: BinState) -> None:
        pc, term = block.terminator
        kind = block.kind
        if kind in ("branch", "jump"):
            target = block.target
            assert target is not None
            what = "branch" if kind == "branch" else "jump"
            if not (0 <= target < self.cfg.image_size):
                self._report("B2A101", pc, term,
                             "%s target 0x%x is outside XAddrs"
                             % (what, target))
            elif target % 4:
                self._report("B2A101", pc, term,
                             "%s target 0x%x is misaligned" % (what, target))
            elif target not in self.cfg.instrs:
                self._report("B2A101", pc, term,
                             "%s target 0x%x is not a decodable instruction"
                             % (what, target))
            elif not self.fn.contains(target):
                self._report("B2A101", pc, term,
                             "%s target 0x%x leaves the enclosing function "
                             "without a call" % (what, target))
        elif kind == "call":
            target = block.target
            if target not in self.cfg.entries:
                self._report("B2A101", pc, term,
                             "call target 0x%x is not a function entry"
                             % (target if target is not None else -1))
            sp_val = state.regs[SP]
            if not (sp_val.word.is_const()
                    and sp_val.base in (SP, None)):
                # Balanced means provably fixed: a constant offset from
                # the entry sp, or (in _start) an absolute constant.
                self._report("B2A104", pc, term,
                             "stack pointer is not at a provable constant "
                             "frame offset at this call")
        elif kind == "return":
            if (term.imm or 0) % 2:
                self._report("B2A101", pc, term,
                             "return target ra%+d is misaligned"
                             % (term.imm or 0))
            elif term.imm:
                self._report("B2A101", pc, term,
                             "jalr returns to ra%+d, not the call site"
                             % (term.imm or 0))
            self._check_return(pc, term, state)
        elif kind == "indirect":
            self._report("B2A101", pc, term,
                         "indirect jump: target cannot be proven inside "
                         "XAddrs")
        elif kind == "fall" and not block.succs:
            if pc + 4 < self.fn.end:
                self._report("B2A101", pc, term,
                             "control falls into an undecodable word at "
                             "0x%x" % (pc + 4))
            else:
                self._report("B2A101", pc, term,
                             "control falls off the end of the function")

    def _check_return(self, pc: int, term: Instr,
                      state: BinState) -> None:
        sp_val = state.regs[SP]
        if not _is_init(sp_val, SP):
            if sp_val.base == SP and sp_val.word.is_const():
                detail = "entry sp%+d" % _signed(sp_val.word.lo)
            else:
                detail = "not provably entry-relative"
            self._report("B2A104", pc, term,
                         "stack pointer at return is %s (must be the "
                         "entry value)" % detail)
        for r in CALLEE_SAVED:
            if not _is_init(state.regs[r], r):
                self._report(
                    "B2A106", pc, term,
                    "callee-saved register %s is not provably restored "
                    "to its entry value at return" % reg(r),
                    key=("clobber", r))


# ---------------------------------------------------------------------------
# Whole-image entry points


class _Compiled(Protocol):
    """Structural protocol for `repro.compiler.pipeline.CompiledProgram`
    (duck-typed so tests can lint hand-written images)."""

    image: bytes
    symbols: Dict[str, int]


class ImageAnalysis(Dict[str, FunctionAnalysis]):
    """One image's analysis: a `FunctionAnalysis` per function name, and
    in `cfg` the CFG they were computed over, so a later pass over the
    same image (`repro.analysis.wcet.analyze_timing`) reuses both."""

    def __init__(self, cfg: BinaryCFG) -> None:
        super().__init__()
        self.cfg = cfg


def analyze_image(image: bytes, symbols: Mapping[str, int],
                  config: BinaryLintConfig) -> ImageAnalysis:
    """Run the abstract interpreter over every function in the image."""
    cfg = recover_cfg(image, symbols)
    results = ImageAnalysis(cfg)
    for name, fn in cfg.functions.items():
        if not fn.blocks:
            continue
        results[name] = _FunctionAnalyzer(cfg, fn, config).run()
        _FUNCTIONS.inc()
    return results


def image_findings(analyses: Mapping[str, FunctionAnalysis],
                   config: BinaryLintConfig) -> List[Diagnostic]:
    """The unsuppressed findings of an `analyze_image` result."""
    out: List[Diagnostic] = []
    for analysis in analyses.values():
        out.extend(d for d in analysis.findings
                   if not config.suppressed(d))
    _FINDINGS.inc(len(out))
    return out


def lint_image(image: bytes, symbols: Mapping[str, int],
               config: BinaryLintConfig) -> List[Diagnostic]:
    """Lint an encoded image; returns (unsuppressed) findings."""
    return image_findings(analyze_image(image, symbols, config), config)


def lint_compiled(compiled: "_Compiled",
                  config: BinaryLintConfig) -> List[Diagnostic]:
    """Lint a `CompiledProgram`'s image."""
    return lint_image(compiled.image, compiled.symbols, config)


# ---------------------------------------------------------------------------
# Translation validation: binary facts vs source facts


class _EveryPathWordDomain(WordDomain):
    """`WordDomain` that never prunes a branch, so the source walk
    visits every store the code generator emits -- the site-pairing
    invariant TV relies on."""

    def decide(self, state: WordState, cond: Expr) -> Optional[bool]:
        return None


def _source_store_facts(body: Cmd) -> List[Tuple[int, AbstractWord]]:
    """(size, abstract stored value) per source store site, in program
    order -- the order flattening keeps and the code generator emits."""
    dom = _EveryPathWordDomain()
    facts: List[Tuple[int, AbstractWord]] = []

    def visit(event: str, node: object, state: object) -> None:
        if event != "stmt":
            return
        assert isinstance(state, dict)
        if isinstance(node, SStore):
            facts.append((node.size, dom.eval(node.value, state)))
        elif (isinstance(node, SInteract) and node.action == "MMIOWRITE"
                and len(node.args) == 2):
            facts.append((4, dom.eval(node.args[1], state)))

    run_cmd(body, dom, {}, visit)
    return facts


def _compatible(src: AbstractWord, binv: AbstractWord) -> bool:
    """Do the two abstractions admit a common concrete value?"""
    if max(src.lo, binv.lo) > min(src.hi, binv.hi):
        return False
    if src.bits.conflicts(binv.bits):
        return False
    return True


def translation_validate(program: Program, compiled: "_Compiled",
                         config: BinaryLintConfig,
                         frame_sizes: Optional[Mapping[str, int]] = None,
                         analyses: Optional[
                             Dict[str, FunctionAnalysis]] = None
                         ) -> List[Diagnostic]:
    """Compare binary-derived store facts against source-derived ones.

    For every function, the abstract value each *program* store writes
    (loads/stores the source asked for, as opposed to frame
    bookkeeping) must be compatible -- non-empty intersection -- with
    the abstract value of the corresponding source store, and the store
    sites must pair up one-to-one in order. Any mismatch is a B2A108:
    the compiler changed what the program writes. The source facts come
    from the Bedrock2 program itself, so every phase -- flattening,
    register allocation, code generation -- is under validation.
    """
    if analyses is None:
        analyses = analyze_image(compiled.image, compiled.symbols, config)
    if frame_sizes is None:
        frame_sizes = getattr(compiled, "frame_sizes", {}) or {}
    findings: List[Diagnostic] = []
    for fname, fn in program.items():
        analysis = analyses.get("func." + fname)
        if analysis is None:
            continue
        if frame_sizes.get(fname, 0) >= _NEAR_FRAME_LIMIT:
            continue  # far-path frame addressing; see module docstring
        src = _source_store_facts(fn.body)
        binf = analysis.stores
        if len(src) != len(binf):
            findings.append(Diagnostic(
                code="B2A108", function="func." + fname,
                message="store-site count mismatch: source has %d program "
                        "store(s), binary has %d" % (len(src), len(binf))))
            continue
        for (ssize, sval), (pc, instr, bval) in zip(src, binf):
            bsize = STORE_SIZES[instr.name]
            if ssize != bsize:
                findings.append(Diagnostic(
                    code="B2A108", function="func." + fname,
                    message="pc 0x%04x: `%s`: store size %d does not match "
                            "the source store's size %d"
                            % (pc, format_instr(instr, pc), bsize, ssize)))
            elif not _compatible(sval, bval):
                findings.append(Diagnostic(
                    code="B2A108", function="func." + fname,
                    message="pc 0x%04x: `%s`: stored value [0x%x, 0x%x] is "
                            "incompatible with the source-level value "
                            "[0x%x, 0x%x]"
                            % (pc, format_instr(instr, pc), bval.lo,
                               bval.hi, sval.lo, sval.hi)))
    out = [d for d in findings if not config.suppressed(d)]
    _FINDINGS.inc(len(out))
    return out


def lint_binary_program(program: Program, compiled: "_Compiled",
                        config: BinaryLintConfig,
                        analyses: Optional[ImageAnalysis] = None
                        ) -> List[Diagnostic]:
    """The full binary lint: abstract-interpretation checks plus
    translation validation against the source. ``analyses`` is this
    image's `analyze_image` result under ``config``, when the caller
    already has one; otherwise it is computed here."""
    if analyses is None:
        analyses = analyze_image(compiled.image, compiled.symbols, config)
    out = image_findings(analyses, config)
    out.extend(translation_validate(program, compiled, config,
                                    analyses=analyses))
    return out


# ---------------------------------------------------------------------------
# Concretization helpers (the soundness test's gamma)


def aval_contains(val: AVal, concrete: int,
                  entry_regs: Sequence[int]) -> bool:
    """Is ``concrete`` in the concretization of ``val``, relative to the
    function-entry register snapshot?"""
    if val.base is None:
        w = val.word
        value = concrete & MASK
    else:
        assert isinstance(val.base, int), "the lint makes no slot base"
        w = val.word
        value = (concrete - entry_regs[val.base]) & MASK
    return (w.lo <= value <= w.hi
            and (value & w.bits.mask) == w.bits.value)


def state_contains(state: BinState, regs: Sequence[int],
                   entry_regs: Sequence[int],
                   mem_word: Optional[Callable[[int], Optional[int]]] = None
                   ) -> Optional[str]:
    """None when the concrete machine state is inside the abstract one;
    otherwise a human-readable description of the first violation."""
    for r in range(32):
        if not aval_contains(state.regs[r], regs[r], entry_regs):
            return ("%s = 0x%x not in %r (base %r)"
                    % (reg(r), regs[r], state.regs[r].word,
                       state.regs[r].base))
    if mem_word is not None:
        sp0 = entry_regs[SP]
        for off, val in state.slots.items():
            concrete = mem_word((sp0 + off) & MASK)
            if concrete is not None and not aval_contains(
                    val, concrete, entry_regs):
                return ("slot sp0%+d = 0x%x not in %r (base %r)"
                        % (off, concrete, val.word, val.base))
    return None


__all__ = [
    "AVal",
    "BinState",
    "BinaryLintConfig",
    "FunctionAnalysis",
    "ImageAnalysis",
    "analyze_image",
    "aval_contains",
    "image_findings",
    "lint_binary_program",
    "lint_compiled",
    "lint_image",
    "state_contains",
    "translation_validate",
]
