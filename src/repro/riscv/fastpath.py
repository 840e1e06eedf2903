"""Fast-path execution engine for the ISA-level RISC-V machine.

The reference interpreter in `repro.riscv.machine` pays, on every single
step, for a byte-at-a-time owned-memory fetch, a fresh `decode`, and the
long dispatch chain in `repro.riscv.semantics.execute`. Every end-to-end
theorem check, fuzz layer, and fleet run bottoms out in that loop, so
this module provides a second engine that is required to be
**bit-identical** to the reference -- same registers, memory, PC,
``instret``, stack watermark, MMIO trace, XAddrs set, and exceptions --
while skipping the per-step interpretation overhead:

* **shared executors**: each instruction word gets one specialized
  function ``ex(machine, regs)`` with its operands pre-bound, run by every
  machine in the process; `PC_RELATIVE` words get one per ``(pc, word)``.
  An executor leaves ``pc`` and ``instret`` to its caller: it returns
  None to fall through, the next pc (branches and jumps), or `_STOP`
  after an access that changed its machine's blocks;
* **fused basic blocks**: a straight-line run of instructions, fetched
  once through the reference ``load(kind="fetch")`` path (so owned-memory
  and stale-instruction (XAddrs) faults fire exactly as in the
  reference), replayed as a list of executors. The block loop writes
  ``pc`` and ``instret`` once per block run, and on a fault leaves them
  at the faulting instruction;
* **a process-wide block table**, keyed by start pc and code bytes, of
  the blocks that ended by rule (at a branch or jump, or at `MAX_BLOCK`).
  A machine whose own block map misses adopts a table block after
  checking that its own bytes there are the block's and that every fetch
  the reference would make succeeds (owned flat RAM, no DMA loan, no
  non-executable byte); else it builds the block itself. Block
  boundaries are thus what each machine would build alone;
* **flat RAM access**: executors read and write the `MachineMemory.ram`
  bytearray directly; sparse bytes, MMIO, and loaned memory go through
  the reference `machine.load`/`machine.store`.

The table and the executor cache are capped by module constants and
both cleared when either is full; blocks and executors are immutable, so
a clear only stops future reuse. Invalidation stays per machine, by
64-byte *code pages*: a store that hits a page of a block in its
machine's map drops those blocks and returns `_STOP`, so even a store
into the running block re-dispatches through the fetch checks. DMA loans
flush the block map at once, and `MachineMemory` writes from outside the
engine bump an epoch that flushes it on the next run. Writing the
`MachineMemory.ram` bytearray directly bypasses invalidation; nothing in
the repository does that after a machine has started.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from .. import obs
from ..bedrock2 import word
from .decode import decode_cached
from .insts import InvalidInstruction, Instr
from .machine import RiscvUB
from .semantics import LOAD_SIZES, STORE_SIZES

MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: Longest fused basic block, in instructions.
MAX_BLOCK = 64

#: Stores probe the block map at this granularity (64-byte pages).
PAGE_SHIFT = 6

#: Mnemonics that set the PC non-sequentially and therefore end a block.
ENDS_BLOCK = frozenset(("beq", "bne", "blt", "bge", "bltu", "bgeu",
                        "jal", "jalr"))

#: Mnemonics whose executor depends on the pc: built once per (pc, word).
PC_RELATIVE = ENDS_BLOCK | {"auipc"}

#: Caps on the executor cache and the block table. A fuzz pass of 40
#: programs fills about 2,300 executors and 270 blocks, a device image
#: about 130 blocks.
EXECUTORS_MAX = 1 << 12
TABLE_MAX = 1 << 10

#: An executor's result after an access that changed its machine's
#: blocks: the block loop stops there and dispatches again.
_STOP = -1

Executor = Callable[[object, List[int]], Optional[int]]

# Cold-path metrics only: nothing is counted per instruction. A block-map
# fill counts as built whether adopted or built; the table counters
# depend on what the process ran before (volatile).
_BLOCKS_BUILT = obs.counter("riscv.fast.blocks_built")
_INVALIDATIONS = obs.counter("riscv.fast.invalidations")
_BLOCK_RUNS = obs.counter("riscv.fast.block_runs")
_BLOCK_LEN = obs.histogram("riscv.fast.block_len")
_TABLE_HITS = obs.counter("riscv.fast.table_hits")
_TABLE_MISSES = obs.counter("riscv.fast.table_misses")
_TABLE_CLEARS = obs.counter("riscv.fast.table_clears")

# R-type / I-type arithmetic, specialized where hot and delegated to
# `word` where cold; all results are exactly the reference's.
_ALU_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & MASK,
    "sub": lambda a, b: (a - b) & MASK,
    "sll": lambda a, b: (a << (b & 31)) & MASK,
    "slt": lambda a, b: 1 if (a ^ _SIGN) < (b ^ _SIGN) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (word.signed(a) >> (b & 31)) & MASK,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: (a * b) & MASK,
    "mulh": lambda a, b: ((word.signed(a) * word.signed(b)) >> 32) & MASK,
    "mulhsu": lambda a, b: ((word.signed(a) * b) >> 32) & MASK,
    "mulhu": word.mulhuu,
    "div": word.divs,
    "divu": word.divu,
    "rem": word.rems,
    "remu": word.remu,
}

#: I-type arithmetic reuses the R-type op on a pre-wrapped immediate
#: (`execute` does word.op(rs1, wrap(imm)) -- same composition).
_I_ALU = {"addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
          "ori": "or", "andi": "and",
          "slli": "sll", "srli": "srl", "srai": "sra"}

#: Branch conditions on operands pre-XORed with the flip word (the sign
#: bit for the signed compares).
_BRANCHES = {"beq": (operator.eq, 0), "bne": (operator.ne, 0),
             "blt": (operator.lt, _SIGN), "bge": (operator.ge, _SIGN),
             "bltu": (operator.lt, 0), "bgeu": (operator.ge, 0)}

#: Flat-RAM little-endian codecs; signed loads are masked to the word.
_CODECS = {name: struct.Struct("<" + fmt) for name, fmt in (
    ("lb", "b"), ("lbu", "B"), ("lh", "h"), ("lhu", "H"), ("lw", "I"),
    ("sb", "B"), ("sh", "H"), ("sw", "I"))}

#: Position-independent executors by word, pc-relative ones by (pc, word).
_EXECUTORS: Dict[Union[int, Tuple[int, int]], Executor] = {}


def machine_state_diff(ref, fast) -> Optional[str]:
    """First observable difference between two machines' final states,
    or None when they are bit-identical.

    This is the fast-vs-reference equivalence check used by the fuzz
    oracle's "fast" layer and the corpus-replay tier-1 test: *everything*
    the ISA machine exposes is compared -- registers, PC, retired
    instruction count, the full owned memory (flat RAM and sparse
    bytes), the MMIO trace, the XAddrs complement set, and the stack
    watermark.
    """
    if fast.instret != ref.instret:
        return "instret %d vs %d" % (fast.instret, ref.instret)
    if fast.pc != ref.pc:
        return "pc %#x vs %#x" % (fast.pc, ref.pc)
    if fast.regs != ref.regs:
        i = next(i for i in range(32) if fast.regs[i] != ref.regs[i])
        return "x%d = %#x vs %#x" % (i, fast.regs[i], ref.regs[i])
    if fast.trace != ref.trace:
        return "MMIO trace %r vs %r" % (fast.trace[-4:], ref.trace[-4:])
    if fast.mem.ram != ref.mem.ram:
        i = next(i for i, (a, b) in enumerate(zip(fast.mem.ram,
                                                  ref.mem.ram)) if a != b)
        return ("ram[%#x] = %#x vs %#x"
                % (fast.mem.ram_base + i, fast.mem.ram[i], ref.mem.ram[i]))
    if fast.mem.extra != ref.mem.extra:
        return "sparse memory differs"
    if fast.nonexec != ref.nonexec:
        return ("nonexec sets differ (symmetric difference %r)"
                % sorted(fast.nonexec ^ ref.nonexec)[:8])
    if fast.sp_min != ref.sp_min:
        return "sp_min %#x vs %#x" % (fast.sp_min, ref.sp_min)
    return None


# -- executors ----------------------------------------------------------------


def _nop(m, regs) -> None:
    """An instruction whose only effect is the pc/instret advance."""


def executor(raw: int, pc: int) -> Executor:
    """The shared executor of the word ``raw`` fetched at ``pc``; raises
    the reference's `RiscvUB` for a word that does not decode."""
    ex = _EXECUTORS.get(raw)
    if ex is not None and not pc & 3:
        return ex
    ex = _EXECUTORS.get((pc, raw))
    if ex is not None:
        return ex
    try:
        instr = decode_cached(raw)
    except InvalidInstruction as exc:
        raise RiscvUB("invalid instruction at pc=0x%x: %s"
                      % (pc, exc)) from exc
    ex = _compile(instr, pc)
    if pc & 3 and instr.name not in ENDS_BLOCK:
        ex = _faults_after(ex, (pc + 4) & MASK)
    if len(_EXECUTORS) >= EXECUTORS_MAX:
        clear_shared()
    _EXECUTORS[(pc, raw) if instr.name in PC_RELATIVE or pc & 3 else raw] = ex
    return ex


def _faults_after(inner: Executor, npc: int) -> Executor:
    """A straight-line instruction at a misaligned pc (only an initial pc
    can be one): the reference executes it, then faults on the
    sequential pc."""
    def ex(m, regs) -> None:
        inner(m, regs)
        raise RiscvUB("misaligned jump target 0x%x" % npc)
    return ex


def _compile(instr: Instr, pc: int) -> Executor:
    """Build the executor for one instruction (``pc`` is used only by the
    `PC_RELATIVE` mnemonics).

    Executors replicate `semantics.execute` on `RiscvMachine` primitives
    *exactly*, including effect order (e.g. jal/jalr link before the
    target-alignment check), exception messages, and the stack watermark
    `RiscvMachine.sp_min` on every write to x2. Their operands are bound
    as default arguments rather than closure cells: a third of the memory
    per executor, and the process keeps thousands of them.
    """
    name, rd, rs1, rs2, imm = (instr.name, instr.rd, instr.rs1, instr.rs2,
                               instr.imm)
    imm_w = word.wrap(imm) if imm is not None else 0

    if name in _ALU_OPS or name in _I_ALU:
        op = _ALU_OPS[_I_ALU.get(name, name)]
        if rd == 0:
            return _nop  # pure ALU write to x0: PC/instret only
        # Shift-immediates store the shamt in `imm` unwrapped; wrap() is
        # the identity on 0..31 so imm_w covers both.
        if rd == 2:
            def ex(m, regs, op=op, rs1=rs1, rs2=rs2, imm_w=imm_w,
                   i_type=name in _I_ALU) -> None:
                v = regs[2] = op(regs[rs1], imm_w if i_type else regs[rs2])
                if v < m.sp_min:
                    m.sp_min = v
        elif name == "addi":
            def ex(m, regs, rd=rd, rs1=rs1, imm_w=imm_w) -> None:
                regs[rd] = (regs[rs1] + imm_w) & MASK
        elif name == "add":
            def ex(m, regs, rd=rd, rs1=rs1, rs2=rs2) -> None:
                regs[rd] = (regs[rs1] + regs[rs2]) & MASK
        elif name in _I_ALU:
            def ex(m, regs, op=op, rd=rd, rs1=rs1, imm_w=imm_w) -> None:
                regs[rd] = op(regs[rs1], imm_w)
        else:
            def ex(m, regs, op=op, rd=rd, rs1=rs1, rs2=rs2) -> None:
                regs[rd] = op(regs[rs1], regs[rs2])
        return ex

    if name in LOAD_SIZES:
        sign_bit = {"lb": 0x80, "lh": 0x8000}.get(name, 0)

        def ex(m, regs, rd=rd, rs1=rs1, imm_w=imm_w,
               size=LOAD_SIZES[name], unpack=_CODECS[name].unpack_from,
               sign_bit=sign_bit, sign_ext=(-sign_bit) & MASK
               ) -> Optional[int]:
            a = (regs[rs1] + imm_w) & MASK
            if a & (size - 1):
                raise RiscvUB("misaligned load at 0x%x" % a)
            mem = m.mem
            off = a - mem.ram_base
            if 0 <= off <= len(mem.ram) - size and not m.loans:
                v = unpack(mem.ram, off)[0] & MASK
                r = None
            else:
                # A device answering the load may move memory ownership.
                eng = m._fast_engine
                gen = eng.gen
                v = m.load(size, a)
                if v & sign_bit:
                    v |= sign_ext
                r = _STOP if eng.gen != gen else None
            if rd:
                regs[rd] = v
                if rd == 2 and v < m.sp_min:
                    m.sp_min = v
            return r
        return ex

    if name in STORE_SIZES:
        size = STORE_SIZES[name]

        def ex(m, regs, rs1=rs1, rs2=rs2, imm_w=imm_w, size=size,
               pack=_CODECS[name].pack_into,
               smask=(1 << (8 * size)) - 1) -> Optional[int]:
            a = (regs[rs1] + imm_w) & MASK
            if a & (size - 1):
                raise RiscvUB("misaligned store at 0x%x" % a)
            mem = m.mem
            off = a - mem.ram_base
            eng = m._fast_engine
            if 0 <= off <= len(mem.ram) - size and not m.loans:
                pack(mem.ram, off, regs[rs2] & smask)
                if m.track_xaddrs:
                    m.nonexec.update(range(a, a + size))
                # An aligned access lies in one page.
                if a >> PAGE_SHIFT in eng.code_pages:
                    eng.invalidate(a, size)
                    return _STOP
                return None
            gen = eng.gen
            m.store(size, a, regs[rs2] & smask)
            eng.invalidate(a, size)
            return _STOP if eng.gen != gen else None
        return ex

    if name in _BRANCHES:
        cond, flip = _BRANCHES[name]

        def ex(m, regs, cond=cond, flip=flip, rs1=rs1, rs2=rs2,
               taken=(pc + imm_w) & MASK, fall=(pc + 4) & MASK) -> int:
            npc = taken if cond(regs[rs1] ^ flip, regs[rs2] ^ flip) else fall
            if npc & 3:
                raise RiscvUB("misaligned jump target 0x%x" % npc)
            return npc
        return ex

    if name in ("lui", "auipc"):
        value = (imm << 12) & MASK
        if name == "auipc":
            value = (pc + value) & MASK
        if rd == 0:
            return _nop

        def ex(m, regs, rd=rd, value=value) -> None:
            regs[rd] = value
            if rd == 2 and value < m.sp_min:
                m.sp_min = value
        return ex

    if name in ("jal", "jalr"):
        def ex(m, regs, rd=rd, rs1=rs1, imm_w=imm_w, indirect=name == "jalr",
               target=(pc + imm_w) & MASK, link=(pc + 4) & MASK) -> int:
            # jalr reads rs1 before linking: rs1 may be rd.
            npc = (regs[rs1] + imm_w) & 0xFFFFFFFE if indirect else target
            if rd:
                regs[rd] = link
                if rd == 2 and link < m.sp_min:
                    m.sp_min = link
            if npc & 3:
                raise RiscvUB("misaligned jump target 0x%x" % npc)
            return npc
        return ex

    # `decode` only produces the mnemonics handled above; anything else
    # is a decoder extension this engine does not know yet.
    raise RiscvUB("unimplemented instruction %r" % name)


# -- basic blocks and the shared table ---------------------------------------


class Block:
    """A fused basic block: executors for [start, start + 4*n), and the
    code bytes they were built from."""

    __slots__ = ("start", "code", "n", "pages", "raw")

    def __init__(self, start: int, code: List[Executor], words: List[int]):
        self.start = start
        self.code = code
        self.n = len(code)
        self.raw = struct.pack("<%dI" % self.n, *words)
        self.pages = range(start >> PAGE_SHIFT,
                           ((start + 4 * self.n - 1) >> PAGE_SHIFT) + 1)


#: Blocks that ended by rule: start pc -> {code bytes: block}.
_TABLE: Dict[int, Dict[bytes, Block]] = {}
_table_size = 0


def _admit(block: Block) -> None:
    global _table_size
    if _table_size >= TABLE_MAX:
        clear_shared()
    variants = _TABLE.setdefault(block.start, {})
    if block.raw not in variants:
        variants[block.raw] = block
        _table_size += 1


def clear_shared() -> None:
    """Empty the process-wide executor cache and block table (when either
    is full, or so that the next machine starts cold)."""
    global _table_size
    _TABLE.clear()
    _EXECUTORS.clear()
    _table_size = 0
    _TABLE_CLEARS.inc()


class FastEngine:
    """Per-machine block map and run loops; created lazily by
    `RiscvMachine`."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.mem = machine.mem
        self.blocks: Dict[int, Block] = {}
        self.code_pages: Dict[int, Set[int]] = {}
        #: Bumped on every block invalidation or flush; an access that
        #: bumps it makes its executor return `_STOP`.
        self.gen = 0
        self._mem_epoch = self.mem.epoch

    def fill(self, start: int) -> Block:
        """Put the block at ``start`` in this machine's map: a table block
        if this machine would build the same one, else a new one."""
        block = self._adoptable(start)
        if block is None:
            _TABLE_MISSES.inc()
            block = self.build_block(start)
        else:
            _TABLE_HITS.inc()
        self.blocks[start] = block
        for p in block.pages:
            self.code_pages.setdefault(p, set()).add(start)
        _BLOCKS_BUILT.inc()
        _BLOCK_LEN.record(block.n)
        return block

    def _adoptable(self, start: int) -> Optional[Block]:
        """The table block at ``start`` whose bytes are this machine's,
        if every fetch the reference would make there succeeds."""
        variants = _TABLE.get(start)
        if not variants:
            return None
        m = self.machine
        ram = self.mem.ram
        off = start - self.mem.ram_base
        for raw, block in variants.items():
            end = off + len(raw)
            if 0 <= off and end <= len(ram) and ram[off:end] == raw:
                if m.loans or (m.track_xaddrs and not m.nonexec.isdisjoint(
                        range(start, start + len(raw)))):
                    return None
                return block
        return None

    def build_block(self, start: int) -> Block:
        """Fetch (with full reference UB checks) and fuse a straight-line
        block starting at ``start``; admit it to the table if it ended by
        rule.

        A fetch or decode failure *after* the first instruction truncates
        the block instead of raising: the reference only faults when
        execution actually reaches that PC, and the dispatch loop's next
        fetch at the fall-through PC reproduces the fault at the right
        time with the right message.
        """
        m = self.machine
        code: List[Executor] = []
        words: List[int] = []
        pc = start
        while True:
            try:
                raw = m.load(4, pc, kind="fetch")
                ex = executor(raw, pc)
            except RiscvUB:
                if not code:
                    raise
                # Cut short: another machine may fetch more here.
                return Block(start, code, words)
            code.append(ex)
            words.append(raw)
            if (decode_cached(raw).name in ENDS_BLOCK
                    or len(code) >= MAX_BLOCK):
                break
            pc = (pc + 4) & MASK
        block = Block(start, code, words)
        _admit(block)
        return block

    def invalidate(self, addr: int, nbytes: int) -> None:
        """Drop every block of this machine on the code pages touched by a
        store to [addr, addr+nbytes); bumps the generation counter."""
        hit = False
        for p in range(addr >> PAGE_SHIFT,
                       ((addr + nbytes - 1) >> PAGE_SHIFT) + 1):
            for s in tuple(self.code_pages.get(p, ())):
                hit = True
                block = self.blocks.pop(s, None)
                if block is None:
                    continue
                for q in block.pages:
                    qs = self.code_pages.get(q)
                    if qs is not None:
                        qs.discard(s)
                        if not qs:
                            del self.code_pages[q]
        if hit:
            _INVALIDATIONS.inc()
            self.gen += 1

    def flush(self) -> None:
        """Invalidate every block of this machine (ownership or memory
        changed behind the engine's back: DMA loans, sparse writes, test
        pokes)."""
        self.blocks.clear()
        self.code_pages.clear()
        self.gen += 1

    # -- execution ------------------------------------------------------------

    def _sync(self) -> None:
        if self.mem.epoch != self._mem_epoch:
            self.flush()
            self._mem_epoch = self.mem.epoch

    def run(self, max_steps: int, until_pc: Optional[int] = None) -> int:
        """Fused block execution; the fast analogue of `RiscvMachine.run`
        without a stop predicate. Returns the number of steps taken."""
        self._sync()
        m = self.machine
        regs = m.regs
        blocks = self.blocks
        pc = m.pc
        taken = 0
        dispatches = 0
        try:
            while taken < max_steps and pc != until_pc:
                block = blocks.get(pc)
                if block is None:
                    block = self.fill(pc)
                dispatches += 1
                code = block.code
                n = block.n
                if n > max_steps - taken:
                    n = max_steps - taken
                if until_pc is not None:
                    d = (until_pc - pc) & MASK
                    if not d & 3 and d >> 2 < n:
                        n = d >> 2
                if n < block.n:
                    code = code[:n]
                i = 0
                r = None
                try:
                    for ex in code:
                        r = ex(m, regs)
                        i += 1
                        if r is not None:
                            break
                except BaseException:
                    # Leave pc and instret at the faulting instruction.
                    m.pc = (pc + 4 * i) & MASK
                    m.instret += i
                    raise
                m.instret += i
                taken += i
                m.pc = pc = (r if r is not None and r >= 0
                             else (pc + 4 * i) & MASK)
        finally:
            if dispatches:
                _BLOCK_RUNS.inc(dispatches)
        return taken

    def run_steps(self, max_steps: int, until_pc: Optional[int] = None,
                  stop=None, counted: bool = False) -> int:
        """Single-step execution through the shared executors: every step
        does the full reference fetch (so arbitrary ``stop`` predicates
        and external memory writes are observed exactly as the reference
        would). ``counted`` adds per-opcode counts to the `riscv.op.*`
        counters."""
        m = self.machine
        regs = m.regs
        counts: Dict[int, int] = {}
        taken = 0
        try:
            while taken < max_steps:
                pc = m.pc
                if pc == until_pc:
                    break
                if stop is not None and stop(m):
                    break
                raw = m.load(4, pc, kind="fetch")
                r = executor(raw, pc)(m, regs)
                m.pc = (pc + 4) & MASK if r is None or r < 0 else r
                m.instret += 1
                if counted:
                    counts[raw] = counts.get(raw, 0) + 1
                taken += 1
        finally:
            for raw, n in counts.items():
                obs.counter("riscv.op." + decode_cached(raw).name).inc(n)
        return taken
