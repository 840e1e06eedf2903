"""RISC-V machine states instantiating the abstract ISA primitives.

`RiscvMachine` is the software-oriented machine the compiler is verified
against (paper sections 5.4, 5.6, 6.2):

* flat partial byte memory ("owned" by the program);
* loads/stores outside the owned memory are *nonmemory* accesses: with an
  attached MMIO bus they become I/O-trace events (``("ld"/"st", addr,
  value)`` triples); without a bus they are undefined behavior;
* an XAddrs set of executable addresses implements the stale-instruction
  discipline: fetching outside XAddrs is undefined behavior, and every
  store removes the touched addresses from the set. (Internally the
  *complement* -- addresses made non-executable by stores -- is tracked,
  which is finite and cheap; at boot XAddrs covers all owned memory,
  exactly as in the paper.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .. import obs
from ..bedrock2 import word
from .decode import decode_cached
from .insts import Instr, InvalidInstruction
from .semantics import Primitives, execute

# Observability (see docs/observability.md): instructions are flushed as a
# batch per `run` call; MMIO events are counted at trace-append time (they
# are orders of magnitude rarer than instructions). Per-opcode counts are
# only collected on the instrumented path (`obs.ENABLED`).
_INSTRUCTIONS = obs.counter("riscv.instructions")
_MMIO_LOADS = obs.counter("riscv.mmio_loads")
_MMIO_STORES = obs.counter("riscv.mmio_stores")
_SP_MIN = obs.gauge("riscv.sp_min")


class RiscvUB(Exception):
    """Undefined behavior at the ISA level: the software-oriented step
    relation has no successor state (the paper's ``∀ S, ¬ swstep s S``)."""


class MachineMemory:
    """Owned memory: a contiguous RAM block plus sparse extra bytes.

    Subscript access (``mem[addr]``) is byte-granular, mirroring the
    map-of-bytes model in the paper's semantics, while staying O(1) in
    space for the common "RAM at 0" layout."""

    __slots__ = ("ram", "ram_base", "extra", "epoch")

    def __init__(self, ram_size: int = 0, ram_base: int = 0,
                 sparse: Optional[Dict[int, int]] = None):
        self.ram = bytearray(ram_size)
        self.ram_base = ram_base
        self.extra: Dict[int, int] = dict(sparse) if sparse else {}
        # Bumped on every subscript/`add_byte` write so the fast-path
        # engine (repro.riscv.fastpath) can detect memory modified behind
        # its back (test pokes, DMA returns) and drop its fused blocks.
        self.epoch = 0

    def __contains__(self, addr: int) -> bool:
        return (self.ram_base <= addr < self.ram_base + len(self.ram)
                or addr in self.extra)

    def __getitem__(self, addr: int) -> int:
        if self.ram_base <= addr < self.ram_base + len(self.ram):
            return self.ram[addr - self.ram_base]
        return self.extra[addr]

    def __setitem__(self, addr: int, value: int) -> None:
        if self.ram_base <= addr < self.ram_base + len(self.ram):
            self.ram[addr - self.ram_base] = value & 0xFF
        elif addr in self.extra:
            self.extra[addr] = value & 0xFF
        else:
            raise KeyError(addr)
        self.epoch += 1

    def add_byte(self, addr: int, value: int) -> None:
        """Extend the owned footprint by one byte (test setup helper)."""
        if addr in self:
            self[addr] = value
        else:
            self.extra[addr] = value & 0xFF
            self.epoch += 1


class RiscvMachine(Primitives):
    """Executable RISC-V machine with optional MMIO and XAddrs tracking."""

    def __init__(self, memory: Optional[Dict[int, int]] = None, pc: int = 0,
                 mmio_bus=None, track_xaddrs: bool = True,
                 fast: bool = False):
        self.regs = [0] * 32
        self.pc = pc
        self.mem = MachineMemory(sparse=memory)
        self.mmio_bus = mmio_bus
        self.trace: List[Tuple[str, int, int]] = []
        self.track_xaddrs = track_xaddrs
        # XAddrs = owned memory minus this set (paper section 5.6).
        self.nonexec: Set[int] = set()
        # Regions currently on loan to a DMA master (paper section 6.2):
        # list of (base, length). CPU access inside a loan is UB.
        self.loans: List[Tuple[int, int]] = []
        self.instret = 0
        # Stack high-water watermark: the lowest value ever written to
        # x2/sp. Starts at the all-ones word (sp unset); the static WCET
        # analyzer's stack bound is checked against `stack_top - sp_min`.
        self.sp_min = word.MASK
        # Fast-path execution (repro.riscv.fastpath): shared executors +
        # fused basic blocks, required to be bit-identical to `step`.
        # The engine is created lazily so `with_program` can swap the
        # memory in first.
        self.fast = fast
        self._fast_engine = None

    @classmethod
    def with_program(cls, image: bytes, base: int = 0, pc: int = 0,
                     mem_size: int = 1 << 20, **kwargs) -> "RiscvMachine":
        """A machine whose memory is ``mem_size`` zero bytes with ``image``
        placed at ``base`` -- the end-to-end theorem's initial state."""
        machine = cls(pc=pc, **kwargs)
        machine.mem = MachineMemory(ram_size=mem_size, ram_base=0)
        machine.mem.ram[base:base + len(image)] = image
        return machine

    # -- primitives -----------------------------------------------------------

    def get_register(self, reg: int) -> int:
        if reg == 0:
            return 0
        return self.regs[reg]

    def set_register(self, reg: int, value: int) -> None:
        if reg != 0:
            value &= word.MASK
            self.regs[reg] = value
            if reg == 2 and value < self.sp_min:
                self.sp_min = value

    def get_pc(self) -> int:
        return self.pc

    def set_pc(self, value: int) -> None:
        self.pc = value & word.MASK

    def _owned(self, addr: int, nbytes: int) -> bool:
        for i in range(nbytes):
            a = word.add(addr, i)
            if a not in self.mem:
                return False
            for base, length in self.loans:
                if base <= a < base + length:
                    return False
        return True

    # -- DMA ownership transfer (paper section 6.2) -----------------------------

    def loan_out(self, base: int, length: int) -> None:
        """Transfer ownership of [base, base+length) to an external master.
        CPU accesses inside the region become undefined behavior until the
        region is returned."""
        self.loans.append((base, length))
        if self._fast_engine is not None:
            # Fused blocks cache successful fetches; a loan may cover
            # code, making those fetches UB, so re-arm the checks.
            self._fast_engine.flush()

    def loan_return(self, base: int, data: Optional[bytes] = None) -> None:
        """Return a loaned region, optionally with new contents written by
        the device."""
        for i, (b, length) in enumerate(self.loans):
            if b == base:
                del self.loans[i]
                if data is not None:
                    for j, byte in enumerate(data[:length]):
                        self.mem[base + j] = byte
                        if self.track_xaddrs:
                            self.nonexec.add(base + j)
                if self._fast_engine is not None:
                    self._fast_engine.flush()
                return
        raise ValueError("no outstanding loan at 0x%x" % base)

    def _is_mmio(self, addr: int) -> bool:
        return self.mmio_bus is not None and self.mmio_bus.is_mmio(addr)

    def load(self, nbytes: int, addr: int, kind: str = "execute") -> int:
        if kind == "fetch":
            if not self._owned(addr, nbytes):
                raise RiscvUB("fetch from unowned address 0x%x" % addr)
            if self.track_xaddrs:
                for i in range(nbytes):
                    if word.add(addr, i) in self.nonexec:
                        raise RiscvUB(
                            "fetch from non-executable address 0x%x "
                            "(stale-instruction discipline)" % addr)
            return self._load_owned(addr, nbytes)
        if self._owned(addr, nbytes):
            return self._load_owned(addr, nbytes)
        # Nonmemory load (section 6.2): MMIO if in range, else UB.
        if self._is_mmio(addr) and nbytes == 4:
            value = self.mmio_bus.read(addr) & word.MASK
            self.trace.append(("ld", addr, value))
            _MMIO_LOADS.inc()
            return value
        raise RiscvUB("load from unowned non-MMIO address 0x%x" % addr)

    def _load_owned(self, addr: int, nbytes: int) -> int:
        value = 0
        for i in range(nbytes):
            value |= self.mem[word.add(addr, i)] << (8 * i)
        return value

    def store(self, nbytes: int, addr: int, value: int) -> None:
        if self._owned(addr, nbytes):
            for i in range(nbytes):
                a = word.add(addr, i)
                self.mem[a] = (value >> (8 * i)) & 0xFF
                if self.track_xaddrs:
                    self.nonexec.add(a)
            return
        if self._is_mmio(addr) and nbytes == 4:
            self.mmio_bus.write(addr, value)
            self.trace.append(("st", addr, value))
            _MMIO_STORES.inc()
            return
        raise RiscvUB("store to unowned non-MMIO address 0x%x" % addr)

    def raise_exception(self, message: str) -> None:
        raise RiscvUB(message)

    # -- execution ------------------------------------------------------------

    def step(self) -> Instr:
        """Fetch-decode-execute one instruction; returns the decoded
        instruction (used by the instrumented run loop)."""
        raw = self.load(4, self.pc, kind="fetch")
        try:
            instr = decode_cached(raw)
        except InvalidInstruction as exc:
            raise RiscvUB("invalid instruction at pc=0x%x: %s"
                          % (self.pc, exc)) from exc
        execute(instr, self)
        self.instret += 1
        return instr

    def _engine(self):
        """The lazily created fast-path engine (`repro.riscv.fastpath`).

        Rebuilt when the memory object was swapped out after construction
        (`with_program` does this), since the engine's block map describes
        the memory it was built from."""
        engine = self._fast_engine
        if engine is None or engine.mem is not self.mem:
            from .fastpath import FastEngine  # deferred: cyclic import

            engine = self._fast_engine = FastEngine(self)
        return engine

    def run(self, max_steps: int, until_pc: Optional[int] = None,
            stop: Optional[Callable[["RiscvMachine"], bool]] = None) -> int:
        """Step up to ``max_steps`` times; returns the number of steps taken.

        Stops early when the PC reaches ``until_pc`` or ``stop(self)`` holds
        (checked before each step). With ``fast`` set, execution goes
        through the fast-path engine -- fused basic blocks when no ``stop``
        predicate is given (the predicate must see every intermediate
        state, so it forces single-stepping) -- with identical observable
        behavior."""
        if obs.ENABLED:
            return self._run_instrumented(max_steps, until_pc, stop)
        start = self.instret
        try:
            if self.fast:
                engine = self._engine()
                if stop is None:
                    return engine.run(max_steps, until_pc)
                return engine.run_steps(max_steps, until_pc, stop)
            for i in range(max_steps):
                if until_pc is not None and self.pc == until_pc:
                    return i
                if stop is not None and stop(self):
                    return i
                self.step()
            return max_steps
        finally:
            _INSTRUCTIONS.inc(self.instret - start)
            _SP_MIN.set(self.sp_min)

    def _run_instrumented(self, max_steps: int,
                          until_pc: Optional[int] = None,
                          stop: Optional[Callable[["RiscvMachine"], bool]]
                          = None) -> int:
        """`run` with a span and per-opcode execution counts (obs enabled).

        On a ``fast`` machine the engine single-steps its shared
        executors and counts per instruction word, flushing to the
        ``riscv.op.*`` counters when the run ends, so instrumented runs
        stay near fast-path speed."""
        start = self.instret
        taken = max_steps
        with obs.span("riscv.run", cat="riscv",
                      args={"max_steps": max_steps}) as sp:
            if self.fast:
                engine = self._engine()
                try:
                    taken = engine.run_steps(max_steps, until_pc, stop,
                                             counted=True)
                finally:
                    retired = self.instret - start
                    _INSTRUCTIONS.inc(retired)
                    _SP_MIN.set(self.sp_min)
                    sp.set("instructions", retired)
                return taken
            opcounts: Dict[str, int] = {}
            try:
                for i in range(max_steps):
                    if until_pc is not None and self.pc == until_pc:
                        taken = i
                        break
                    if stop is not None and stop(self):
                        taken = i
                        break
                    instr = self.step()
                    name = instr.name
                    opcounts[name] = opcounts.get(name, 0) + 1
            finally:
                retired = self.instret - start
                _INSTRUCTIONS.inc(retired)
                _SP_MIN.set(self.sp_min)
                sp.set("instructions", retired)
                for name, n in opcounts.items():
                    obs.counter("riscv.op." + name).inc(n)
        return taken
