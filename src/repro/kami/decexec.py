"""Shared combinational decode/execute logic (paper §5.7).

"The combinational-logic functions for decoding and executing instructions
are shared between baseline single-cycle processor spec and the pipelined
implementation, so we were able to extend the ISA and fix bugs in it
without needing to touch a line of proof." -- we reproduce exactly that
structure: `spec_proc` and `pipeline_proc` both call `decode_signals` and
`exec_instr` defined here, and
`tests/test_kami_processors.py::test_spec_processor_matches_isa_machine`
checks this logic against the software-oriented ISA semantics of
`repro.riscv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..bedrock2 import word
from ..riscv.decode import decode
from ..riscv.insts import Instr


@dataclass(frozen=True)
class DecodedInstr:
    """Control signals for one instruction."""

    instr: Instr
    is_load: bool
    is_store: bool
    mem_size: int  # 1/2/4, meaningful when is_load/is_store
    load_signed: bool
    is_branch: bool
    is_jump: bool
    writes_rd: bool
    src1: Optional[int]
    src2: Optional[int]


_LOADS = {"lb": (1, True), "lbu": (1, False), "lh": (2, True),
          "lhu": (2, False), "lw": (4, False)}
_STORES = {"sb": 1, "sh": 2, "sw": 4}
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _signals(raw: int) -> DecodedInstr:
    """`decode_signals` without the memo."""
    instr = decode(raw)
    name = instr.name
    is_load = name in _LOADS
    is_store = name in _STORES
    mem_size, load_signed = _LOADS.get(name, (_STORES.get(name, 0), False))
    is_branch = name in _BRANCHES
    is_jump = name in ("jal", "jalr")
    writes_rd = instr.rd is not None and not is_store and not is_branch
    return DecodedInstr(
        instr=instr,
        is_load=is_load,
        is_store=is_store,
        mem_size=mem_size,
        load_signed=load_signed,
        is_branch=is_branch,
        is_jump=is_jump,
        writes_rd=writes_rd,
        src1=instr.rs1,
        src2=instr.rs2,
    )


#: `decode_signals` memo, keyed by the raw word, shared by both
#: processors (as `repro.riscv.decode.decode_cached` is by the ISA
#: engines). `DecodedInstr` is a frozen value type and decoding is pure,
#: so the memo never needs invalidation; invalid words are not cached.
_SIGNALS_CACHE: Dict[int, DecodedInstr] = {}
_SIGNALS_CACHE_MAX = 1 << 16


def decode_signals(raw: int) -> DecodedInstr:
    """Decode a raw instruction word into control signals.

    Raises `InvalidInstruction` like the ISA decoder -- an invalid word in
    the instruction stream is outside both models' defined behavior."""
    dec = _SIGNALS_CACHE.get(raw)
    if dec is None:
        if len(_SIGNALS_CACHE) >= _SIGNALS_CACHE_MAX:
            _SIGNALS_CACHE.clear()
        dec = _signals(raw)
        _SIGNALS_CACHE[raw] = dec
    return dec


@dataclass(frozen=True)
class ExecResult:
    """Outcome of the EX stage for one instruction."""

    next_pc: int
    rd_value: Optional[int]     # value to write back (None for stores/branches)
    mem_addr: Optional[int]     # effective address for loads/stores
    store_value: Optional[int]  # value to store (masked to mem_size)
    taken: bool                 # branch/jump redirected control flow


def exec_instr(dec: DecodedInstr, pc: int, rs1_val: int,
               rs2_val: int) -> ExecResult:
    """The shared EX-stage combinational function.

    For loads, ``rd_value`` is None here: it is produced by the memory stage
    (`load_result` finishes the job). Misaligned accesses and misaligned
    branch targets are left to the memory/ISA layer; the processors pass
    addresses through byte-enable logic that wraps like real BRAM."""
    instr = dec.instr
    name = instr.name
    imm = instr.imm
    next_pc = word.add(pc, 4)
    rd_value: Optional[int] = None
    mem_addr: Optional[int] = None
    store_value: Optional[int] = None
    taken = False

    if dec.is_load:
        mem_addr = word.add(rs1_val, word.wrap(imm))
    elif dec.is_store:
        mem_addr = word.add(rs1_val, word.wrap(imm))
        store_value = rs2_val & ((1 << (8 * dec.mem_size)) - 1)
    elif dec.is_branch:
        if name == "beq":
            taken = rs1_val == rs2_val
        elif name == "bne":
            taken = rs1_val != rs2_val
        elif name == "blt":
            taken = word.signed(rs1_val) < word.signed(rs2_val)
        elif name == "bge":
            taken = word.signed(rs1_val) >= word.signed(rs2_val)
        elif name == "bltu":
            taken = rs1_val < rs2_val
        else:  # bgeu
            taken = rs1_val >= rs2_val
        if taken:
            next_pc = word.add(pc, word.wrap(imm))
    elif name == "jal":
        rd_value = next_pc
        next_pc = word.add(pc, word.wrap(imm))
        taken = True
    elif name == "jalr":
        rd_value = next_pc
        next_pc = word.and_(word.add(rs1_val, word.wrap(imm)), 0xFFFFFFFE)
        taken = True
    elif name == "lui":
        rd_value = word.wrap(imm << 12)
    elif name == "auipc":
        rd_value = word.add(pc, word.wrap(imm << 12))
    else:
        rd_value = _alu(name, rs1_val, rs2_val, imm)
    return ExecResult(next_pc=next_pc, rd_value=rd_value, mem_addr=mem_addr,
                      store_value=store_value, taken=taken)


def _alu(name: str, a: int, b: int, imm: Optional[int]) -> int:
    if name == "add":
        return word.add(a, b)
    if name == "sub":
        return word.sub(a, b)
    if name == "sll":
        return word.sll(a, b & 31)
    if name == "slt":
        return word.lts(a, b)
    if name == "sltu":
        return word.ltu(a, b)
    if name == "xor":
        return word.xor(a, b)
    if name == "srl":
        return word.srl(a, b & 31)
    if name == "sra":
        return word.sra(a, b & 31)
    if name == "or":
        return word.or_(a, b)
    if name == "and":
        return word.and_(a, b)
    if name == "mul":
        return word.mul(a, b)
    if name == "mulh":
        return word.wrap((word.signed(a) * word.signed(b)) >> 32)
    if name == "mulhsu":
        return word.wrap((word.signed(a) * b) >> 32)
    if name == "mulhu":
        return word.mulhuu(a, b)
    if name == "div":
        return word.divs(a, b)
    if name == "divu":
        return word.divu(a, b)
    if name == "rem":
        return word.rems(a, b)
    if name == "remu":
        return word.remu(a, b)
    i = word.wrap(imm)
    if name == "addi":
        return word.add(a, i)
    if name == "slti":
        return word.lts(a, i)
    if name == "sltiu":
        return word.ltu(a, i)
    if name == "xori":
        return word.xor(a, i)
    if name == "ori":
        return word.or_(a, i)
    if name == "andi":
        return word.and_(a, i)
    if name == "slli":
        return word.sll(a, imm)
    if name == "srli":
        return word.srl(a, imm)
    if name == "srai":
        return word.sra(a, imm)
    raise ValueError("not an ALU instruction: %r" % name)


def load_result(dec: DecodedInstr, raw: int) -> int:
    """Finish a load: sign/zero extension of the memory response."""
    if dec.load_signed:
        return word.wrap(word.signed(raw, 8 * dec.mem_size))
    return raw & ((1 << (8 * dec.mem_size)) - 1)
