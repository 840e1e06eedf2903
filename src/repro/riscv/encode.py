"""RISC-V instruction encoding (the paper's ``instrencode``).

Encodes `Instr` values to 32-bit little-endian machine words following the
RISC-V unprivileged specification formats (R/I/S/B/U/J). The end-to-end
theorem's precondition -- "memory contains ``instrencode lightbulb_insts``
at address 0" -- is produced by `encode_program`.
"""

from __future__ import annotations

from typing import Sequence

from .insts import Instr

_OPCODE = {
    "R": 0b0110011,
    "I_ARITH": 0b0010011,
    "I_LOAD": 0b0000011,
    "S": 0b0100011,
    "B": 0b1100011,
    "LUI": 0b0110111,
    "AUIPC": 0b0010111,
    "JAL": 0b1101111,
    "JALR": 0b1100111,
}

# (funct3, funct7) per R-type mnemonic.
_R_FUNCT = {
    "add": (0b000, 0b0000000), "sub": (0b000, 0b0100000),
    "sll": (0b001, 0b0000000), "slt": (0b010, 0b0000000),
    "sltu": (0b011, 0b0000000), "xor": (0b100, 0b0000000),
    "srl": (0b101, 0b0000000), "sra": (0b101, 0b0100000),
    "or": (0b110, 0b0000000), "and": (0b111, 0b0000000),
    "mul": (0b000, 0b0000001), "mulh": (0b001, 0b0000001),
    "mulhsu": (0b010, 0b0000001), "mulhu": (0b011, 0b0000001),
    "div": (0b100, 0b0000001), "divu": (0b101, 0b0000001),
    "rem": (0b110, 0b0000001), "remu": (0b111, 0b0000001),
}

_I_ARITH_FUNCT = {
    "addi": 0b000, "slti": 0b010, "sltiu": 0b011,
    "xori": 0b100, "ori": 0b110, "andi": 0b111,
}

_I_SHIFT_FUNCT = {"slli": (0b001, 0b0000000), "srli": (0b101, 0b0000000),
                  "srai": (0b101, 0b0100000)}

_LOAD_FUNCT = {"lb": 0b000, "lh": 0b001, "lw": 0b010, "lbu": 0b100, "lhu": 0b101}
_STORE_FUNCT = {"sb": 0b000, "sh": 0b001, "sw": 0b010}
_BRANCH_FUNCT = {"beq": 0b000, "bne": 0b001, "blt": 0b100, "bge": 0b101,
                 "bltu": 0b110, "bgeu": 0b111}


def encode(instr: Instr) -> int:
    """Encode one instruction to its 32-bit word."""
    name = instr.name
    if name in _R_FUNCT:
        funct3, funct7 = _R_FUNCT[name]
        return (funct7 << 25) | (instr.rs2 << 20) | (instr.rs1 << 15) \
            | (funct3 << 12) | (instr.rd << 7) | _OPCODE["R"]
    if name in _I_ARITH_FUNCT:
        imm = instr.imm & 0xFFF
        return (imm << 20) | (instr.rs1 << 15) | (_I_ARITH_FUNCT[name] << 12) \
            | (instr.rd << 7) | _OPCODE["I_ARITH"]
    if name in _I_SHIFT_FUNCT:
        funct3, funct7 = _I_SHIFT_FUNCT[name]
        return (funct7 << 25) | ((instr.imm & 0x1F) << 20) | (instr.rs1 << 15) \
            | (funct3 << 12) | (instr.rd << 7) | _OPCODE["I_ARITH"]
    if name in _LOAD_FUNCT:
        imm = instr.imm & 0xFFF
        return (imm << 20) | (instr.rs1 << 15) | (_LOAD_FUNCT[name] << 12) \
            | (instr.rd << 7) | _OPCODE["I_LOAD"]
    if name in _STORE_FUNCT:
        imm = instr.imm & 0xFFF
        return ((imm >> 5) << 25) | (instr.rs2 << 20) | (instr.rs1 << 15) \
            | (_STORE_FUNCT[name] << 12) | ((imm & 0x1F) << 7) | _OPCODE["S"]
    if name in _BRANCH_FUNCT:
        imm = instr.imm & 0x1FFF
        return (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) \
            | (instr.rs2 << 20) | (instr.rs1 << 15) \
            | (_BRANCH_FUNCT[name] << 12) | (((imm >> 1) & 0xF) << 8) \
            | (((imm >> 11) & 1) << 7) | _OPCODE["B"]
    if name == "lui":
        return (instr.imm << 12) | (instr.rd << 7) | _OPCODE["LUI"]
    if name == "auipc":
        return (instr.imm << 12) | (instr.rd << 7) | _OPCODE["AUIPC"]
    if name == "jal":
        imm = instr.imm & 0x1FFFFF
        return (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) \
            | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) \
            | (instr.rd << 7) | _OPCODE["JAL"]
    if name == "jalr":
        imm = instr.imm & 0xFFF
        return (imm << 20) | (instr.rs1 << 15) | (0b000 << 12) \
            | (instr.rd << 7) | _OPCODE["JALR"]
    raise ValueError("cannot encode %r" % (instr,))


def encode_program(instrs: Sequence[Instr]) -> bytes:
    """``instrencode``: the little-endian byte image of an instruction list."""
    out = bytearray()
    for instr in instrs:
        word = encode(instr)
        out += word.to_bytes(4, "little")
    return bytes(out)

