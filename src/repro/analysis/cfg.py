"""Control-flow recovery from encoded RV32IM images.

The binary-level linter (`repro.analysis.binlint`) needs the same thing
every binary analysis needs first: which bytes are instructions, where
functions start and end, and how control flows between basic blocks.
This module recovers all of that from a compiled image plus its symbol
table (`CompiledProgram.symbols`), reusing `repro.riscv.decode` so the
CFG is built from exactly the instructions the machines will execute.

Function extents come from the symbols: every ``func.*`` label and the
``_start`` stub open a function that extends to the next function label
(or the end of the image); interior labels like ``halt`` or the branch-
relaxation trampolines stay inside their enclosing function. Within a
function, block leaders are the entry, every branch/jump target, and
every instruction following a terminator. Successor edges are only
recorded when the target lands on a decoded instruction inside the same
function -- out-of-extent or misaligned targets are kept as the block's
``target`` for the linter to diagnose (B2A101) rather than silently
becoming edges.

Terminator kinds:

========== ==============================================================
fall       straight-line flow into the next leader
branch     conditional B-type; successors are fall-through and target
jump       ``jal`` with rd=x0 (or any rd other than ra): one successor
call       ``jal`` with rd=ra; successor is the return point (pc+4)
return     ``jalr`` with rd=x0, rs1=ra (imm checked by the linter)
indirect   any other ``jalr`` -- target statically unknown, no successors
========== ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..riscv.decode import decode
from ..riscv.insts import B_TYPE, Instr

#: ABI register numbers the classifier cares about.
RA = 1
SP = 2


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line run of instructions inside one function."""

    start: int
    instrs: Tuple[Tuple[int, Instr], ...]
    kind: str  # "fall" | "branch" | "jump" | "call" | "return" | "indirect"
    succs: Tuple[int, ...]  # validated intra-function successor pcs
    target: Optional[int]  # raw control-transfer target (branch/jump/call)

    @property
    def terminator(self) -> Tuple[int, Instr]:
        return self.instrs[-1]


@dataclass(frozen=True)
class BinFunction:
    """One function's extent and its basic blocks, keyed by start pc."""

    name: str
    entry: int
    end: int  # half-open: [entry, end)
    blocks: Dict[int, BasicBlock]

    def contains(self, pc: int) -> bool:
        return self.entry <= pc < self.end


@dataclass(frozen=True)
class BinaryCFG:
    """The whole image's control-flow graph."""

    functions: Dict[str, BinFunction]
    instrs: Dict[int, Instr]  # every decodable word, by pc
    invalid: Tuple[Tuple[int, int], ...]  # (pc, raw word) decode failures
    image_size: int
    entries: Dict[int, str]  # function entry pc -> name


def decode_image(image: bytes,
                 base: int = 0) -> Tuple[Dict[int, Instr],
                                         List[Tuple[int, int]]]:
    """Decode every aligned word; undecodable words are collected, not
    fatal (data words would appear this way, though the compiler emits
    none)."""
    instrs: Dict[int, Instr] = {}
    invalid: List[Tuple[int, int]] = []
    for off in range(0, len(image) - len(image) % 4, 4):
        word = int.from_bytes(image[off:off + 4], "little")
        pc = base + off
        try:
            instrs[pc] = decode(word)
        except Exception:
            invalid.append((pc, word))
    return instrs, invalid


def function_extents(symbols: Mapping[str, int],
                     image_size: int) -> List[Tuple[str, int, int]]:
    """``(name, entry, end)`` for every function label, sorted by entry.

    Only ``func.*`` labels and ``_start`` delimit functions; all other
    symbols (``halt``, relaxation trampolines) are interior labels.
    """
    starts = sorted((addr, name) for name, addr in symbols.items()
                    if name.startswith("func.") or name == "_start")
    extents = []
    for i, (addr, name) in enumerate(starts):
        end = starts[i + 1][0] if i + 1 < len(starts) else image_size
        extents.append((name, addr, end))
    return extents


def classify_terminator(pc: int, instr: Instr) -> Tuple[str, Optional[int]]:
    """``(kind, raw_target)`` for an instruction viewed as a potential
    block terminator; ``("fall", None)`` for straight-line instructions."""
    if instr.name in B_TYPE:
        return "branch", pc + (instr.imm or 0)
    if instr.name == "jal":
        target = pc + (instr.imm or 0)
        if instr.rd == RA:
            return "call", target
        return "jump", target
    if instr.name == "jalr":
        if instr.rd == 0 and instr.rs1 == RA:
            return "return", None
        return "indirect", None
    return "fall", None


def _recover_function(name: str, entry: int, end: int,
                      instrs: Mapping[int, Instr]) -> BinFunction:
    pcs = [pc for pc in range(entry, end, 4) if pc in instrs]
    pc_set = set(pcs)

    leaders: Set[int] = {entry}
    for pc in pcs:
        if pc - 4 not in pc_set:  # first instruction after a decode gap
            leaders.add(pc)
        kind, target = classify_terminator(pc, instrs[pc])
        if kind == "fall":
            continue
        leaders.add(pc + 4)
        if (kind in ("branch", "jump") and target is not None
                and target in pc_set):
            leaders.add(target)

    blocks: Dict[int, BasicBlock] = {}
    current: List[Tuple[int, Instr]] = []
    start = entry
    for i, pc in enumerate(pcs):
        if pc in leaders and current:
            # Fell through into a new leader -- unless a decode gap sits
            # between them, in which case execution never arrives and the
            # linter reports the dead end (empty succs on a fall block).
            succ = (pc,) if current[-1][0] + 4 == pc else ()
            blocks[start] = _make_block(start, current, "fall", succ, None)
            current, start = [], pc
        instr = instrs[pc]
        current.append((pc, instr))
        kind, target = classify_terminator(pc, instr)
        next_pc = pcs[i + 1] if i + 1 < len(pcs) else None
        if kind == "fall":
            continue
        succs: Tuple[int, ...]
        if kind == "branch":
            succs = tuple(t for t in dict.fromkeys((pc + 4, target))
                          if t is not None and t in pc_set)
        elif kind == "jump":
            succs = (target,) if target in pc_set else ()
        elif kind == "call":
            succs = (pc + 4,) if pc + 4 in pc_set else ()
        else:  # return / indirect
            succs = ()
        blocks[start] = _make_block(start, current, kind, succs, target)
        current = []
        if next_pc is not None:
            start = next_pc
    if current:
        # The extent ended without a terminator: control would fall off
        # the end of the function (linted as B2A101).
        blocks[start] = _make_block(start, current, "fall", (), None)
    return BinFunction(name=name, entry=entry, end=end, blocks=blocks)


def _make_block(start: int, instrs: List[Tuple[int, Instr]], kind: str,
                succs: Tuple[int, ...],
                target: Optional[int]) -> BasicBlock:
    return BasicBlock(start=start, instrs=tuple(instrs), kind=kind,
                      succs=succs, target=target)


def recover_cfg(image: bytes, symbols: Mapping[str, int],
                base: int = 0) -> BinaryCFG:
    """Recover the full CFG of a compiled image."""
    instrs, invalid = decode_image(image, base)
    extents = function_extents(symbols, base + len(image))
    functions = {name: _recover_function(name, entry, end, instrs)
                 for name, entry, end in extents}
    entries = {entry: name for name, entry, _ in extents}
    return BinaryCFG(functions=functions, instrs=instrs,
                     invalid=tuple(invalid), image_size=base + len(image),
                     entries=entries)


def call_graph(cfg: BinaryCFG) -> Dict[str, Set[str]]:
    """caller name -> set of callee names, from ``jal ra`` call sites
    whose target is a known function entry (unknown targets are the
    linter's problem, not edges)."""
    graph: Dict[str, Set[str]] = {name: set() for name in cfg.functions}
    for name, fn in cfg.functions.items():
        for block in fn.blocks.values():
            if block.kind == "call" and block.target in cfg.entries:
                graph[name].add(cfg.entries[block.target])
    return graph
