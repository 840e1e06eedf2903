"""Mutation testing: seeded semantic bugs that measure oracle strength.

Each catalog entry injects one realistic integration bug -- a wrong
lowering in the compiler, an off-by-one in the instruction encoder, a
broken hazard path in the pipelined processor, a byte-enable bug in the
Kami memory -- via monkeypatching inside a context manager; source files
are never edited and every patch is undone on exit. A mutation is
*killed* when the differential oracle (or, for `--mutation-tier1`, the
repo's own test suite) reports a divergence/failure while it is active.

The kill rate is the number ISSUE 4 asks us to gate on: an oracle that
cannot kill a planted bug would not catch the real one either. The
generator's epilogue (`repro.fuzz.generator`) is designed so that every
mutation below is killed deterministically -- on *every* seed, not just
eventually.

``REPRO_MUTATION=<name>`` in the environment activates a mutation for a
whole process (used by the tier-1 scoring subprocess; see the repo
``conftest.py``).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..compiler import codegen
from ..compiler import flatten
from ..kami import framework as kami_framework
from ..kami import memory as kami_memory
from ..kami import pipeline_proc as kami_pipeline
from ..riscv import encode as rv_encode
from ..riscv.insts import B_TYPE, S_TYPE

#: Fast tier-1 subset used for mutation scoring of the repo's own tests.
TIER1_SUBSET = (
    "tests/test_compiler_correctness.py",
    "tests/test_riscv_encode.py",
    "tests/test_kami_processors.py",
    "tests/test_fuzz_corpus.py",
    "tests/test_binlint.py",
)


@contextmanager
def _patched(obj, attr: str, value) -> Iterator[None]:
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


# -- compiler lowering mutations ---------------------------------------------


def _cm_sub_as_add():
    op_map = dict(codegen.FunctionCompiler._OP_MAP)
    op_map["sub"] = "add"
    return _patched(codegen.FunctionCompiler, "_OP_MAP", op_map)


def _cm_ltu_as_lts():
    op_map = dict(codegen.FunctionCompiler._OP_MAP)
    op_map["ltu"] = "slt"
    return _patched(codegen.FunctionCompiler, "_OP_MAP", op_map)


def _cm_eq_no_normalize():
    original = codegen.FunctionCompiler._compile_op

    def mutated(self, s):
        if s.op != "eq":
            return original(self, s)
        lhs = self.read_var(s.lhs, codegen.SCRATCH[0])
        rhs = self.read_var(s.rhs, codegen.SCRATCH[1])
        rd, post = self.write_var(s.dst)
        # Bug: keeps the sub but forgets the sltiu that turns a
        # difference into a boolean.
        self.emit(codegen.I.r_type("sub", rd, lhs, rhs))
        self._writeback(post)

    return _patched(codegen.FunctionCompiler, "_compile_op", mutated)


def _cm_flatten_drop_store():
    from ..bedrock2.ast_ import SStore
    original = flatten.Flattener.flatten_cmd

    def mutated(self, c):
        out = original(self, c)
        if isinstance(c, SStore):
            out = [s for s in out if not isinstance(s, flatten.FStore)]
        return out

    return _patched(flatten.Flattener, "flatten_cmd", mutated)


# -- instruction encoder mutations -------------------------------------------


def _encode_with(rewrite: Callable):
    original = rv_encode.encode

    def mutated(instr):
        return original(rewrite(instr))

    return _patched(rv_encode, "encode", mutated)


def _cm_branch_plus4():
    def rewrite(instr):
        if instr.name in B_TYPE:
            return dataclasses.replace(instr, imm=instr.imm + 4)
        return instr

    return _encode_with(rewrite)


def _cm_store_imm_off_by_4():
    def rewrite(instr):
        if instr.name in S_TYPE:
            return dataclasses.replace(instr, imm=instr.imm + 4)
        return instr

    return _encode_with(rewrite)


def _cm_jal_rd_zero():
    def rewrite(instr):
        if instr.name == "jal":
            return dataclasses.replace(instr, rd=0)
        return instr

    return _encode_with(rewrite)


def _cm_jalr_imm_plus1():
    # Runtime-silent: every engine computes (rs1 + imm) & ~1 and ra is
    # always 4-aligned, so returns still land on the call site.  Only the
    # binary linter sees the misaligned return immediate (B2A101).
    def rewrite(instr):
        if instr.name == "jalr":
            return dataclasses.replace(instr, imm=(instr.imm or 0) + 1)
        return instr

    return _encode_with(rewrite)


def _cm_regalloc_drop_callee_save():
    # Runtime-silent: `_start` reads no allocatable register after main
    # returns, so clobbering one callee-saved register in main's frame
    # never changes an execution.  Only the binary linter's per-function
    # ABI check catches the missing save/restore pair (B2A106).
    original = codegen.FunctionCompiler.compile_function

    def mutated(self):
        if self.fn.name == "main" and self.saved_regs:
            self.saved_regs = self.saved_regs[1:]
        return original(self)

    return _patched(codegen.FunctionCompiler, "compile_function", mutated)


# -- Kami pipeline / memory mutations ----------------------------------------


def _cm_pipeline_rs_swap():
    original = kami_pipeline.decode_signals

    def mutated(raw):
        dec = original(raw)
        if (dec.src1 is not None and dec.src2 is not None
                and dec.src1 != dec.src2):
            return dataclasses.replace(dec, src1=dec.src2, src2=dec.src1)
        return dec

    return _patched(kami_pipeline, "decode_signals", mutated)


def _cm_pipeline_fifo_lifo():
    class LifoFifo(kami_framework.Fifo):
        def deq(self):
            q = self.module.regs[self.name]
            if not q:
                raise kami_framework.RuleAbort("%s empty" % self.name)
            return q.pop()

        def first(self):
            q = self.module.regs[self.name]
            if not q:
                raise kami_framework.RuleAbort("%s empty" % self.name)
            return q[-1]

    return _patched(kami_pipeline, "Fifo", LifoFifo)


def _cm_kami_mem_wide_store():
    original_make = kami_memory.make_memory_module

    def mutated(image, ram_words=1 << 18, name="mem"):
        module = original_make(image, ram_words=ram_words, name=name)
        original_write = module.methods["memWrite"]

        def wide_write(m, addr, data, byteen):
            # Bug: the byte-enable lanes are stuck at full-word.
            return original_write(m, addr, data, 0b1111 if byteen else 0)

        module.methods["memWrite"] = wide_write
        return module

    return _patched(kami_memory, "make_memory_module", mutated)


@dataclass(frozen=True)
class Mutation:
    name: str
    layer: str
    description: str
    enter: Callable[[], object]   # returns a context manager


CATALOG: Dict[str, Mutation] = {
    m.name: m for m in (
        Mutation("codegen-sub-as-add", "compiler",
                 "lower the 'sub' binop to RISC-V add", _cm_sub_as_add),
        Mutation("codegen-ltu-as-lts", "compiler",
                 "lower unsigned 'ltu' to signed slt", _cm_ltu_as_lts),
        Mutation("codegen-eq-no-normalize", "compiler",
                 "drop the sltiu normalization of 'eq' (leaves a-b)",
                 _cm_eq_no_normalize),
        Mutation("flatten-drop-store", "compiler",
                 "flatten SStore but drop the FStore itself",
                 _cm_flatten_drop_store),
        Mutation("encode-branch-plus4", "encoder",
                 "encode branch offsets 4 bytes too far", _cm_branch_plus4),
        Mutation("encode-store-imm-off-by-4", "encoder",
                 "encode sb/sh/sw immediates 4 bytes too far",
                 _cm_store_imm_off_by_4),
        Mutation("encode-jal-rd-zero", "encoder",
                 "encode jal with rd=x0 (drops the return address)",
                 _cm_jal_rd_zero),
        Mutation("encode-jalr-imm-plus1", "encoder",
                 "encode jalr immediates one byte too far (masked at "
                 "runtime; only the binary lint layer sees it)",
                 _cm_jalr_imm_plus1),
        Mutation("regalloc-drop-callee-save", "compiler",
                 "drop one callee-saved save/restore pair from main "
                 "(runtime-silent; only the binary lint layer sees it)",
                 _cm_regalloc_drop_callee_save),
        Mutation("pipeline-rs-swap", "pipeline",
                 "swap rs1/rs2 in the pipelined processor's decode",
                 _cm_pipeline_rs_swap),
        Mutation("pipeline-fifo-lifo", "pipeline",
                 "turn the pipeline latches into LIFO stacks",
                 _cm_pipeline_fifo_lifo),
        Mutation("kami-mem-wide-store", "kami-memory",
                 "byte-enable lanes stuck at full-word in memWrite",
                 _cm_kami_mem_wide_store),
    )
}


def mutation_context(name: str):
    """Context manager applying catalog mutation ``name``."""
    return CATALOG[name].enter()


_ACTIVE: List[object] = []


def activate(name: str) -> None:
    """Apply a mutation for the rest of the process (no deactivation;
    used via ``REPRO_MUTATION`` for tier-1 scoring subprocesses)."""
    cm = mutation_context(name)
    cm.__enter__()
    _ACTIVE.append(cm)


# -- scoring -----------------------------------------------------------------


#: Default seed set for `score_differential`: chosen so every catalog
#: mutation is killed deterministically (most die on seed 0; the fifo
#: reorder needs a program whose pipeline backs up, seed 4).
DEFAULT_SCORE_SEEDS = tuple(range(8))


def score_differential(seeds: Sequence[int] = DEFAULT_SCORE_SEEDS,
                       config: Optional[dict] = None, jobs: int = 1,
                       names: Optional[Sequence[str]] = None) -> dict:
    """Kill rate of the differential oracle: for each mutation, run the
    oracle over ``seeds`` until the first divergence (= killed)."""
    from ..logic.dispatch import parallel_call

    names = list(names) if names is not None else sorted(CATALOG)
    step = max(1, jobs)
    results = {}
    for name in names:
        killed_by = None
        kind = None
        # Dispatch in job-sized chunks so a mutation killed by the first
        # seed doesn't pay for the rest of the seed list.
        for start in range(0, len(seeds), step):
            chunk = list(seeds)[start:start + step]
            kwargs_list = [{"seed": s, "config": config, "mutation": name}
                           for s in chunk]
            for outcome in parallel_call("repro.fuzz.oracle:run_fuzz_seed",
                                         kwargs_list, jobs=jobs):
                if outcome["status"] == "divergence":
                    killed_by = outcome["seed"]
                    kind = outcome["divergence"]
                    break
            if killed_by is not None:
                break
        results[name] = {"killed": killed_by is not None,
                         "layer": CATALOG[name].layer,
                         "killed_by_seed": killed_by,
                         "divergence": kind}
    killed = sum(r["killed"] for r in results.values())
    return {"mutations": results, "killed": killed, "total": len(results),
            "kill_rate": killed / len(results) if results else 1.0}


def score_tier1(names: Optional[Sequence[str]] = None,
                tests: Sequence[str] = TIER1_SUBSET,
                timeout: int = 600) -> dict:
    """Kill rate of the repo's own tests: run a fast tier-1 subset in a
    subprocess with ``REPRO_MUTATION=<name>``; a nonzero exit kills."""
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    names = list(names) if names is not None else sorted(CATALOG)
    results = {}
    for name in names:
        env = dict(os.environ)
        env["REPRO_MUTATION"] = name
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *tests],
            cwd=repo_root, env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        results[name] = {"killed": proc.returncode != 0,
                         "layer": CATALOG[name].layer}
    killed = sum(r["killed"] for r in results.values())
    return {"mutations": results, "killed": killed, "total": len(results),
            "kill_rate": killed / len(results) if results else 1.0}
