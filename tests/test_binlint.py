"""Tests for the binary-level abstract interpreter (`repro.analysis.binlint`).

Three layers of evidence:

* *precision*: the shipped apps and generated programs lint completely
  clean, including translation validation;
* *recall*: hand-written bad binaries trip every one of the seven
  abstract-interpretation defect classes, and the two runtime-silent
  catalog mutations show up as binlint findings (that no other oracle
  layer kills them is pinned in `tests/test_fuzz.py`);
* *soundness*: on concrete executions, the machine state at every pc is
  inside the abstract state the fixpoint computed for that pc.
"""

import glob
import json
import os

import pytest

from repro.analysis.binlint import (
    BinaryLintConfig,
    analyze_image,
    lint_binary_program,
    lint_compiled,
    lint_image,
    state_contains,
    translation_validate,
)
from repro.analysis.cfg import call_graph, recover_cfg
from repro.bedrock2.ast_ import ELit, EOp, Function, SStore
from repro.compiler import compile_program
from repro.fuzz.astjson import program_from_json
from repro.fuzz.generator import GenConfig, PROFILES, SCRATCH_BASE, \
    generate_program
from repro.fuzz.mutate import mutation_context
from repro.fuzz.oracle import DEV_BASE, DEV_SIZE, SyntheticDevice
from repro.platform.bus import MMIO_RANGES
from repro.riscv import insts as I
from repro.riscv.encode import encode_program
from repro.riscv.machine import RiscvMachine

STACK_TOP = 1 << 16
CORPUS = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "..", "fuzz-corpus", "*.json")))


def _config(**kwargs):
    return BinaryLintConfig.for_platform(STACK_TOP, MMIO_RANGES, **kwargs)


def _lint(instrs, symbols=None):
    image = encode_program(instrs)
    return lint_image(image, symbols or {"func.f": 0}, _config())


def _codes(findings):
    return {d.code for d in findings}


RET = I.jalr(0, 1, 0)


# -- recall: hand-written bad binaries, one per defect class -----------------


def test_b2a101_branch_target_outside_image():
    findings = _lint([I.branch("beq", 0, 0, 64), RET])
    assert _codes(findings) == {"B2A101"}
    assert "outside XAddrs" in findings[0].message


def test_b2a101_indirect_jump():
    findings = _lint([I.jalr(0, 10, 0)])
    assert _codes(findings) == {"B2A101"}
    assert "indirect" in findings[0].message


def test_b2a101_misaligned_return():
    findings = _lint([I.jalr(0, 1, 1)])
    assert _codes(findings) == {"B2A101"}
    assert "misaligned" in findings[0].message


def test_b2a102_unclassifiable_access():
    # a0 + a1: two unrelated pointer bases, abstractly anything.
    findings = _lint([I.r_type("add", 29, 10, 11), I.load("lw", 30, 29, 0), RET])
    assert _codes(findings) == {"B2A102"}


def test_b2a103_mmio_misaligned():
    findings = _lint([
        I.u_type("lui", 29, 0x10012),
        I.i_type("addi", 29, 29, 2),
        I.load("lw", 30, 29, 0),
        RET,
    ])
    assert _codes(findings) == {"B2A103"}
    assert "word-aligned" in findings[0].message


def test_b2a103_mmio_not_word_sized():
    findings = _lint([
        I.u_type("lui", 29, 0x10012),
        I.store("sb", 29, 10, 0),
        RET,
    ])
    assert _codes(findings) == {"B2A103"}
    assert "not word-sized" in findings[0].message


def test_b2a103_outside_platform_map():
    findings = _lint([
        I.u_type("lui", 29, 0x20000),
        I.load("lw", 30, 29, 0),
        RET,
    ])
    assert _codes(findings) == {"B2A103"}
    assert "outside the platform address map" in findings[0].message


def test_b2a104_sp_imbalanced_at_return():
    findings = _lint([I.i_type("addi", 2, 2, -16), RET])
    assert _codes(findings) == {"B2A104"}
    assert "entry sp-16" in findings[0].message


def test_b2a105_store_below_sp():
    findings = _lint([
        I.i_type("addi", 2, 2, -16),
        I.store("sw", 2, 10, -4),
        I.i_type("addi", 2, 2, 16),
        RET,
    ])
    assert _codes(findings) == {"B2A105"}
    assert "below the stack pointer" in findings[0].message


def test_b2a106_callee_saved_clobbered():
    findings = _lint([I.i_type("addi", 18, 0, 5), RET])
    assert _codes(findings) == {"B2A106"}
    assert "s2" in findings[0].message


def test_b2a107_read_of_never_written_register():
    findings = _lint([I.r_type("add", 29, 3, 0), RET])
    assert _codes(findings) == {"B2A107"}
    assert "gp" in findings[0].message


def test_prologue_epilogue_pattern_is_clean():
    # The code generator's standard frame discipline must not trip any
    # check: save ra + one callee-saved reg, clobber it, restore, return.
    findings = _lint([
        I.i_type("addi", 2, 2, -16),
        I.store("sw", 2, 1, 12),
        I.store("sw", 2, 18, 8),
        I.i_type("addi", 18, 0, 7),
        I.load("lw", 18, 2, 8),
        I.load("lw", 1, 2, 12),
        I.i_type("addi", 2, 2, 16),
        RET,
    ])
    assert findings == []


def test_suppressions():
    instrs = [I.i_type("addi", 18, 0, 5), RET]
    image = encode_program(instrs)
    assert lint_image(image, {"func.f": 0},
                      _config(suppress=frozenset({"B2A106"}))) == []
    assert lint_image(image, {"func.f": 0},
                      _config(suppress=frozenset({("B2A106", "func.f")}))) \
        == []


def test_for_platform_cross_checks_extspec():
    class BadSpec:
        ranges = ((0x5000_0000, 0x5000_0040),)

    with pytest.raises(ValueError):
        BinaryLintConfig.for_platform(STACK_TOP, MMIO_RANGES,
                                      ext_spec=BadSpec())
    with pytest.raises(ValueError):
        BinaryLintConfig.for_platform(STACK_TOP, ((0x100, 0x200),))


# -- CFG recovery ------------------------------------------------------------


def test_cfg_recovery_of_lightbulb():
    from repro.sw.program import compiled_lightbulb

    compiled = compiled_lightbulb(stack_top=STACK_TOP)
    cfg = recover_cfg(compiled.image, compiled.symbols)
    assert "_start" in cfg.functions
    assert any(name.startswith("func.") for name in cfg.functions)
    assert not cfg.invalid  # every emitted word decodes
    for fn in cfg.functions.values():
        for block in fn.blocks.values():
            for succ in block.succs:
                assert succ in fn.blocks  # edges land on leaders
    graph = call_graph(cfg)
    assert "func.main" in graph["_start"] or \
        any("main" in c for c in graph["_start"])


def test_call_graph_edges_of_doorlock():
    from repro.sw.doorlock import doorlock_program

    program = doorlock_program()
    compiled = compile_program(program, entry="main", stack_top=STACK_TOP)
    graph = call_graph(recover_cfg(compiled.image, compiled.symbols))
    # Every callee named in an edge is a real function.
    for callees in graph.values():
        for callee in callees:
            assert callee in graph


# -- precision: shipped apps and generated programs lint clean ---------------


def test_lightbulb_binary_lints_clean():
    from repro.sw.program import compiled_lightbulb, lightbulb_program

    compiled = compiled_lightbulb(stack_top=STACK_TOP)
    assert lint_binary_program(lightbulb_program(), compiled,
                               _config()) == []


def test_doorlock_binary_lints_clean():
    from repro.sw.doorlock import doorlock_program

    program = doorlock_program()
    compiled = compile_program(program, entry="main", stack_top=STACK_TOP)
    assert lint_binary_program(program, compiled, _config()) == []


def _fuzz_config():
    return BinaryLintConfig.for_platform(
        STACK_TOP, ((DEV_BASE, DEV_BASE + DEV_SIZE),))


@pytest.mark.parametrize("seed", range(8))
def test_generated_programs_lint_clean(seed):
    program = generate_program(seed)
    compiled = compile_program(program, stack_top=STACK_TOP)
    assert lint_binary_program(program, compiled, _fuzz_config()) == []


def test_small_profile_lints_clean():
    config = GenConfig.from_dict(PROFILES["small"].to_dict())
    for seed in range(4):
        program = generate_program(seed, config)
        compiled = compile_program(program, stack_top=STACK_TOP)
        assert lint_binary_program(program, compiled, _fuzz_config()) == []


# -- translation validation ---------------------------------------------------


def _tv_program():
    body = SStore(4, ELit(SCRATCH_BASE), EOp("sub", ELit(10), ELit(3)))
    return {"main": Function("main", (), (), body)}


def test_translation_validation_clean_on_honest_compiler():
    program = _tv_program()
    compiled = compile_program(program, stack_top=STACK_TOP)
    assert translation_validate(program, compiled, _fuzz_config()) == []


def test_translation_validation_catches_wrong_lowering():
    program = _tv_program()
    with mutation_context("codegen-sub-as-add"):
        compiled = compile_program(program, stack_top=STACK_TOP)
    findings = translation_validate(program, compiled, _fuzz_config())
    assert _codes(findings) == {"B2A108"}
    assert "incompatible" in findings[0].message


def test_translation_validation_catches_dropped_store():
    program = _tv_program()
    with mutation_context("flatten-drop-store"):
        compiled = compile_program(program, stack_top=STACK_TOP)
    findings = translation_validate(program, compiled, _fuzz_config())
    assert _codes(findings) == {"B2A108"}
    assert "count mismatch" in findings[0].message


def test_translation_validation_covers_flattening():
    # The source facts come from the Bedrock2 program, so a store the
    # flattener drops is caught even while the mutation is active during
    # the lint too.
    program = _tv_program()
    with mutation_context("flatten-drop-store"):
        compiled = compile_program(program, stack_top=STACK_TOP)
        findings = lint_binary_program(program, compiled, _fuzz_config())
    assert [d.code for d in findings] == ["B2A108"]
    assert "count mismatch" in findings[0].message


# -- the two runtime-silent mutations: binlint is the only killer ------------


def test_jalr_mutation_visible_only_statically():
    program = generate_program(0)
    with mutation_context("encode-jalr-imm-plus1"):
        compiled = compile_program(program, stack_top=STACK_TOP)
    findings = lint_compiled(compiled, _fuzz_config())
    assert "B2A101" in _codes(findings)


def test_callee_save_mutation_visible_only_statically():
    program = generate_program(0)
    with mutation_context("regalloc-drop-callee-save"):
        compiled = compile_program(program, stack_top=STACK_TOP)
    findings = lint_compiled(compiled, _fuzz_config())
    assert "B2A106" in _codes(findings)



# -- soundness: abstract states contain every concrete execution -------------


def _check_soundness(program, context=""):
    """Single-step the ISA machine; at every pc, the fixpoint's abstract
    in-state must contain the concrete register file and spilled slots."""
    compiled = compile_program(program, stack_top=STACK_TOP)
    analyses = analyze_image(compiled.image, compiled.symbols,
                             _fuzz_config())
    cfg = recover_cfg(compiled.image, compiled.symbols)
    machine = RiscvMachine.with_program(
        compiled.image, base=0, pc=0, mem_size=STACK_TOP,
        mmio_bus=SyntheticDevice(), fast=False)

    def snapshot():
        return [machine.get_register(r) for r in range(32)]

    def mem_word(addr):
        if all((addr + i) in machine.mem for i in range(4)):
            return int.from_bytes(
                bytes(machine.mem[addr + i] for i in range(4)), "little")
        return None

    shadow = [("_start", snapshot())]
    steps = checked = 0
    while machine.pc != compiled.halt_pc:
        steps += 1
        assert steps < 200_000, "no halt while checking soundness" + context
        pc = machine.pc
        fname, entry_regs = shadow[-1]
        analysis = analyses.get(fname)
        if analysis is not None and analysis.function.contains(pc):
            state = analysis.states.get(pc)
            assert state is not None, \
                "executed pc 0x%x abstractly unreachable in %s%s" \
                % (pc, fname, context)
            err = state_contains(state, snapshot(), entry_regs, mem_word)
            assert err is None, \
                "pc 0x%x in %s: %s%s" % (pc, fname, err, context)
            checked += 1
        instr = machine.step()
        if instr.name == "jal" and instr.rd == 1:
            shadow.append((cfg.entries.get(machine.pc, "?"), snapshot()))
        elif instr.name == "jalr" and instr.rd == 0 and instr.rs1 == 1 \
                and len(shadow) > 1:
            shadow.pop()
    assert checked > 0
    return checked


@pytest.mark.parametrize("seed", range(6))
def test_soundness_on_generated_programs(seed):
    _check_soundness(generate_program(seed), " (seed %d)" % seed)


def test_soundness_on_small_profile():
    config = GenConfig.from_dict(PROFILES["small"].to_dict())
    for seed in range(3):
        _check_soundness(generate_program(seed, config),
                         " (small seed %d)" % seed)


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_soundness_on_corpus_reproducers(path):
    """The shrunk corpus programs re-execute inside their abstractions
    (compiled honestly -- the recorded mutation stays off)."""
    with open(path) as fh:
        doc = json.load(fh)
    _check_soundness(program_from_json(doc["program"]),
                     " (%s)" % os.path.basename(path))


# -- CLI ---------------------------------------------------------------------


def test_cli_lint_binary_clean():
    import contextlib
    import io

    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", "--binary", "--format", "json"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc == {"findings": [], "count": 0}
