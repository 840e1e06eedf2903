"""Static WCET & stack-bound analyzer (tier-1).

The analyzer (`repro.analysis.wcet`) claims to *prove* cycle and stack
bounds for RV32IM binaries against the p4mm-calibrated cost model
(`repro.analysis.costmodel`). This suite holds it to that claim:

* the cost model matches the live pipeline (drift check clean, and a
  deliberately miscalibrated model is caught as B2A205);
* both shipped apps prove with zero findings, inside the committed
  ``timing-budgets.json``, with the stack bound agreeing exactly with
  the compiler's own frame accounting;
* recursion (one B2A202 per cycle), data-dependent loops and loops
  whose counter a call or an inner loop may change (B2A201) are
  rejected, never silently "bounded";
* inferred fuel-loop bounds match the generator's ground truth
  (exactly for most seeds; a subsequence when dead loops are pruned);
* the bounds are *dynamically sound*: measured pipeline cycles and the
  runtime stack watermark never exceed the static bounds, on both the
  reference interpreter and the fast engine (which must agree on the
  watermark bit-for-bit).
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.analysis.binlint import BinaryLintConfig
from repro.analysis.costmodel import (CostModel, check_pipeline_drift,
                                      mispredict_penalty_for,
                                      pipeline_cost_model)
from repro.analysis.wcet import (ANNOTATED, INFERRED, SPIN, UNBOUNDED,
                                 TimingConfig, analyze_timing,
                                 check_budgets, drift_findings,
                                 load_budgets)
from repro.compiler.pipeline import compile_program
from repro.fuzz.generator import (DEV_BASE, DEV_SIZE, fuel_bounds,
                                  generate_program)
from repro.platform.bus import MMIO_RANGES
from repro.sw.doorlock import doorlock_program
from repro.sw.program import compiled_lightbulb

STACK_TOP = 1 << 16
BUDGETS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "timing-budgets.json")


def _fuzz_config():
    return TimingConfig(
        lint=BinaryLintConfig.for_platform(
            STACK_TOP, ((DEV_BASE, DEV_BASE + DEV_SIZE),)),
        model=CostModel())


def _app_report(name):
    loop_bounds, budgets = load_budgets(BUDGETS_PATH)
    if name == "lightbulb":
        compiled = compiled_lightbulb(stack_top=STACK_TOP)
    else:
        compiled = compile_program(doorlock_program(), entry="main",
                                   stack_top=STACK_TOP)
    config = TimingConfig(
        lint=BinaryLintConfig.for_platform(compiled.stack_top, MMIO_RANGES),
        model=CostModel(),
        loop_bounds=loop_bounds)
    return analyze_timing(compiled, config), compiled, budgets.get(name, {})


# -- cost model ---------------------------------------------------------------


def test_cost_model_matches_live_pipeline():
    model = pipeline_cost_model()  # raises on drift
    assert model.base_cpi == 4
    assert model.mispredict_penalty == mispredict_penalty_for(
        model.fifo_depth)
    assert check_pipeline_drift(model) == []
    assert drift_findings() == []


def test_cost_model_drift_is_caught():
    """A miscalibrated model cannot produce silently unsound bounds:
    every perturbed constant shows up as at least one drift message."""
    for field, value in (("fifo_depth", 3), ("mispredict_penalty", 5),
                         ("base_cpi", 5)):
        model = CostModel(**{field: value})
        drift = check_pipeline_drift(model)
        assert drift, "perturbing %s went undetected" % field
        findings = drift_findings(model)
        assert findings and all(d.code == "B2A205" for d in findings)


def test_block_cost_charges_control_transfers():
    model = CostModel()
    straight = model.block_cost(5, control_transfer=False)
    taken = model.block_cost(5, control_transfer=True)
    assert straight == 5 * model.base_cpi
    assert taken - straight == model.mispredict_penalty
    assert model.fill_cost(10) == 10 * model.fill_per_word


# -- committed budgets file ---------------------------------------------------


def test_budgets_file_parses():
    loop_bounds, apps = load_budgets(BUDGETS_PATH)
    assert loop_bounds["func.lan9250_drain"][0] == 380
    assert set(apps) == {"lightbulb", "doorlock"}
    for budget in apps.values():
        assert {"startup_cycles", "iteration_cycles", "stack_bytes"} <= set(budget)


# -- shipped apps -------------------------------------------------------------


@pytest.mark.parametrize("app", ["lightbulb", "doorlock"])
def test_shipped_app_proves_within_budgets(app):
    report, compiled, budget = _app_report(app)
    assert report.findings == []
    assert check_budgets(report, budget) == []
    # The event loop never returns: server-shaped program bounds.
    assert report.wcet_cycles is None
    assert 0 < report.startup_cycles <= budget["startup_cycles"]
    assert 0 < report.iteration_cycles <= budget["iteration_cycles"]
    # Interprocedural stack bound agrees exactly with the compiler's
    # own frame accounting -- two independent computations of the same
    # quantity.
    assert report.stack_bound == compiled.stack_bound
    assert report.stack_bound <= budget["stack_bytes"]


def test_lightbulb_drain_loop_uses_annotation():
    """The LAN9250 drain loop is data-dependent (bounded by the RX fifo,
    not a fuel counter); it must be priced from the committed flow fact,
    not guessed."""
    report, _, _ = _app_report("lightbulb")
    drain = report.functions["func.lan9250_drain"]
    annotated = [lp for lp in drain.loops if lp.source == ANNOTATED]
    assert [lp.bound for lp in annotated] == [380]


def test_shipped_app_to_json_round_trips():
    report, _, _ = _app_report("doorlock")
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["stack_bound"] == report.stack_bound
    assert doc["iteration_cycles"] == report.iteration_cycles
    assert set(doc["functions"]) == set(report.functions)


def test_cli_lint_timing_analyzes_each_image_once(monkeypatch, capsys):
    """`lint --binary --timing` hands one analysis per shipped image to
    both the lint and the bounds."""
    from repro.__main__ import main
    from repro.analysis import binlint
    from tests.test_fuzz import _count_calls

    calls = _count_calls(monkeypatch, binlint.analyze_image)
    code = main(["lint", "--binary", "--timing", "--app", "all",
                 "--budgets", BUDGETS_PATH, "--format", "json"])
    assert json.loads(capsys.readouterr().out) == {"findings": [],
                                                   "count": 0}
    assert code == 0
    assert len(calls) == 2


# -- rejection: no silent bounds ---------------------------------------------


def test_recursion_rejected():
    """Self-recursion in a hand-assembled binary (the compiler refuses
    to emit one) is rejected for both WCET and stack."""
    from repro.riscv.encode import encode_program
    from repro.riscv.insts import Instr

    image = encode_program([
        Instr("lui", rd=2, imm=0x10),   # _start: sp = 0x10000
        Instr("jal", rd=1, imm=4),      # call func.f
        Instr("jal", rd=1, imm=0),      # func.f: calls itself
    ])
    compiled = SimpleNamespace(image=image,
                               symbols={"_start": 0, "func.f": 8},
                               stack_top=STACK_TOP)
    config = TimingConfig(lint=BinaryLintConfig(ram=(0, STACK_TOP)),
                          model=CostModel())
    report = analyze_timing(compiled, config)
    # One finding per cycle, for both the WCET and the stack bound.
    [cycle] = [d for d in report.findings if d.code == "B2A202"]
    assert "WCET" in cycle.message and "stack" in cycle.message
    assert report.wcet_cycles is None
    assert report.stack_bound is None


def _assembled(instrs, symbols):
    """A hand-assembled image, shaped like a `CompiledProgram`."""
    from repro.riscv.encode import encode_program

    return SimpleNamespace(image=encode_program(instrs), symbols=symbols,
                           stack_top=STACK_TOP)


def _loops(report, function):
    """(source, bound) of each of ``function``'s loops but halt spins."""
    return [(lp.source, lp.bound) for lp in report.functions[function].loops
            if lp.source != SPIN]


@pytest.mark.parametrize("where", ["before", "inside"])
def test_loop_counter_clobbered_by_a_call_not_inferred(where):
    """A fuel loop on a0, which a call clobbers (x10 is an argument
    register): before the loop, so the entry bound of 5 does not hold,
    or inside it, so the decrement does not."""
    from repro.riscv.insts import Instr

    if where == "before":
        body = [Instr("jal", rd=1, imm=20),           # 8: call func.g
                Instr("beq", rs1=10, rs2=0, imm=12),  # 12: loop test
                Instr("addi", rd=10, rs1=10, imm=-1),
                Instr("jal", rd=0, imm=-8)]
    else:
        body = [Instr("beq", rs1=10, rs2=0, imm=16),  # 8: loop test
                Instr("addi", rd=10, rs1=10, imm=-1),
                Instr("jal", rd=1, imm=12),           # 16: call func.g
                Instr("jal", rd=0, imm=-12)]
    compiled = _assembled(
        [Instr("lui", rd=2, imm=0x10),          # 0: sp = 0x10000
         Instr("addi", rd=10, rs1=0, imm=5)]    # 4: a0 = 5
        + body
        + [Instr("jal", rd=0, imm=0),           # 24: halt spin
           Instr("jalr", rd=0, rs1=1, imm=0)],  # 28: func.g returns
        {"_start": 0, "func.g": 28})
    report = analyze_timing(compiled, _fuzz_config())
    assert _loops(report, "_start") == [(UNBOUNDED, None)]
    assert "B2A201" in {d.code for d in report.findings}
    assert report.wcet_cycles is None


@pytest.mark.parametrize("counter", ["register", "slot"])
def test_inner_loop_raising_the_outer_counter_not_inferred(counter):
    """Each inner iteration adds one to the outer loop's fuel counter,
    kept in a register or in a frame slot, so the outer loop never ends;
    only the inner loop has a bound."""
    from repro.riscv.insts import Instr

    if counter == "register":
        fn = [Instr("addi", rd=29, rs1=0, imm=3),     # 12: outer = 3
              Instr("beq", rs1=29, rs2=0, imm=32),    # 16: outer test
              Instr("addi", rd=29, rs1=29, imm=-1),
              Instr("addi", rd=30, rs1=0, imm=2),     # 24: inner = 2
              Instr("beq", rs1=30, rs2=0, imm=16),    # 28: inner test
              Instr("addi", rd=30, rs1=30, imm=-1),
              Instr("addi", rd=29, rs1=29, imm=1),    # 36: outer += 1
              Instr("jal", rd=0, imm=-12),
              Instr("jal", rd=0, imm=-28),            # 44: to outer test
              Instr("jalr", rd=0, rs1=1, imm=0)]      # 48: return
    else:
        fn = [Instr("addi", rd=2, rs1=2, imm=-16),    # 12: frame
              Instr("addi", rd=29, rs1=0, imm=3),
              Instr("sw", rs1=2, rs2=29, imm=8),      # 20: outer = 3
              Instr("lw", rd=29, rs1=2, imm=8),       # 24: outer test
              Instr("beq", rs1=29, rs2=0, imm=56),
              Instr("addi", rd=29, rs1=29, imm=-1),
              Instr("sw", rs1=2, rs2=29, imm=8),
              Instr("addi", rd=30, rs1=0, imm=2),
              Instr("sw", rs1=2, rs2=30, imm=4),      # 44: inner = 2
              Instr("lw", rd=30, rs1=2, imm=4),       # 48: inner test
              Instr("beq", rs1=30, rs2=0, imm=28),
              Instr("addi", rd=30, rs1=30, imm=-1),
              Instr("sw", rs1=2, rs2=30, imm=4),
              Instr("lw", rd=31, rs1=2, imm=8),       # 64: outer += 1
              Instr("addi", rd=31, rs1=31, imm=1),
              Instr("sw", rs1=2, rs2=31, imm=8),
              Instr("jal", rd=0, imm=-28),
              Instr("jal", rd=0, imm=-56),            # 80: to outer test
              Instr("addi", rd=2, rs1=2, imm=16),
              Instr("jalr", rd=0, rs1=1, imm=0)]
    compiled = _assembled(
        [Instr("lui", rd=2, imm=0x10),  # 0: sp = 0x10000
         Instr("jal", rd=1, imm=8),     # 4: call func.f
         Instr("jal", rd=0, imm=0)]     # 8: halt spin
        + fn, {"_start": 0, "func.f": 12})
    report = analyze_timing(compiled, _fuzz_config())
    # By header pc: the outer loop, then the inner one.
    assert _loops(report, "func.f") == [(UNBOUNDED, None), (INFERRED, 2)]
    assert report.wcet_cycles is None


def test_data_dependent_loop_not_inferred():
    """A loop governed by memory the analyzer cannot bound must be
    B2A201, never a guessed bound."""
    from repro.bedrock2.ast_ import (ELoad, EVar, Function, SSkip,
                                     SStackalloc, SWhile)

    program = {"main": Function("main", (), (), SStackalloc(
        "p", 8, SWhile(ELoad(4, EVar("p")), SSkip())))}
    compiled = compile_program(program, stack_top=STACK_TOP)
    report = analyze_timing(compiled, _fuzz_config())
    assert "B2A201" in {d.code for d in report.findings}
    assert report.wcet_cycles is None


# -- fuel-loop ground truth ---------------------------------------------------


def _is_subsequence(sub, full):
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


#: Default-profile seeds whose fuel counters live in far-path slots of
#: 2.3-3.4 KiB frames, addressed through ``lui``/``addi``/``add sp``.
FAR_FRAME_SEEDS = (51, 111, 120)


def test_inferred_bounds_match_generator_ground_truth():
    """The generator records the fuel literal of every loop it emits
    (`fuel_bounds`). The analyzer's inferred bounds must match that
    ground truth exactly for most functions, and always be an ordered
    subsequence of it (dead loops -- ``if (0)`` arms -- are pruned by
    semantic reachability, never mis-bounded)."""
    config = _fuzz_config()
    exact = total = 0
    for seed in tuple(range(20)) + FAR_FRAME_SEEDS:
        program = generate_program(seed)
        truth = fuel_bounds(program)
        compiled = compile_program(program, stack_top=STACK_TOP)
        report = analyze_timing(compiled, config)
        assert report.findings == [], (seed, report.findings)
        assert report.wcet_cycles is not None, seed
        assert report.stack_bound == compiled.stack_bound, seed
        for fn_name, bounds in truth.items():
            timing = report.functions["func." + fn_name]
            inferred = [lp.bound for lp in
                        sorted(timing.loops, key=lambda lp: lp.ordinal)
                        if lp.source == INFERRED]
            total += 1
            if inferred == bounds:
                exact += 1
            else:
                assert _is_subsequence(inferred, bounds), \
                    (seed, fn_name, inferred, bounds)
    assert total > 0
    assert exact >= 2 * total // 3, "only %d/%d exact" % (exact, total)


def test_fuel_bounds_records_only_loop_functions():
    program = generate_program(0)
    truth = fuel_bounds(program)
    assert truth  # seed 0 has at least one fuel loop
    for name, bounds in truth.items():
        assert name in program
        assert bounds and all(b > 0 for b in bounds)


# -- dynamic soundness --------------------------------------------------------


def test_bounds_sound_against_measured_execution():
    """For a deterministic seed sample, the oracle's wcet layer proves a
    bound and every dynamic measurement stays under it: pipeline cycles
    under the static WCET, stack watermark under the static bound."""
    from repro.fuzz.oracle import run_differential

    checked = 0
    for seed in range(6):
        result = run_differential(generate_program(seed))
        assert result["status"] == "ok", (seed, result.get("divergence"))
        wcet = result["wcet"]
        assert wcet["measured_cycles"] <= wcet["static_cycles"], seed
        assert wcet["measured_stack"] <= wcet["stack_bound"], seed
        # Not vacuous: the bound is within a small factor of reality.
        assert wcet["static_cycles"] < 4 * wcet["measured_cycles"], seed
        checked += 1
    assert checked == 6


def test_stack_watermark_reference_and_fast_agree():
    """Both engines track the sp low-water mark identically, and the
    measured depth respects the static bound."""
    from repro.fuzz.oracle import _MEM_SIZE, SyntheticDevice
    from repro.bedrock2 import word
    from repro.riscv.machine import RiscvMachine

    config = _fuzz_config()
    for seed in (0, 7):
        compiled = compile_program(generate_program(seed),
                                   stack_top=STACK_TOP)
        report = analyze_timing(compiled, config)
        marks = []
        for fast in (False, True):
            machine = RiscvMachine.with_program(
                compiled.image, base=0, pc=0, mem_size=_MEM_SIZE,
                mmio_bus=SyntheticDevice(), fast=fast)
            machine.run(500_000)
            marks.append(machine.sp_min)
        ref_min, fast_min = marks
        assert ref_min == fast_min, seed
        assert ref_min < word.MASK  # the program did touch the stack
        depth = STACK_TOP - ref_min
        assert 0 < depth <= report.stack_bound, seed


def test_watermark_tracks_all_sp_writers():
    """The watermark sees every write to x2, whichever instruction
    produced it -- not just addi sp, sp, -frame."""
    from repro.riscv.machine import RiscvMachine

    for fast in (False, True):
        machine = RiscvMachine.with_program(b"", base=0, pc=0,
                                            mem_size=4096, fast=fast)
        machine.set_register(2, 4000)
        machine.set_register(2, 1024)
        machine.set_register(2, 2048)  # raising sp must not raise the mark
        assert machine.sp_min == 1024
