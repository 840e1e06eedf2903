"""Tests for the differential fuzzing subsystem (`repro.fuzz`)."""

import json
import random
import sys

import pytest

from repro.bedrock2.semantics import Memory, MMIOExtHandler, run_function
from repro.fuzz.astjson import program_from_json, program_to_json
from repro.fuzz.generator import (
    GenConfig,
    PROFILES,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    adversarial_frames,
    generate_program,
    rng_for,
)
from repro.fuzz.mutate import CATALOG, mutation_context, score_differential
from repro.fuzz.oracle import (
    LAYERS,
    SyntheticDevice,
    run_differential,
    run_fuzz_seed,
)
from repro.fuzz.shrink import (
    replay_file,
    save_reproducer,
    shrink_reproducer,
    stmt_count,
)
from repro.platform.net import adversarial_stream


# -- generator ---------------------------------------------------------------


def test_generator_deterministic():
    assert program_to_json(generate_program(7)) == \
        program_to_json(generate_program(7))
    assert program_to_json(generate_program(7)) != \
        program_to_json(generate_program(8))


def test_generator_profiles_cover_main():
    for profile in PROFILES.values():
        program = generate_program(3, profile)
        assert "main" in program
        assert program["main"].params == ()


def test_astjson_roundtrip():
    for seed in range(10):
        program = generate_program(seed)
        doc = program_to_json(program)
        assert program_to_json(program_from_json(doc)) == doc
        # and the document survives a JSON wire trip
        assert json.loads(json.dumps(doc)) == doc


def test_generated_programs_are_ub_free():
    """The generator's well-formedness guarantees: every program runs to
    completion on the reference interpreter with no UB."""
    for seed in range(25):
        program = generate_program(seed)
        dev = SyntheticDevice()
        mem = Memory.from_regions([(SCRATCH_BASE, bytes(SCRATCH_SIZE))])
        rets, _state = run_function(program, "main", (), mem=mem,
                                    ext=MMIOExtHandler(dev))
        assert len(rets) == len(program["main"].rets)


def test_adversarial_frames_shares_rng_discipline():
    """`end2end --seeds` stimulus == `fuzz` stimulus for the same seed."""
    assert adversarial_frames(42, 8) == \
        adversarial_stream(random.Random(42), 8)
    assert rng_for(42).random() == random.Random(42).random()


# -- oracle ------------------------------------------------------------------


def test_all_layers_agree():
    for seed in range(6):
        result = run_fuzz_seed(seed, logic_check=(seed == 0))
        assert result["status"] == "ok", result
        assert result["layers"] == list(LAYERS)
    logic = run_fuzz_seed(0, logic_check=True)["logic"]
    assert logic["obligations"] > 0
    assert logic["failed"] == 0


def test_small_profile_agrees():
    config = GenConfig.from_dict(PROFILES["small"].to_dict())
    for seed in range(4):
        result = run_fuzz_seed(seed, config=config.to_dict())
        assert result["status"] == "ok", result


def test_synthetic_device_deterministic_in_sequence():
    a, b = SyntheticDevice(), SyntheticDevice()
    values = [(a.read(0x4000_0000), b.read(0x4000_0000)) for _ in range(4)]
    assert all(x == y for x, y in values)
    assert len({x for x, _ in values}) > 1  # reads are not constant


def _count_calls(monkeypatch, fn):
    """Count calls of ``fn`` made through any `repro` module's binding."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_static_layers_share_one_analysis_per_image(monkeypatch):
    # wcet is imported so that its binding of analyze_image is counted.
    from repro.analysis import binlint, cfg, wcet  # noqa: F401

    analyses = _count_calls(monkeypatch, binlint.analyze_image)
    cfgs = _count_calls(monkeypatch, cfg.recover_cfg)
    for seed in (0, 3):
        program = generate_program(seed)
        analyses.clear()
        cfgs.clear()
        full = run_differential(program)
        assert full["status"] == "ok", full
        assert (len(analyses), len(cfgs)) == (1, 1)
        # Without the binlint layer, wcet analyzes the image itself and
        # proves the same bounds.
        alone = run_differential(program, layers=("interp", "wcet"))
        assert alone["layers"] == ["interp", "wcet"]
        assert alone["wcet"] == {key: full["wcet"][key]
                                 for key in ("static_cycles", "stack_bound")}


@pytest.mark.parametrize("layer", LAYERS[1:])
def test_each_layer_alone_runs_and_agrees(layer):
    """A one-layer run (the unit of a mutation x checker kill matrix)
    runs exactly that layer, and on unmutated programs it agrees with the
    reference: the Kami layers take their step budgets from an ISA run
    even when the "compiled" layer is not selected."""
    for seed in range(3):
        result = run_differential(generate_program(seed),
                                  layers=("interp", layer))
        assert result["status"] == "ok", (seed, result)
        assert result["layers"] == ["interp", layer]


def test_wcet_layer_reports_an_analyzer_crash(monkeypatch):
    from repro.analysis import wcet

    def crash(*args, **kwargs):
        raise IndexError("mangled control flow")

    monkeypatch.setattr(wcet, "analyze_image", crash)
    result = run_differential(generate_program(0), layers=("interp", "wcet"))
    assert result["status"] == "divergence"
    assert result["divergence"] == {
        "layer": "wcet", "kind": "static",
        "detail": "analyzer error: IndexError: mangled control flow"}


# -- mutation testing --------------------------------------------------------


def test_mutation_context_restores_patches():
    from repro.compiler.codegen import FunctionCompiler

    original = FunctionCompiler._OP_MAP
    with mutation_context("codegen-sub-as-add"):
        assert FunctionCompiler._OP_MAP["sub"] == "add"
    assert FunctionCompiler._OP_MAP is original


@pytest.mark.parametrize("name", ["flatten-drop-store",
                                  "kami-mem-wide-store"])
def test_fast_mutations_killed(name):
    result = run_fuzz_seed(0, mutation=name)
    assert result["status"] == "divergence", result


def test_binlint_layer_validates_stores_against_the_source():
    """The `binlint` layer runs translation validation: a store the
    flattener drops is a B2A108 before anything executes the image."""
    result = run_fuzz_seed(0, mutation="flatten-drop-store",
                           layers=("interp", "binlint"))
    assert result["status"] == "divergence", result
    assert result["divergence"]["layer"] == "binlint"
    assert "[B2A108]" in result["divergence"]["detail"]


#: The kills that only one oracle layer makes over `DEFAULT_SCORE_SEEDS`
#: (the whole kill matrix is in docs/fuzzing.md), each with a killing
#: seed. A layer that loses its last unique kill no longer earns its
#: place in `LAYERS`.
UNIQUE_KILLS = [
    ("binlint", "encode-jalr-imm-plus1", 0),
    ("binlint", "regalloc-drop-callee-save", 0),
    ("kami-pipelined", "pipeline-fifo-lifo", 4),
    ("kami-pipelined", "pipeline-rs-swap", 0),
]


@pytest.mark.parametrize("layer,mutation,seed", UNIQUE_KILLS)
def test_unique_kill_needs_its_layer(layer, mutation, seed):
    result = run_fuzz_seed(seed, mutation=mutation)
    assert result["status"] == "divergence", result
    assert result["divergence"]["layer"] == layer, result
    without = tuple(name for name in LAYERS if name != layer)
    result = run_fuzz_seed(seed, mutation=mutation, layers=without)
    assert result["status"] == "ok", result


def test_catalog_spans_required_layers():
    layers = {m.layer for m in CATALOG.values()}
    assert {"compiler", "encoder", "pipeline"} <= layers
    assert len(CATALOG) >= 8


def test_mutation_score_fast_subset():
    report = score_differential(seeds=(0,),
                                names=("codegen-ltu-as-lts",
                                       "codegen-eq-no-normalize"))
    assert report["killed"] == report["total"] == 2


# -- shrinking and corpus ----------------------------------------------------


def test_shrink_and_replay(tmp_path):
    mutation = "flatten-drop-store"
    program = generate_program(0)
    with mutation_context(mutation):
        result = run_differential(program)
    assert result["status"] == "divergence"
    shrunk, stats = shrink_reproducer(program, result["divergence"],
                                      mutation=mutation)
    assert stats["shrunk_stmts"] <= 10
    assert stats["shrunk_stmts"] <= stats["original_stmts"]
    assert stmt_count(shrunk) == stats["shrunk_stmts"]
    with mutation_context(mutation):
        final = run_differential(shrunk)
    assert final["status"] == "divergence"
    path = save_reproducer(str(tmp_path), 0, shrunk, final["divergence"],
                           mutation=mutation, stats=stats)
    replay = replay_file(path)
    assert replay["ok"], replay


# -- determinism of the CLI report -------------------------------------------


def _run_cli_fuzz(tmp_path, name):
    from repro.__main__ import main

    out = tmp_path / name
    code = main(["fuzz", "--seeds", "25", "--profile", "small",
                 "--logic-sample", "2", "--json", str(out)])
    assert code == 0
    return out.read_bytes()


def test_fuzz_reports_byte_identical(tmp_path, capsys):
    first = _run_cli_fuzz(tmp_path, "r1.json")
    second = _run_cli_fuzz(tmp_path, "r2.json")
    capsys.readouterr()
    assert first == second


def test_cli_mutate_triage_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    # a killed mutation is a success in triage mode
    assert main(["fuzz", "--seeds", "1", "--profile", "small",
                 "--logic-sample", "0",
                 "--mutate", "flatten-drop-store"]) == 0
    capsys.readouterr()


def test_cli_writes_mutation_score_reports(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main
    from repro.fuzz import mutate

    differential = {
        "mutations": {"codegen-sub-as-add": {
            "killed": True, "layer": "compiler", "killed_by_seed": 0,
            "divergence": {"layer": "compiled", "kind": "rets",
                           "detail": "rets [1] vs [2]"}}},
        "killed": 1, "total": 1, "kill_rate": 1.0}
    tier1 = {"mutations": {"codegen-sub-as-add": {"killed": False,
                                                  "layer": "compiler"}},
             "killed": 0, "total": 1, "kill_rate": 0.0}
    monkeypatch.setattr(mutate, "score_differential",
                        lambda jobs: differential)
    monkeypatch.setattr(mutate, "score_tier1", lambda: tier1)
    out = tmp_path / "score.json"
    assert main(["fuzz", "--mutation-score", "--json", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "format": "repro-mutation-score", "version": 1,
        "differential": differential}
    # A survivor still fails the run, and both reports are written.
    assert main(["fuzz", "--mutation-score", "--mutation-tier1",
                 "--json", str(out)]) == 1
    text = out.read_text()
    assert json.loads(text) == {"format": "repro-mutation-score",
                                "version": 1, "differential": differential,
                                "tier1": tier1}
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
    capsys.readouterr()
