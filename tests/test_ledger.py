"""The verification ledger (`repro.obs.ledger`).

The contract under test: every VC obligation discharged by the stack
produces exactly one structured record, and the canonical JSONL export
is *byte-identical* between ``--jobs 1`` and ``--jobs 4`` -- the ledger
is evidence about the verification, so it must not depend on worker
scheduling, process ids, or wall clock.
"""

import json
import os

import pytest

from repro import obs
from repro.logic import cache as C
from repro.obs.ledger import Ledger, load_jsonl
from repro.sw.verify import run_verify_task, verify_all, verify_doorlock


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


# ------------------------------------------------------------- unit level


def test_ledger_append_mark_since():
    led = Ledger()
    led.append({"function": "f", "seq": 0})
    mark = led.mark()
    led.append({"function": "f", "seq": 1})
    assert mark == 1
    assert led.since(mark) == [{"function": "f", "seq": 1}]


def test_absorb_restamps_pid_without_mutating_source():
    led = Ledger()
    shipped = [{"function": "f", "seq": 0, "pid": 111}]
    led.absorb(shipped, pid=222)
    assert led.records[0]["pid"] == 222
    assert shipped[0]["pid"] == 111  # worker-side dict untouched


def test_canonical_lines_drop_volatile_keys_and_sort():
    led = Ledger()
    led.append({"wall_us": 42, "pid": 9, "function": "f", "seq": 0})
    (line,) = led.canonical_lines()
    assert json.loads(line) == {"function": "f", "seq": 0}
    (volatile,) = led.canonical_lines(volatile=True)
    assert json.loads(volatile)["wall_us"] == 42


def test_export_and_load_round_trip(tmp_path):
    led = Ledger()
    led.append({"function": "f", "seq": 0, "fp": "ab", "pid": 1,
                "wall_us": 3})
    path = str(tmp_path / "ledger.jsonl")
    assert led.export_jsonl(path) == 1
    assert load_jsonl(path) == [{"function": "f", "seq": 0, "fp": "ab"}]


# ------------------------------------------------------ record structure


REQUIRED_KEYS = {"function", "seq", "context", "loc", "fp", "status",
                 "tier", "cache", "prescreen", "effort", "wall_us", "pid"}


def test_doorlock_records_are_fully_populated():
    obs.enable()
    obs.enable_ledger()
    run = verify_doorlock(jobs=1)
    records = obs.ledger().records
    # One record per obligation, no more, no less.
    assert len(records) == run.total_obligations
    for record in records:
        assert set(record) == REQUIRED_KEYS
        assert record["function"] in ("doorlock_init", "doorlock_loop")
        assert record["status"] == "proved"
        assert record["tier"] in ("prescreen", "structural", "interval",
                                  "sat", "cache")
        # Content-addressed fingerprint: full sha256 hex.
        assert len(record["fp"]) == 64
        int(record["fp"], 16)
        assert set(record["effort"]) == {"decisions", "propagations",
                                         "conflicts", "cnf_vars",
                                         "cnf_clauses"}
        assert record["pid"] == os.getpid()
    # eDSL source stamping reached the ledger for at least some VCs.
    locs = [r["loc"] for r in records if r["loc"]]
    assert locs and all(loc.startswith("repro/") and ":" in loc
                        for loc in locs)
    # seq is dense per function, starting at 0.
    for fname in ("doorlock_init", "doorlock_loop"):
        seqs = [r["seq"] for r in records if r["function"] == fname]
        assert seqs == list(range(len(seqs)))


def test_loop_obligations_name_the_loop_line():
    # Attaching loop specs rebuilds the loop's AST nodes; the rebuilt
    # `while_` keeps its eDSL source stamp, so its invariant's entry
    # obligation names that line, not the statement before it.
    obs.enable()
    obs.enable_ledger()
    run_verify_task("lightbulb:spi_write")
    locs = {r["context"]: r["loc"] for r in obs.ledger().records}
    assert locs["spi_write/while[spi_write_poll]/inv-init"] == \
        "repro/sw/spi_driver.py:31"


def test_prescreen_discharges_are_attributed():
    obs.enable()
    obs.enable_ledger()
    verify_doorlock(jobs=1)
    prescreened = [r for r in obs.ledger().records
                   if r["tier"] == "prescreen"]
    assert prescreened
    assert all(r["prescreen"] in ("const-goal", "abstract-interp")
               for r in prescreened)
    # Prescreened obligations never reached the solver.
    assert all(not any(r["effort"].values()) for r in prescreened)


def test_ledger_reuses_the_solver_fingerprint(monkeypatch):
    # With a proof cache installed, `check_valid` fingerprints every
    # query's formula once; a solver-decided record takes that digest,
    # so only prescreened obligations are fingerprinted again.
    walks = []
    fingerprint = C.fingerprint

    def counted(term):
        walks.append(term)
        return fingerprint(term)

    monkeypatch.setattr(C, "fingerprint", counted)
    obs.enable()
    obs.enable_ledger()
    cache = C.ProofCache()
    verify_all(jobs=1, cache=cache)
    verify_doorlock(jobs=1, cache=cache)
    prescreened = sum(r["tier"] == "prescreen"
                      for r in obs.ledger().records)
    assert prescreened
    assert len(walks) == obs.counter("solver.queries").value + prescreened


# --------------------------------------------------------- determinism


def test_ledger_byte_identical_jobs_1_vs_4(tmp_path):
    """The acceptance criterion: same workload, sequential vs four
    worker processes, canonical exports compare equal byte-for-byte."""
    paths = {}
    for jobs in (1, 4):
        obs.disable()
        obs.REGISTRY.reset()
        obs.enable()
        obs.enable_ledger()
        run = verify_all(jobs=jobs)
        path = str(tmp_path / ("ledger_j%d.jsonl" % jobs))
        count = obs.export_ledger(path)
        assert count == run.total_obligations
        paths[jobs] = path
    seq = open(paths[1], "rb").read()
    par = open(paths[4], "rb").read()
    assert seq == par


def test_parallel_ledger_carries_worker_pids():
    obs.enable()
    obs.enable_ledger()
    verify_doorlock(jobs=2)
    pids = {r["pid"] for r in obs.ledger().records}
    assert pids and os.getpid() not in pids


def test_export_without_active_ledger_is_empty(tmp_path):
    path = str(tmp_path / "none.jsonl")
    assert obs.export_ledger(path) == 0
    assert not os.path.exists(path)
