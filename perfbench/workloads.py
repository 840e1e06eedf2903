"""The six workloads of the repository benchmark.

Set-up turns a seed into a list of items: it compiles the images and
generates the stimulus. A timed call runs one item. Every item returns
an `Outcome`: the verdicts it reached, how many of them were wrong, and a
digest of its verdict-bearing output, so a run can check its own results
and that repeats of the same seed agree.

Each workload has two sizes: ``full`` for benchmark runs and ``tiny``
for the self-test, which drives the same code path in a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.end2end import run_end_to_end
from repro.fuzz.generator import PROFILES, generate_program, rng_for
from repro.fuzz import oracle
from repro.logic.cache import ProofCache
from repro.net.fleet import run_fleet
from repro.net.node import DOORLOCK, LIGHTBULB, compiled_image
from repro.platform.net import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    OFF_CMD,
    OFF_ETHERTYPE,
    lightbulb_packet,
    non_udp_packet,
    oversize_packet,
    truncated_packet,
    wrong_ethertype_packet,
)
from repro.sw.program import compiled_lightbulb
from repro.sw.specs import good_hl_trace
from repro.sw.verify import verify_all, verify_doorlock

Event = Tuple[str, int, int]


@dataclass
class Outcome:
    """What one item did: ``attempts`` verdicts, ``wrong`` of them
    wrong, ``units`` of simulated work, and the rejected trace when the
    item is a violation run (for the detection-lag bisection)."""

    attempts: int
    wrong: int
    digest: str
    units: int
    rejected_trace: Optional[List[Event]] = None


@dataclass
class Item:
    label: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    setup: Callable[[int, Dict, str], List[Item]]
    full: Dict
    tiny: Dict


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- the end-to-end theorem -------------------------------------------------


def _other_than(rng: random.Random, bound: int, excluded: int) -> int:
    value = rng.randrange(bound)
    while value == excluded:
        value = rng.randrange(bound)
    return value


def adversarial_kinds(rng: random.Random) -> List[bytes]:
    """One frame of each kind `repro.platform.net.adversarial_stream`
    draws from, contents from ``rng``.

    Checking time depends on the frame's kind and length, by up to a
    factor of two between frames, so lengths are fixed and, beyond the
    kind, the seed picks only what leaves the NIC driver's path alone:
    command bits, the non-IPv4 ethertype, the non-UDP protocol, garbage
    bytes behind a non-IPv4 ethertype, and a flipped bit in the UDP
    header."""
    garbage = bytearray(rng.randrange(256) for _ in range(60))
    garbage[OFF_ETHERTYPE:OFF_ETHERTYPE + 2] = _other_than(
        rng, 0x10000, ETHERTYPE_IPV4).to_bytes(2, "big")
    flipped = bytearray(lightbulb_packet(bool(rng.getrandbits(1))))
    flipped[rng.randrange(OFF_CMD - 8, OFF_CMD)] ^= 1 << rng.randrange(8)
    return [lightbulb_packet(bool(rng.getrandbits(1))),
            truncated_packet(20),
            wrong_ethertype_packet(_other_than(rng, 0x10000, ETHERTYPE_IPV4)),
            non_udp_packet(_other_than(rng, 256, IP_PROTO_UDP)),
            oversize_packet(2000, bool(rng.getrandbits(1))),
            bytes(garbage),
            bytes(flipped)]


def _theorem_item(frame: bytes, size: Dict, buggy_driver: bool) -> Outcome:
    result = run_end_to_end(frames=[(size["inject_at"], frame)],
                            processor=size["processor"],
                            max_units=size["max_units"],
                            buggy_driver=buggy_driver)
    # A buggy driver fed an oversize frame must be rejected; a correct
    # one must stay within the spec.
    wrong = result.ok if buggy_driver else not result.ok
    return Outcome(
        attempts=1, wrong=int(wrong),
        digest=digest([result.ok, digest(result.trace),
                       result.bulb_history]),
        units=result.instructions,
        rejected_trace=None if result.ok else result.trace)


def _theorem_items(frames: List[bytes], size: Dict,
                   buggy_driver: bool = False) -> List[Item]:
    compiled_lightbulb(buggy_driver=buggy_driver, stack_top=1 << 16)
    return [Item("frame %d (%d bytes)" % (k, len(frame)),
                 lambda frame=frame: _theorem_item(frame, size, buggy_driver))
            for k, frame in enumerate(frames)]


def _setup_theorem_isa(seed: int, size: Dict, workdir: str) -> List[Item]:
    # Consecutive seeds start at consecutive kinds, so seven seeds cover
    # every kind; a run's time hardly depends on which.
    frames = adversarial_kinds(rng_for(seed))
    start = seed % len(frames)
    frames = frames[start:] + frames[:start]
    return _theorem_items(frames[:size["items"]], size)


def _setup_theorem_p4mm(seed: int, size: Dict, workdir: str) -> List[Item]:
    return _theorem_items([lightbulb_packet(bool(seed % 2))], size)


def _setup_theorem_violation(seed: int, size: Dict,
                             workdir: str) -> List[Item]:
    rng = rng_for(seed)
    frames = [oversize_packet(rng.randint(1521, 2040),
                              bool(rng.getrandbits(1)))
              for _ in range(size["items"])]
    return _theorem_items(frames, size, buggy_driver=True)


def first_bad_index(trace: Sequence[Event]) -> int:
    """The least n with ``trace[:n]`` not a prefix of goodHlTrace, found
    by bisection (prefix-closure makes the relation monotone)."""
    spec = good_hl_trace()
    lo, hi = 0, len(trace)
    if spec.prefix_of(trace):
        raise ValueError("trace is a prefix of goodHlTrace")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spec.prefix_of(trace[:mid]):
            lo = mid
        else:
            hi = mid
    return hi


def detect_lag(trace: Sequence[Event]) -> int:
    """Events the checker let through after the first bad one."""
    return len(trace) - first_bad_index(trace)


# -- the fleet --------------------------------------------------------------


def _fleet_item(nodes: int, duration: int, seed: int) -> Outcome:
    report = run_fleet(nodes=nodes, duration=duration, profile="lossy",
                       seed=seed)
    summary = report["summary"]
    return Outcome(attempts=nodes, wrong=nodes - summary["nodes_ok"],
                   digest=digest(report), units=summary["instructions"])


def _setup_fleet(seed: int, size: Dict, workdir: str) -> List[Item]:
    for kind in (LIGHTBULB, DOORLOCK):
        compiled_image(kind)
    count = size["items"]
    return [Item("seed %d" % sub,
                 lambda sub=sub: _fleet_item(size["nodes"], size["duration"],
                                             sub))
            for sub in range(seed * count, (seed + 1) * count)]


# -- differential fuzzing ---------------------------------------------------


def _fuzz_item(program) -> Outcome:
    # Through the module, so the traced run's wrapper is the one called.
    result = oracle.run_differential(program)
    return Outcome(attempts=1, wrong=int(result["status"] != "ok"),
                   digest=digest(result), units=1)


def _setup_fuzz(seed: int, size: Dict, workdir: str) -> List[Item]:
    config = PROFILES[size["profile"]]
    items = []
    for k in range(size["items"]):
        program_seed = 1000 * seed + k
        program = generate_program(program_seed, config)
        items.append(Item("program %d" % program_seed,
                          lambda program=program: _fuzz_item(program)))
    return items


# -- program-logic verification ---------------------------------------------


def _verify_both(cache: ProofCache) -> List:
    return (verify_all(cache=cache).reports
            + verify_doorlock(cache=cache).reports)


def _prove_item(workdir: str) -> Outcome:
    """Cold verification into a fresh on-disk proof cache, then a warm
    re-verification that reads it back."""
    directory = tempfile.mkdtemp(dir=workdir)
    try:
        with ProofCache(directory) as cache:
            cold = _verify_both(cache)
        with ProofCache(directory) as cache:
            warm = _verify_both(cache)
    finally:
        shutil.rmtree(directory)
    cold_text = [str(report) for report in cold]
    warm_text = [str(report) for report in warm]
    wrong = sum(1 for report, c, w in zip(cold, cold_text, warm_text)
                if not report.ok or c != w)
    wrong += abs(len(cold) - len(warm))
    return Outcome(attempts=len(cold), wrong=wrong, digest=digest(cold_text),
                   units=sum(report.obligations for report in cold))


def _setup_prove(seed: int, size: Dict, workdir: str) -> List[Item]:
    # No stimulus: the programs and specs are fixed, so the seed changes
    # nothing. The control for every simulation-side change.
    os.makedirs(workdir, exist_ok=True)
    return [Item("round %d" % k, lambda: _prove_item(workdir))
            for k in range(size["items"])]


#: ``inject_at`` is the checkpoint (of 2000 units) the frame arrives at:
#: the ISA machine enables RX after about 9000 instructions, p4mm after
#: about 40000 Kami steps. ``full`` sizes keep one pass near 2 s, so a
#: run of 15 s times every item five times or more and its median
#: outlasts a slow spell of the host.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("theorem_isa", "instructions", _setup_theorem_isa,
             full={"items": 1, "processor": "isa", "inject_at": 5,
                   "max_units": 20_000},
             tiny={"items": 1, "processor": "isa", "inject_at": 5,
                   "max_units": 12_000}),
    Workload("theorem_p4mm", "kami_steps", _setup_theorem_p4mm,
             full={"processor": "p4mm", "inject_at": 20,
                   "max_units": 50_000},
             tiny={"processor": "p4mm", "inject_at": 5,
                   "max_units": 16_000}),
    Workload("theorem_violation", "instructions", _setup_theorem_violation,
             full={"items": 2, "processor": "isa", "inject_at": 5,
                   "max_units": 60_000},
             tiny={"items": 1, "processor": "isa", "inject_at": 5,
                   "max_units": 20_000}),
    Workload("fleet_lossy", "instructions", _setup_fleet,
             full={"items": 1, "nodes": 4, "duration": 16_000},
             tiny={"items": 1, "nodes": 2, "duration": 6_000}),
    Workload("fuzz_diff", "programs", _setup_fuzz,
             full={"items": 40, "profile": "small"},
             tiny={"items": 2, "profile": "small"}),
    Workload("prove", "obligations", _setup_prove,
             full={"items": 1}, tiny={"items": 1}),
)}
