"""Pure simulator throughput: the fast engine vs the reference loop.

The repo's first throughput-only benchmark: everything else times a
composed workload (theorem checking, spec matching, solver calls), but
every one of those bottoms out in `RiscvMachine.run`, so instructions
per second on the end-to-end workload -- the compiled lightbulb binary
against the real platform MMIO bus -- is the number the fast-path
engine (`repro.riscv.fastpath`) exists to move.

Measured variants:

* ``sim_reference``: the reference fetch/decode/execute interpreter;
* ``sim_fast_cold``: the fast engine on a fresh machine in a process
  whose shared executors and block table are emptied first -- includes
  executor builds and basic-block discovery;
* ``sim_fast_warm`` (``test_fast_engine_speedup``): a machine continuing
  execution with its block map already populated.

The fast engine must be at least ``MIN_SPEEDUP``x the reference
(asserted by ``test_fast_engine_speedup``, which CI's ``benchmarks`` job
runs, so the job fails if the fast path rots); correctness of the
speedup is the fuzz oracle's "fast" layer and
``tests/test_fast_engine.py``.
"""

import time

from repro.riscv import fastpath
from repro.riscv.machine import RiscvMachine
from repro.sw.program import compiled_lightbulb, make_platform

#: Acceptance floor: fast engine must beat the reference by this factor.
MIN_SPEEDUP = 3.0

_STEPS = 200_000


def _machine(fast):
    plat = make_platform()
    return RiscvMachine.with_program(compiled_lightbulb(
        stack_top=1 << 16).image, mem_size=1 << 16, mmio_bus=plat.bus,
        fast=fast)


def _throughput(fast, warm=False):
    """Instructions/second over ``_STEPS`` on the end2end workload."""
    machine = _machine(fast)
    if warm:
        machine.run(_STEPS)  # populate the block map
    start = machine.instret
    t0 = time.perf_counter()
    machine.run(_STEPS)
    return (machine.instret - start) / (time.perf_counter() - t0)


def test_sim_throughput_reference(benchmark):
    machine = _machine(fast=False)
    benchmark.pedantic(lambda: machine.run(_STEPS), rounds=1, iterations=1)
    print()
    print("reference: %d instructions retired" % machine.instret)
    assert machine.instret == _STEPS


def test_sim_throughput_fast_cold(benchmark):
    # Cold means no executor or block another run in this process built.
    fastpath.clear_shared()
    machine = _machine(fast=True)
    benchmark.pedantic(lambda: machine.run(_STEPS), rounds=1, iterations=1)
    print()
    print("fast (cold): %d instructions retired" % machine.instret)
    assert machine.instret == _STEPS


def test_fast_engine_speedup():
    """The acceptance bar: >= MIN_SPEEDUP x instructions/sec."""
    ref_ips = _throughput(fast=False)
    fast_ips = _throughput(fast=True, warm=True)
    speedup = fast_ips / ref_ips
    print()
    print("reference %.0f instr/s, fast (warm) %.0f instr/s: %.1fx"
          % (ref_ips, fast_ips, speedup))
    assert speedup >= MIN_SPEEDUP, (
        "fast engine only %.2fx over reference (need >= %.1fx)"
        % (speedup, MIN_SPEEDUP))
