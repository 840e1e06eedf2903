"""Ablations of the design choices DESIGN.md calls out.

Not a table in the paper, but the paper motivates each mechanism (BTB,
eager I$ fill, SPI polling latency, proof automation); these benchmarks
quantify what each one buys on the lightbulb workload.

* **BTB on/off** -- paper §5.5 added a branch target buffer [35]; measure
  packet latency with and without it.
* **SPI rx latency sweep** -- how device response latency amplifies the
  polling cost the §7.2.1 analysis attributes to the SPI discipline.
* **Solver portfolio** -- §7.3's point that most proof work is routine:
  count how many verification conditions each tier (structural rewriting,
  interval analysis, SAT) actually settles, with the abstract prescreen
  off so that the portfolio sees every query.
* **Inline threshold** -- the optimizing baseline's main knob.
"""

from repro.core.timing import measure_latency
from repro.kami.framework import System
from repro.kami.memory import make_memory_module
from repro.kami.pipeline_proc import make_pipelined_processor
from repro.logic import solver as logic_solver
from repro.platform.net import lightbulb_packet
from repro.sw.program import compiled_lightbulb, make_platform


def _latency_with_btb(btb_enabled: bool) -> int:
    compiled = compiled_lightbulb(stack_top=1 << 16)
    plat = make_platform()
    mem = make_memory_module(compiled.image, ram_words=1 << 14)
    proc = make_pipelined_processor(icache_words=len(compiled.image) // 4 + 4,
                                    btb_enabled=btb_enabled)
    system = System([proc, mem], plat.kami_world())
    injected = [False]
    cycles = 0
    start = None
    while cycles < 3_000_000 and not plat.gpio.bulb_on:
        if plat.lan.rx_enabled and not injected[0]:
            # settle into polling before measuring
            if cycles > 0 and start is None:
                plat.lan.inject_frame(lightbulb_packet(True))
                injected[0] = True
                start = cycles
        if system.cycle() == 0:
            break
        cycles += 1
    assert plat.gpio.bulb_on
    return cycles - start


def test_btb_ablation(benchmark):
    def run():
        return _latency_with_btb(True), _latency_with_btb(False)

    with_btb, without_btb = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("BTB ablation (packet-to-actuation cycles on p4mm):")
    print("  with BTB:    %7d" % with_btb)
    print("  without BTB: %7d  (%.2fx)" % (without_btb,
                                           without_btb / with_btb))
    # The predictor must help: the workload is dominated by polling loops,
    # i.e. taken backward branches.
    assert without_btb > with_btb


def test_spi_latency_sweep(benchmark):
    def sweep():
        results = {}
        for latency in (0, 1, 4, 8):
            compiled = compiled_lightbulb(stack_top=1 << 16)
            from repro.riscv.machine import RiscvMachine

            plat = make_platform(rx_latency=latency)
            machine = RiscvMachine.with_program(compiled.image,
                                                mem_size=1 << 16,
                                                mmio_bus=plat.bus)
            machine.run(1_200_000, stop=lambda m: plat.lan.rx_enabled)
            plat.lan.inject_frame(lightbulb_packet(True))
            start = machine.instret
            machine.run(3_000_000, stop=lambda m: plat.gpio.bulb_on)
            assert plat.gpio.bulb_on
            results[latency] = machine.instret - start
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("SPI device latency sweep (instructions to actuation, FE310):")
    for latency, instrs in results.items():
        print("  rx_latency=%d: %7d" % (latency, instrs))
    assert results[8] > results[0]


def test_solver_portfolio_ablation(benchmark):
    from repro.sw.verify import verify_all

    def run():
        from repro import obs
        for tier in logic_solver.tier_counts():
            obs.counter("solver.tier." + tier).reset()
        # The prescreen (on by default) settles routine obligations
        # before they reach the portfolio; this ablation measures the
        # portfolio alone.
        verify_all(prescreen=False)
        return logic_solver.tier_counts()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sum(stats.values())
    print()
    print("solver portfolio over the full software verification "
          "(%d validity queries):" % total)
    for tier in stats:
        print("  %-12s %5d  (%4.1f%%)"
              % (tier, stats[tier], 100.0 * stats[tier] / total))
    # The paper's observation (§7.3): much proof work is routine -- the
    # structural tier alone settles a large share without any search. (Most
    # path-feasibility queries are satisfiable by design, so no refutation
    # tier can settle them; the witness tier settles most of them with a
    # model the symbolic executor already holds, and the rest, with the
    # dead arms, reach SAT.)
    assert stats["structural"] > total * 0.3
    assert total > 150


def test_inline_threshold_ablation(benchmark):
    import repro.compiler.opt as opt

    def sweep():
        results = {}
        original = opt.optimize
        for threshold in (0, 40, 100):
            def patched(flat, inline_max_size=40, _th=threshold):
                return original(flat, inline_max_size=_th)
            opt.optimize = patched
            try:
                results[threshold] = measure_latency(
                    "fe310", "optimizing", "verified").latency_cycles
            finally:
                opt.optimize = original
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("optimizing-compiler inline threshold (verified driver, FE310):")
    for threshold, cycles in results.items():
        print("  max_size=%-4d %7d cycles" % (threshold, cycles))
    # Some inlining beats none.
    assert results[40] < results[0]
