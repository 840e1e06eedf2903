"""Figure 4: the pipelined processor's structure and behavior.

Figure 4 is the block diagram of the p4mm processor: IF/ID/EX/WB stages
joined by FIFOs, an instruction cache on the fetch side, a BTB, and two
asynchronous memory interfaces. This benchmark checks the structure is as
drawn and reports dynamic statistics (per-stage activity, stall and squash
rates, BTB effectiveness, CPI) on the lightbulb workload.
"""

from collections import Counter

from repro.kami.refinement import build_pipelined_system
from repro.platform.net import lightbulb_packet
from repro.sw.program import compiled_lightbulb, make_platform


def test_fig4_structure():
    proc_system = build_pipelined_system(b"\x00" * 64, _world(), ram_words=64,
                                         icache_words=16)
    proc = proc_system.modules[0]
    rule_names = {name for name, _ in proc.rules}
    assert rule_names == {"fill", "fetch", "decode", "execute", "writeback"}
    # The three inter-stage FIFO queues of the figure.
    for fifo in ("f2d", "d2e", "e2w"):
        assert fifo in proc.regs
    # I$ and BTB.
    assert "icache" in proc.regs and "btb" in proc.regs
    print("\nFigure 4 structure: IF/ID/EX/WB + f2d/d2e/e2w FIFOs + I$ + BTB")


def _world():
    from repro.kami.framework import ExternalWorld

    class Null(ExternalWorld):
        def call(self, method, args):
            raise KeyError(method)

    return Null()


def _run_workload():
    compiled = compiled_lightbulb(stack_top=1 << 16)
    plat = make_platform()
    system = build_pipelined_system(compiled.image, plat.kami_world(),
                                    ram_words=1 << 14,
                                    icache_words=len(compiled.image) // 4 + 4)
    proc = system.modules[0]
    injected = [False]
    stats = Counter()
    cycles = 0
    while cycles < 120_000 and not plat.gpio.bulb_on:
        if plat.lan.rx_enabled and not injected[0]:
            plat.lan.inject_frame(lightbulb_packet(True))
            injected[0] = True
        # `System.cycle`, unrolled to see which rules fire.
        fired = 0
        for name, module, fn in system._rules:
            if system._try_rule(name, module, fn) is not None:
                stats[name] += 1
                fired += 1
        cycles += 1
        if not fired:
            break
    return proc, stats, cycles, system


def test_fig4_dynamics(benchmark):
    proc, stats, cycles, system = benchmark.pedantic(_run_workload,
                                                     rounds=1, iterations=1)
    retired = stats["p4mm.writeback"]
    print()
    print("Figure 4 dynamics on the lightbulb workload (%d cycles):" % cycles)
    for stage in ("fill", "fetch", "decode", "execute", "writeback"):
        name = "p4mm." + stage
        print("  %-10s active %6d cycles (%4.1f%%)"
              % (stage, stats[name], 100.0 * stats[name] / max(1, cycles)))
    print("  instructions retired: %d   CPI: %.2f"
          % (retired, cycles / max(1, retired)))
    print("  BTB entries learned: %d" % len(proc.regs["btb"]))
    assert retired > 1000
    assert len(proc.regs["btb"]) > 0
    # A pipeline: multiple stages active in the same cycle on average.
    total_activity = sum(stats.values())
    assert total_activity > 1.5 * cycles
