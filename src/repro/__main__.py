"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main entry points for interactive exploration:

* ``verify``      -- program-logic verification of the lightbulb software
* ``lint``        -- static analysis of the Bedrock2 programs (B2Axxx codes);
                     ``--binary`` lints the compiled RV32IM images instead
                     (CFG recovery + abstract interpretation + translation
                     validation, B2A1xx codes); ``--binary --timing`` also
                     proves WCET/stack bounds against the committed
                     budgets (B2A2xx codes)
* ``check``       -- the per-interface integration checks (Figure 3)
* ``end2end``     -- run the end-to-end theorem checker with packets
* ``fuzz``        -- differential fuzzing of all execution layers
* ``fleet``       -- a discrete-event network fabric driving many verified
                     nodes under adversarial link conditions, every node's
                     MMIO trace spec-checked online
* ``bench``       -- the §7.2.1 latency decomposition
* ``wcet``        -- prove static WCET/stack bounds, measure tightness
* ``stats``       -- run a verify+end2end workload, print all obs counters
* ``report``      -- render ledger/trace/metrics/history into one HTML file
* ``disasm``      -- disassemble the compiled lightbulb (or doorlock)
* ``export-c``    -- print the Bedrock2-to-C export of the lightbulb
* ``demo``        -- a short interactive lightbulb session on the ISA machine

``verify``, ``lint``, ``check``, ``end2end``, ``fuzz``, ``bench`` and
``stats`` accept ``--trace-out FILE.jsonl`` to record a
Chrome-trace-format span trace (open in Perfetto); ``verify`` also
accepts ``--ledger-out FILE.jsonl`` for the per-obligation verification
ledger. Feed both to ``report`` (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys


def _obs_start(args) -> bool:
    """Enable observability if the command asked for a trace or ledger."""
    enabled = False
    if getattr(args, "trace_out", None):
        from . import obs

        # Fail on an unwritable path *before* the workload runs, not
        # after minutes of execution at export time.
        with open(args.trace_out, "w"):
            pass
        obs.enable(trace=True)
        enabled = True
    if getattr(args, "ledger_out", None):
        from . import obs

        with open(args.ledger_out, "w"):
            pass
        obs.enable_ledger()
        enabled = True
    return enabled


def _obs_finish(args) -> None:
    if getattr(args, "trace_out", None):
        from . import obs

        events = obs.export_trace(args.trace_out)
        print("wrote %d trace events to %s (Chrome trace JSONL)"
              % (events, args.trace_out))
    if getattr(args, "ledger_out", None):
        from . import obs

        volatile = bool(getattr(args, "ledger_volatile", False))
        records = obs.export_ledger(args.ledger_out, volatile=volatile)
        print("wrote %d obligation records to %s (verification ledger%s)"
              % (records, args.ledger_out,
                 ", volatile form" if volatile else ""))


def cmd_verify(args) -> int:
    from . import obs
    from .logic import solver
    from .sw.verify import verify_all, verify_doorlock, verify_drain_buggy_fails

    _obs_start(args)
    cache = None
    if args.cache:
        from .logic.cache import ProofCache

        cache = ProofCache(args.cache)
    run = verify_all(jobs=args.jobs, cache=cache, prescreen=args.prescreen)
    print(run)
    print("door-lock application (reusing the driver specs):")
    doorlock = verify_doorlock(jobs=args.jobs, cache=cache,
                               prescreen=args.prescreen)
    print(doorlock)
    if args.prescreen:
        prescreened = obs.counter("analysis.obligations_prescreened").value
        print("prescreen: %d obligation(s) discharged abstractly "
              "(no solver query)" % prescreened)
    with solver.cached(cache):
        err = verify_drain_buggy_fails()
    print("negative control: buggy drain fails at %s" % err.context)
    if cache is not None:
        print("proof cache %s: %d hits, %d misses, %d entries"
              % (args.cache, obs.counter("cache.hits").value,
                 obs.counter("cache.misses").value, len(cache)))
        cache.close()
    _obs_finish(args)
    return 0 if (run.ok and doorlock.ok) else 1


def _parse_suppressions(specs):
    """``CODE`` or ``CODE:FUNCTION`` strings -> suppression keys."""
    out = set()
    for spec in specs or ():
        code, _, fname = spec.partition(":")
        out.add((code, fname) if fname else code)
    return frozenset(out)


def _shipped_apps(app: str) -> list:
    """(name, program, CompiledProgram) for the shipped apps that
    ``app`` ("lightbulb", "doorlock" or "all") selects, compile shared."""
    from .core.end2end import DOORLOCK, LIGHTBULB, compiled_image
    from .sw.doorlock import doorlock_program
    from .sw.program import lightbulb_program

    programs = {LIGHTBULB: lightbulb_program, DOORLOCK: doorlock_program}
    return [(name, make(), compiled_image(name))
            for name, make in programs.items() if app in (name, "all")]


def _binary_config(compiled, suppress=frozenset()):
    """The binary analyses' view of the platform memory map, with the
    extspec's device ranges cross-checked against the bus's."""
    from .analysis import BinaryLintConfig
    from .platform.bus import MMIO_RANGES
    from .sw.verify import platform_mmio_spec

    return BinaryLintConfig.for_platform(
        compiled.stack_top, MMIO_RANGES, ext_spec=platform_mmio_spec(),
        suppress=suppress)


def _timing_report(compiled, config, loop_bounds, analyses=None):
    from .analysis import CostModel
    from .analysis.wcet import TimingConfig, analyze_timing

    return analyze_timing(
        compiled, TimingConfig(lint=config, model=CostModel(),
                               loop_bounds=loop_bounds),
        analyses=analyses)


def _cmd_lint_binary(args) -> list:
    """``lint --binary``: abstract-interpret + translation-validate the
    compiled images of the shipped apps; with ``--timing`` also prove
    WCET + stack bounds and hold them to the committed budgets (B2A2xx).
    Each image is analyzed once, for the lint and the bounds alike."""
    from .analysis import analyze_image, lint_binary_program
    from .analysis.wcet import check_budgets, drift_findings, load_budgets

    suppress = _parse_suppressions(args.suppress)
    if args.timing:
        loop_bounds, app_budgets = load_budgets(args.budgets)
    findings, timing = [], []
    for name, program, compiled in _shipped_apps(args.app):
        config = _binary_config(compiled, suppress)
        analyses = analyze_image(compiled.image, compiled.symbols, config)
        findings.extend(lint_binary_program(program, compiled, config,
                                            analyses=analyses))
        if args.timing:
            report = _timing_report(compiled, config, loop_bounds, analyses)
            timing.extend(report.findings)
            timing.extend(check_budgets(report, app_budgets.get(name, {})))
    if args.timing:
        findings.extend(d for d in drift_findings() + timing
                        if d.code not in suppress
                        and (d.code, d.function) not in suppress)
    return findings


def cmd_lint(args) -> int:
    from .analysis import LintConfig, lint_program
    from .analysis.domains import CsPairingSpec
    from .analysis.lint import render_json, render_text
    from .platform.bus import MMIO_RANGES
    from .sw import constants as C
    from .sw.doorlock import doorlock_program
    from .sw.program import lightbulb_program
    from .sw.verify import platform_mmio_spec

    _obs_start(args)
    if args.timing and not args.binary:
        parser_error = "--timing requires --binary (it analyzes images)"
        print(parser_error)
        return 2
    if args.binary:
        findings = _cmd_lint_binary(args)
        if args.format == "json":
            print(render_json(findings))
        else:
            print(render_text(findings))
        _obs_finish(args)
        return 1 if findings else 0
    config = LintConfig(
        mmio_ranges=MMIO_RANGES,
        ext_spec=platform_mmio_spec(),
        cs_pairing=CsPairingSpec(addr=C.SPI_CSMODE_ADDR,
                                 acquire=C.CSMODE_HOLD,
                                 release=C.CSMODE_AUTO),
        suppress=_parse_suppressions(args.suppress),
    )
    findings = []
    if args.app in ("lightbulb", "all"):
        findings.extend(lint_program(lightbulb_program(), config))
    if args.app in ("doorlock", "all"):
        # The drivers are shared; lint only the doorlock's own functions
        # in "all" mode so shared-driver findings are not duplicated.
        program = doorlock_program()
        if args.app == "all":
            program = {name: fn for name, fn in program.items()
                       if name.startswith("doorlock")}
        findings.extend(lint_program(program, config))
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    _obs_finish(args)
    return 1 if findings else 0


def cmd_check(args) -> int:
    from .core.integration import run_all_checks

    _obs_start(args)
    checks = 0
    failures = 0
    for result in run_all_checks():
        print("%-45s %s" % (result.name,
                            "ok" if result.ok else "FAILED " + result.detail))
        checks += 1
        failures += 0 if result.ok else 1
    print("%d checks, %d failed" % (checks, failures))
    _obs_finish(args)
    return 1 if failures else 0


def cmd_end2end(args) -> int:
    from .core.end2end import run_adversarial, run_adversarial_suite

    _obs_start(args)
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        results = run_adversarial_suite(seeds, n_frames=args.frames,
                                        processor=args.processor,
                                        max_units=args.units,
                                        jobs=args.jobs)
        ok = True
        for seed, result in zip(seeds, results):
            ok = ok and result.ok
            print("seed=%-6d %s  instructions=%d mmio_events=%d bulb=%r"
                  % (seed,
                     "in spec   " if result.ok
                     else "VIOLATION: " + result.detail,
                     result.instructions, len(result.trace),
                     result.bulb_history))
        print("%d/%d adversarial runs within goodHlTrace"
              % (sum(1 for r in results if r.ok), len(results)))
        _obs_finish(args)
        return 0 if ok else 1
    result = run_adversarial(seed=args.seed, n_frames=args.frames,
                             processor=args.processor,
                             max_units=args.units)
    print("processor=%s frames=%d: %s" % (
        args.processor, args.frames,
        "trace within goodHlTrace" if result.ok else "VIOLATION: " + result.detail))
    print("instructions=%d mmio_events=%d bulb_history=%r"
          % (result.instructions, len(result.trace), result.bulb_history))
    _obs_finish(args)
    return 0 if result.ok else 1


def _print_layer_timing() -> None:
    from . import obs
    from .fuzz.oracle import LAYERS

    rows = []
    for layer in LAYERS:
        runs = obs.counter("fuzz.layer.%s.runs" % layer).value
        micros = obs.counter("fuzz.layer.%s.micros" % layer).value
        if runs:
            rows.append((layer, runs, micros / 1e6, micros / runs / 1e3))
    if rows:
        print("%-16s %8s %10s %12s" % ("layer", "runs", "seconds",
                                       "ms/program"))
        for layer, runs, secs, ms in rows:
            print("%-16s %8d %10.2f %12.3f" % (layer, runs, secs, ms))


def cmd_fuzz(args) -> int:
    import json as json_mod

    from .fuzz.generator import PROFILES
    from .fuzz.oracle import run_campaign

    _obs_start(args)
    if args.replay:
        from .fuzz.shrink import replay_file

        result = replay_file(args.replay)
        print("%s: %s (expected %s, got %s)"
              % (result["path"],
                 "reproduced" if result["ok"] else "FAILED",
                 result["expected"], result["got"]))
        _obs_finish(args)
        return 0 if result["ok"] else 1

    if args.mutation_score or args.mutation_tier1:
        from .fuzz.mutate import score_differential, score_tier1

        exit_code = 0
        scores = {"format": "repro-mutation-score", "version": 1}
        if args.mutation_score:
            report = score_differential(jobs=args.jobs)
            scores["differential"] = report
            print("differential-oracle mutation score:")
            for name in sorted(report["mutations"]):
                entry = report["mutations"][name]
                print("  %-28s %-12s %s" % (
                    name, entry["layer"],
                    "killed by seed %d" % entry["killed_by_seed"]
                    if entry["killed"] else "SURVIVED"))
            print("killed %d/%d (%.0f%%)"
                  % (report["killed"], report["total"],
                     100 * report["kill_rate"]))
            if report["killed"] != report["total"]:
                exit_code = 1
        if args.mutation_tier1:
            report = score_tier1()
            scores["tier1"] = report
            print("tier-1 test-suite mutation score:")
            for name in sorted(report["mutations"]):
                entry = report["mutations"][name]
                print("  %-28s %-12s %s" % (
                    name, entry["layer"],
                    "killed" if entry["killed"] else "SURVIVED"))
            print("killed %d/%d (%.0f%%)"
                  % (report["killed"], report["total"],
                     100 * report["kill_rate"]))
            if report["killed"] != report["total"]:
                exit_code = 1
        if args.json:
            with open(args.json, "w") as fh:
                json_mod.dump(scores, fh, indent=2, sort_keys=True)
                fh.write("\n")
        _obs_finish(args)
        return exit_code

    config = PROFILES[args.profile]
    seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    report = run_campaign(seeds, config=config, mutation=args.mutate,
                          logic_sample=args.logic_sample, jobs=args.jobs,
                          time_budget=args.time_budget)
    summary = report["summary"]
    if args.json:
        with open(args.json, "w") as fh:
            json_mod.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("fuzz: %d program(s), %d divergence(s), %d invalid, "
          "logic obligations %d checked / %d failed"
          % (summary["programs"], summary["divergences"], summary["invalid"],
             summary["logic_checked"], summary["logic_failed"]))
    _print_layer_timing()

    divergent = [r for r in report["seeds"] if r["status"] == "divergence"]
    for entry in divergent[:10]:
        print("  seed %d: %s divergence in %s: %s"
              % (entry["seed"], entry["divergence"]["kind"],
                 entry["divergence"]["layer"], entry["divergence"]["detail"]))
    if divergent and args.shrink:
        from .fuzz.generator import generate_program
        from .fuzz.shrink import save_reproducer, shrink_reproducer

        entry = divergent[0]
        program = generate_program(entry["seed"], config)
        shrunk, stats = shrink_reproducer(program, entry["divergence"],
                                          mutation=args.mutate)
        path = save_reproducer(args.corpus, entry["seed"], shrunk,
                               entry["divergence"], mutation=args.mutate,
                               stats=stats)
        print("shrunk seed %d: %d -> %d statements (%d predicate evals); "
              "saved %s" % (entry["seed"], stats["original_stmts"],
                            stats["shrunk_stmts"], stats["evals"], path))
    _obs_finish(args)
    if args.mutate is not None:
        # Triage mode: success means the oracle *caught* the mutation.
        if divergent:
            print("mutation %r killed" % args.mutate)
            return 0
        print("mutation %r SURVIVED %d seed(s)" % (args.mutate,
                                                   summary["programs"]))
        return 1
    return 1 if (summary["divergences"] or summary["invalid"]) else 0


def cmd_fleet(args) -> int:
    import json as json_mod

    from .net import run_fleet

    _obs_start(args)
    report = run_fleet(nodes=args.nodes, duration=args.duration,
                       profile=args.profile, seed=args.seed, jobs=args.jobs)
    if args.json:
        with open(args.json, "w") as fh:
            json_mod.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary = report["summary"]
    switch = report["fabric"]["switch"]
    print("fleet: %d node(s), %d units, profile=%s seed=%d"
          % (args.nodes, args.duration, args.profile, args.seed))
    print("fabric: %d offered, %d switched (%d unicast / %d flooded), "
          "%d queue overflow(s)"
          % (summary["frames_offered"], switch["frames_in"],
             switch["frames_unicast"], switch["frames_flooded"],
             switch["queue_overflows"]))
    print("nodes:  %d delivered, %d accepted, %d NIC-dropped, "
          "%d instructions, %d spec check(s)"
          % (summary["frames_delivered"], summary["frames_accepted"],
             summary["nic_dropped"], summary["instructions"],
             summary["spec_checks"]))
    for row in report["nodes"]:
        if not row["ok"]:
            print("  node %d (%s): %s" % (row["node"], row["kind"],
                                          row["violation"] or row["error"]))
    print("%d/%d node(s) within spec, %d violation(s), %d error(s)"
          % (summary["nodes_ok"], summary["nodes"], summary["violations"],
             summary["errors"]))
    _obs_finish(args)
    return 0 if summary["nodes_ok"] == summary["nodes"] else 1


def cmd_bench(args) -> int:
    from .core.timing import factor_decomposition

    _obs_start(args)
    decomposition = factor_decomposition()
    print("%-18s %9s %7s" % ("factor", "measured", "paper"))
    for key in ("spi_pipelining", "timeout_logic", "compiler", "processor",
                "total"):
        print("%-18s %8.2fx %6.1fx" % (key, decomposition[key],
                                       decomposition["paper"][key]))
    _obs_finish(args)
    return 0


def cmd_stats(args) -> int:
    """Run a representative verify + end2end workload with observability
    enabled and print every counter/gauge/histogram in the registry."""
    from . import obs
    from .core.end2end import run_adversarial
    from .sw.verify import verify_all

    obs.enable(trace=True)
    run = verify_all()
    print("verified %d functions, %d obligations discharged"
          % (len(run.reports), run.total_obligations))
    result = run_adversarial(seed=args.seed, n_frames=args.frames,
                             max_units=args.units)
    print("end2end (%d units): %s, %d instructions, %d MMIO events"
          % (args.units,
             "in spec" if result.ok else "VIOLATION: " + result.detail,
             result.instructions, len(result.trace)))
    from .net import run_fleet

    fleet = run_fleet(nodes=2, duration=10_000, profile="lossy",
                      seed=args.seed)
    print("fleet (2 nodes, lossy links): %d/%d in spec, %d frame(s) "
          "switched, %d NIC drop(s)"
          % (fleet["summary"]["nodes_ok"], fleet["summary"]["nodes"],
             fleet["fabric"]["switch"]["frames_in"],
             fleet["summary"]["nic_dropped"]))
    print()
    print(obs.REGISTRY.render())
    _obs_finish(args)
    fleet_ok = (fleet["summary"]["nodes_ok"] == fleet["summary"]["nodes"])
    return 0 if (result.ok and fleet_ok) else 1


def cmd_wcet(args) -> int:
    """Prove per-app WCET/stack bounds, then measure tightness on a
    deterministic fuzz-program sample (static bound / measured pipeline
    firings); writes the JSON artifact the HTML report renders."""
    import json

    from .analysis.wcet import check_budgets, drift_findings, load_budgets

    _obs_start(args)
    loop_bounds, app_budgets = load_budgets(args.budgets)
    doc = {"format": "repro-wcet", "version": 1, "apps": {},
           "drift": [d.render() for d in drift_findings()],
           "tightness": None}
    failed = bool(doc["drift"])
    for name, _, compiled in _shipped_apps("all"):
        report = _timing_report(compiled, _binary_config(compiled),
                                loop_bounds)
        budget = app_budgets.get(name, {})
        over = check_budgets(report, budget)
        failed = failed or bool(report.findings) or bool(over)
        doc["apps"][name] = {
            "report": report.to_json(),
            "budgets": budget,
            "budget_findings": [d.render() for d in over],
        }
        print("%-10s startup %s  iteration %s  stack %s  findings %d  "
              "budget %s"
              % (name, report.startup_cycles, report.iteration_cycles,
                 report.stack_bound, len(report.findings),
                 "OVER" if over else "ok"))
    if args.seeds > 0:
        from .fuzz.generator import generate_program
        from .fuzz.oracle import run_differential

        ratios = []
        sound = True
        for seed in range(args.seeds):
            result = run_differential(generate_program(seed))
            wcet = result.get("wcet") or {}
            if result["status"] != "ok" or not wcet.get("measured_cycles"):
                sound = False
                continue
            ratios.append(wcet["static_cycles"] / wcet["measured_cycles"])
        doc["tightness"] = {
            "seeds": args.seeds,
            "proved": len(ratios),
            "sound": sound,
            "mean": (round(sum(ratios) / len(ratios), 3)
                     if ratios else None),
            "max": round(max(ratios), 3) if ratios else None,
        }
        failed = failed or not sound
        print("tightness over %d seeds: mean %s  max %s  (%d proved)"
              % (args.seeds, doc["tightness"]["mean"],
                 doc["tightness"]["max"], len(ratios)))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.json)
    _obs_finish(args)
    return 1 if failed else 0


def cmd_report(args) -> int:
    """Render the observability artifacts of a run -- verification
    ledger, span trace, bench history -- into one self-contained HTML
    file (inline CSS, zero dependencies)."""
    from .obs.report import build_report

    html = build_report(ledger_path=args.ledger, trace_path=args.trace,
                        history_dir=args.history, fleet_path=args.fleet,
                        wcet_path=args.wcet, title=args.title)
    with open(args.output, "w") as fh:
        fh.write(html)
    print("wrote %s (%d bytes, self-contained)"
          % (args.output, len(html.encode("utf-8"))))
    return 0


def cmd_disasm(args) -> int:
    from .core.end2end import compiled_image
    from .riscv.disasm import disassemble

    compiled = compiled_image(args.app)
    symbols = {name: addr for name, addr in compiled.symbols.items()
               if name.startswith("func.") or name in ("_start", "halt")}
    for line in disassemble(compiled.image, symbols=symbols):
        print(line)
    return 0


def cmd_export_c(args) -> int:
    from .bedrock2.c_export import export_program
    from .sw.program import lightbulb_program

    print(export_program(lightbulb_program()))
    return 0


def cmd_demo(args) -> int:
    from .platform.net import lightbulb_packet, oversize_packet
    from .riscv.machine import RiscvMachine
    from .sw.program import compiled_lightbulb, make_platform
    from .sw.specs import good_hl_trace

    compiled = compiled_lightbulb(stack_top=1 << 16)
    plat = make_platform()
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 16,
                                        mmio_bus=plat.bus)
    machine.run(400_000, stop=lambda m: plat.lan.rx_enabled)
    print("booted (%d instructions); bulb off" % machine.instret)
    script = [("ON command", lightbulb_packet(True)),
              ("2KB oversize attack", oversize_packet(2000)),
              ("OFF command", lightbulb_packet(False))]
    for label, frame in script:
        plat.lan.inject_frame(frame)
        machine.run(2_000_000, stop=lambda m: not plat.lan.frames
                    and not plat.lan._active_words)
        machine.run(30_000)  # let the loop iteration finish actuating
        print("%-18s -> bulb %s" % (label,
                                    "ON" if plat.gpio.bulb_on else "OFF"))
    ok = good_hl_trace().prefix_of(machine.trace)
    print("trace (%d events) within goodHlTrace: %s"
          % (len(machine.trace), ok))
    return 0 if ok else 1


def _jobs(text: str) -> int:
    """``--jobs N``: N worker processes, 0 meaning one per core."""
    jobs = int(text)
    if jobs == 0:
        from .logic.dispatch import default_jobs

        return default_jobs()
    return jobs


def main(argv=None) -> int:
    from .fuzz.generator import PROFILES

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_out(p):
        p.add_argument("--trace-out", metavar="FILE.jsonl", default=None,
                       help="write a Chrome-trace-format span trace "
                            "(open in Perfetto / chrome://tracing)")

    p = sub.add_parser("verify", help="verify the lightbulb software")
    p.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                   help="verify N functions in parallel worker processes "
                        "(0 = one per core; default 1)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="content-addressed proof cache directory: decided "
                        "VCs are skipped on re-verification "
                        "(see docs/incremental.md)")
    p.add_argument("--prescreen", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="discharge obligations by abstract interpretation "
                        "before the SAT solver (see docs/static-analysis.md)")
    p.add_argument("--ledger-out", metavar="FILE.jsonl", default=None,
                   help="write the verification ledger: one record per VC "
                        "obligation (fingerprint, source location, tier, "
                        "effort); canonical form is byte-identical across "
                        "--jobs values")
    p.add_argument("--ledger-volatile", action="store_true",
                   help="keep per-run fields (wall_us, pid) in the ledger "
                        "instead of the canonical deterministic form")
    add_trace_out(p)
    p = sub.add_parser("lint", help="static analysis of the Bedrock2 apps")
    p.add_argument("--app", choices=("lightbulb", "doorlock", "all"),
                   default="all")
    p.add_argument("--binary", action="store_true",
                   help="lint the compiled RV32IM images instead of the "
                        "source (CFG recovery + abstract interpretation + "
                        "translation validation; B2A1xx codes)")
    p.add_argument("--timing", action="store_true",
                   help="with --binary: also prove static WCET and stack "
                        "bounds and check them against the committed "
                        "budgets (B2A201-B2A205)")
    p.add_argument("--budgets", metavar="FILE.json",
                   default="timing-budgets.json",
                   help="per-app WCET/stack budgets and loop flow-fact "
                        "annotations (default timing-budgets.json)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--suppress", action="append", metavar="CODE[:FUNC]",
                   default=None,
                   help="suppress a diagnostic code, optionally only in one "
                        "function (repeatable)")
    add_trace_out(p)
    p = sub.add_parser("check", help="run the integration checks")
    add_trace_out(p)
    p = sub.add_parser("end2end",
                       help="check the end-to-end theorem on (adversarial) "
                            "packet streams")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", metavar="S1,S2,...", default=None,
                   help="run an adversarial sweep over many seeds "
                        "(overrides --seed)")
    p.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                   help="parallel worker processes for --seeds sweeps")
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--units", type=int, default=600_000,
                   help="execution units (instructions or Kami steps)")
    p.add_argument("--processor", choices=("isa", "kami-spec", "p4mm"),
                   default="isa")
    add_trace_out(p)
    p = sub.add_parser("fuzz",
                       help="differential fuzzing: co-simulate generated "
                            "programs on every execution layer")
    p.add_argument("--seeds", type=int, default=50, metavar="N",
                   help="number of generated programs (default 50)")
    p.add_argument("--seed-start", type=int, default=0, metavar="K",
                   help="first seed (seeds K..K+N-1 are used)")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="stop launching new programs after S seconds")
    p.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                   help="parallel worker processes (0 = one per core)")
    p.add_argument("--profile", choices=sorted(PROFILES), default="default",
                   help="generator size profile (small = smoke tests)")
    p.add_argument("--logic-sample", type=int, default=5, metavar="N",
                   help="cross-check vcgen obligations on the first N seeds")
    p.add_argument("--shrink", action="store_true",
                   help="shrink the first divergence into fuzz-corpus/")
    p.add_argument("--corpus", metavar="DIR", default="fuzz-corpus",
                   help="corpus directory for shrunk reproducers")
    p.add_argument("--mutate", metavar="NAME", default=None,
                   help="inject one catalog mutation and expect the oracle "
                        "to kill it (see docs/fuzzing.md)")
    p.add_argument("--mutation-score", action="store_true",
                   help="kill rate of the differential oracle over the "
                        "whole mutation catalog")
    p.add_argument("--mutation-tier1", action="store_true",
                   help="kill rate of the repo's own fast test subset")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="replay one fuzz-corpus file and check it still "
                        "reproduces")
    p.add_argument("--json", metavar="OUT", default=None,
                   help="write the deterministic campaign report (or, with "
                        "--mutation-score/--mutation-tier1, the score "
                        "reports) as JSON")
    add_trace_out(p)
    p = sub.add_parser("fleet",
                       help="simulate a fleet of verified nodes on an "
                            "adversarial network fabric, spec-checking "
                            "every node's MMIO trace online")
    p.add_argument("--nodes", type=int, default=8, metavar="N",
                   help="fleet size; even indices are lightbulbs, odd are "
                        "door locks (default 8)")
    p.add_argument("--duration", type=int, default=50_000, metavar="T",
                   help="simulated time units == instructions per node "
                        "(default 50000)")
    p.add_argument("--profile", choices=("clean", "lossy", "chaos"),
                   default="lossy",
                   help="per-link fault profile (default lossy)")
    p.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                   help="shard nodes over N worker processes (0 = one per "
                        "core); the report is byte-identical across values")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed for workload and link fault streams")
    p.add_argument("--json", metavar="OUT", default=None,
                   help="write the deterministic fleet report as JSON")
    add_trace_out(p)
    p = sub.add_parser("bench", help="latency decomposition (§7.2.1)")
    add_trace_out(p)
    p = sub.add_parser("wcet",
                       help="prove static WCET/stack bounds for the "
                            "shipped apps and measure bound tightness "
                            "on fuzz programs")
    p.add_argument("--budgets", metavar="FILE.json",
                   default="timing-budgets.json",
                   help="committed budgets + loop annotations")
    p.add_argument("--seeds", type=int, default=25, metavar="N",
                   help="fuzz programs for the tightness sample "
                        "(0 disables; default 25)")
    p.add_argument("--json", metavar="OUT", default=None,
                   help="write the wcet artifact (rendered by `report "
                        "--wcet`)")
    add_trace_out(p)
    p = sub.add_parser("stats", help="run a workload, print obs counters")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--frames", type=int, default=2)
    p.add_argument("--units", type=int, default=60_000,
                   help="end2end execution units for the stats workload")
    add_trace_out(p)
    p = sub.add_parser("report",
                       help="render ledger/trace/metrics/history into one "
                            "self-contained HTML file")
    p.add_argument("-o", "--output", metavar="FILE.html",
                   default="report.html")
    p.add_argument("--ledger", metavar="FILE.jsonl", default="ledger.jsonl",
                   help="verification ledger from `verify --ledger-out` "
                        "(section omitted when the file is absent)")
    p.add_argument("--trace", metavar="FILE.jsonl", default="trace.jsonl",
                   help="Chrome-trace JSONL from `--trace-out` "
                        "(section omitted when the file is absent)")
    p.add_argument("--history", metavar="DIR", default="benchmarks/history",
                   help="bench-history store for the trend sparklines")
    p.add_argument("--fleet", metavar="FILE.json", default="fleet.json",
                   help="fleet report from `fleet --json` "
                        "(section omitted when the file is absent)")
    p.add_argument("--wcet", metavar="FILE.json", default="wcet.json",
                   help="timing artifact from `wcet --json` "
                        "(section omitted when the file is absent)")
    p.add_argument("--title", default="repro verification report")
    p = sub.add_parser("disasm", help="disassemble a compiled app")
    p.add_argument("--app", choices=("lightbulb", "doorlock"),
                   default="lightbulb")
    sub.add_parser("export-c", help="print the C export of the lightbulb")
    sub.add_parser("demo", help="interactive lightbulb session")
    args = parser.parse_args(argv)
    handler = {
        "verify": cmd_verify,
        "lint": cmd_lint,
        "check": cmd_check,
        "end2end": cmd_end2end,
        "fuzz": cmd_fuzz,
        "fleet": cmd_fleet,
        "bench": cmd_bench,
        "wcet": cmd_wcet,
        "stats": cmd_stats,
        "report": cmd_report,
        "disasm": cmd_disasm,
        "export-c": cmd_export_c,
        "demo": cmd_demo,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
