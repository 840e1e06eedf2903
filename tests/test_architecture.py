"""Architectural conformance: the module structure must mirror paper
Figure 3's layering, and lower layers must not depend on higher ones --
the vertical modularity the paper insists on ("modify and optimize each
component individually ... without having to recheck the others")."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

# Allowed dependencies between subpackages (edges of Figure 3, pointing
# from a component to the interfaces/substrates it may use).
#
# ``obs`` is not a Figure 3 component: it is the cross-cutting
# observability substrate (metrics + tracing), itself dependency-free,
# which every layer may report into without that constituting a
# layering edge.
CROSS_CUTTING = {"obs"}
ALLOWED = {
    "obs": set(),
    "logic": set(),
    "traces": set(),
    "bedrock2": {"logic"},
    "riscv": {"bedrock2"},          # shares the word-arithmetic module
    "compiler": {"bedrock2", "riscv"},
    "kami": {"bedrock2", "riscv"},
    "platform": {"bedrock2", "riscv", "traces"},
    # The static analyzer reads programs (AST + flat IR + encoded RV32IM
    # images, for the binary linter) and reuses the logic layer's
    # interval/known-bits lattices; nothing below it may import it back
    # (vcgen consumes the prescreener by injection). The ``kami`` edge
    # is the WCET cost model's drift check: the price list is calibrated
    # against the pipelined processor, and ``costmodel.py`` re-derives
    # the constants from the live module so a pipeline refactor cannot
    # silently invalidate the bounds (read-only, and kami never imports
    # analysis back).
    "analysis": {"bedrock2", "compiler", "kami", "logic", "riscv"},
    "sw": {"analysis", "bedrock2", "compiler", "logic", "platform",
           "traces", "riscv"},
    # The differential fuzzer drives every execution layer (and samples
    # vcgen obligations through the logic layer), so it sits beside
    # ``core`` near the top of the stack; only ``core`` (the end2end
    # stimulus) may import it back. It also runs the binary linter as a
    # static oracle layer, hence the ``analysis`` edge.
    "fuzz": {"analysis", "bedrock2", "compiler", "kami", "logic",
             "platform", "riscv"},
    "core": {"bedrock2", "compiler", "fuzz", "kami", "logic", "platform",
             "riscv", "sw", "traces"},
    # The fleet simulator puts one ``core`` checked device (compiled app
    # on the fast engine over its own platform, trace under the spec
    # checker) behind each switch port and shards itself over the logic
    # layer's dispatch pool; it reuses ``fuzz``'s RNG discipline for its
    # seeded fault/workload streams and ``platform``'s frame builders.
    # Nothing imports it back.
    "net": {"core", "fuzz", "logic", "platform", "sw"},
}

EXPECTED_PACKAGES = set(ALLOWED)


def _subpackage_imports(package: str):
    """The set of sibling repro.* subpackages imported anywhere in
    ``package`` (via relative imports, how this codebase imports)."""
    found = set()
    pkg_dir = os.path.join(SRC, package)
    for dirpath, _, files in os.walk(pkg_dir):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 2:
                    top = (node.module or "").split(".")[0]
                    if top in EXPECTED_PACKAGES and top != package:
                        found.add(top)
                elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                        and node.module and node.module.startswith("repro."):
                    top = node.module.split(".")[1]
                    if top in EXPECTED_PACKAGES and top != package:
                        found.add(top)
    return found


def test_every_figure3_component_exists():
    packages = {entry for entry in os.listdir(SRC)
                if os.path.isdir(os.path.join(SRC, entry))
                and not entry.startswith("__")}
    assert packages == EXPECTED_PACKAGES


@pytest.mark.parametrize("package", sorted(EXPECTED_PACKAGES))
def test_layering_respected(package):
    imports = _subpackage_imports(package)
    illegal = imports - ALLOWED[package] - CROSS_CUTTING
    assert not illegal, ("%s depends on %s, violating Figure 3's layering"
                         % (package, sorted(illegal)))


def test_obs_substrate_is_dependency_free():
    # Everything may report into the observability layer, so it must not
    # import anything back -- otherwise it would be a hidden layering edge.
    assert _subpackage_imports("obs") == set()


def test_logic_layer_is_self_contained():
    # The decision substrate (our 'proof assistant kernel') depends on
    # nothing else in the system -- it is audit-minimal. Its only
    # permitted import is the dependency-free observability substrate.
    assert _subpackage_imports("logic") <= CROSS_CUTTING


def test_trace_spec_language_is_self_contained():
    # The spec language is trusted (Table 3): it too must stand alone.
    assert _subpackage_imports("traces") == set()


def test_key_interfaces_are_single_modules():
    """Figure 3's gray boxes each live in one place (no duplicated
    interface definitions to drift apart -- the integration-bug vector the
    paper targets)."""
    for path in (
        "bedrock2/extspec.py",       # semantics of external calls
        "bedrock2/vcgen.py",         # verification conditions
        "riscv/semantics.py",        # RISC-V as specified
        "kami/decexec.py",           # shared decode/execute
        "kami/refinement.py",        # processor refinement
        "traces/predicates.py",      # trace property language
    ):
        assert os.path.exists(os.path.join(SRC, path)), path


def test_drivers_do_not_touch_devices_directly():
    """The software may interact with hardware only through external calls
    (SInteract -> MMIO): no sw module may import the device models except
    for the shared address-map constants and the test/run harness glue in
    program.py."""
    for name in ("spi_driver.py", "lan9250_driver.py", "lightbulb.py",
                 "doorlock.py"):
        with open(os.path.join(SRC, "sw", name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                # platform.net is packet *construction* (workload data,
                # used only by host-side helpers), not a device model.
                if module.endswith("platform.net") or module == "net":
                    continue
                assert "platform" not in module, \
                    "%s imports device models directly" % name
