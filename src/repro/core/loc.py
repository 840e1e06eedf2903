"""Lines-of-code accounting for Tables 3 and 4 of the paper.

Table 3 reports the trusted code base: the specification LoC per component
(27 for the app, 77 for the LAN9250 driver spec, ...). Table 4 reports
implementation/interface/proof LoC per layer and the "proof overhead"
ratio. We compute the same shape over this repository: source files are
classified by layer and by role (implementation, interface/spec,
checking), and the benchmarks print rows in the paper's format alongside
the paper's numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                          "..", "..", ".."))
_SRC = os.path.join(_REPO_ROOT, "src", "repro")
_TESTS = os.path.join(_REPO_ROOT, "tests")


def count_loc(path: str) -> int:
    """Non-blank, non-comment-only source lines of one Python file."""
    total = 0
    in_docstring = False
    delim = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if in_docstring:
                if delim in stripped:
                    in_docstring = False
                continue
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith(('"""', "'''")):
                delim = stripped[:3]
                rest = stripped[3:]
                if delim not in rest:
                    in_docstring = True
                continue
            total += 1
    return total


def module_loc(relpath: str) -> int:
    return count_loc(os.path.join(_SRC, relpath))


def tree_loc(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                total += count_loc(os.path.join(dirpath, name))
    return total


# -- Table 3: trusted code base ----------------------------------------------------

# Component -> (paper's spec LoC, our spec modules). In the paper the TCB is
# the top (application trace predicates) and bottom (Kami HDL semantics)
# specifications; ours is the analogous set: the trace-predicate spec and
# the rule-framework semantics (plus, here, the device models, which stand
# in for the physical devices outside the paper's verification boundary).
TABLE3_PAPER = [
    ("Lightbulb application", 27),
    ("LAN9250 Ethernet driver", 77),
    ("SPI driver", 30),
    ("Driving digital outputs", 10),
    ("Trace predicate notations", 25),
    ("Semantics of Kami HDL", 400),
]

TABLE3_OURS = [
    ("Lightbulb application spec", ["sw/specs.py"], ("iteration", "recv")),
    # The combinators are the notation; the matcher defines what they mean.
    ("Trace predicate notations", ["traces/predicates.py",
                                   "traces/online.py"], None),
    ("Semantics of rule framework", ["kami/framework.py"], None),
]


def table3_rows() -> List[Tuple[str, int]]:
    rows = []
    for name, files, _ in TABLE3_OURS:
        rows.append((name, sum(module_loc(f) for f in files)))
    return rows


# -- Table 4: per-layer implementation / interface / checking LoC --------------------

# layer -> (implementation modules, interface/spec modules, checking modules)
TABLE4_LAYERS: Dict[str, Tuple[List[str], List[str], List[str]]] = {
    "lightbulb app": (
        ["sw/lightbulb.py", "sw/spi_driver.py", "sw/lan9250_driver.py",
         "sw/constants.py", "sw/program.py"],
        ["sw/specs.py"],
        ["sw/verify.py"],
    ),
    "doorlock app": (
        ["sw/doorlock.py"],
        ["sw/doorlock_spec.py"],
        [],
    ),
    "program logic": (
        ["bedrock2/vcgen.py", "bedrock2/extspec.py"],
        ["bedrock2/ast_.py"],
        ["logic/terms.py", "logic/simplify.py", "logic/intervals.py",
         "logic/sat.py", "logic/bitblast.py", "logic/solver.py"],
    ),
    "compiler": (
        ["compiler/flatten.py", "compiler/flatimp.py", "compiler/regalloc.py",
         "compiler/codegen.py", "compiler/pipeline.py", "compiler/opt.py",
         "bedrock2/c_export.py", "riscv/disasm.py"],
        ["riscv/insts.py", "riscv/encode.py", "riscv/decode.py",
         "riscv/semantics.py"],
        ["analysis/cfg.py", "analysis/binlint.py"],
    ),
    "SW/HW interface": (
        ["riscv/machine.py"],
        ["kami/decexec.py"],
        ["kami/refinement.py"],
    ),
    "processor": (
        ["kami/spec_proc.py", "kami/pipeline_proc.py", "kami/memory.py"],
        ["kami/framework.py"],
        [],
    ),
    "end-to-end": (
        ["core/end2end.py", "core/integration.py"],
        ["traces/predicates.py", "traces/online.py"],
        [],
    ),
    "platform devices": (
        ["platform/bus.py", "platform/gpio.py", "platform/spi.py",
         "platform/lan9250.py", "platform/dma.py", "platform/net.py"],
        [],
        [],
    ),
}

# The paper's Table 4 numbers (implementation, interface, interesting proof,
# low-insight proof) for the layers it reports.
TABLE4_PAPER = {
    "lightbulb app": (176, 130, 33, 1443),
    "program logic": (0, 208, 552, 1785),
    "compiler": (931, 1114, 1325, 6654),
    "SW/HW interface": (0, 2053, 991, 3804),
    "end-to-end": (0, 254, 74, 539),
}


@dataclass
class Table4Row:
    layer: str
    implementation: int
    interface: int
    checking: int

    @property
    def overhead(self) -> float:
        if self.implementation == 0:
            return float("nan")
        return (self.implementation + self.interface
                + self.checking) / self.implementation


def table4_rows() -> List[Table4Row]:
    rows = []
    for layer, (impl, iface, check) in TABLE4_LAYERS.items():
        rows.append(Table4Row(
            layer,
            sum(module_loc(f) for f in impl),
            sum(module_loc(f) for f in iface),
            sum(module_loc(f) for f in check),
        ))
    return rows


def totals() -> Dict[str, int]:
    return {
        "src": tree_loc(_SRC),
        "tests": tree_loc(_TESTS),
        "benchmarks": tree_loc(os.path.join(_REPO_ROOT, "benchmarks")),
        "examples": tree_loc(os.path.join(_REPO_ROOT, "examples")),
    }
