"""Benchmark harness configuration.

Each benchmark module regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index) and prints it, so that
``pytest benchmarks/ --benchmark-disable`` reproduces the whole
evaluation: each body runs once, including the tests that take no
``benchmark`` fixture, which ``--benchmark-only`` would skip.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
