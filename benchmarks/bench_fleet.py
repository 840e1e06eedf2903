"""Fleet simulator throughput: frames/sec and node-steps/sec.

The fleet's cost has two independent axes, measured separately so a
regression pins itself to a layer:

* ``fleet_fabric``: the fabric alone (no owned nodes) -- discrete-event
  dispatch, switching, fault draws, queue bookkeeping. The number that
  matters is frames switched per second of wall time.
* ``fleet_nodes``: a full small fleet -- fast-engine execution of every
  node plus the online spec checks, the dominant cost in practice. The
  number that matters is node instruction-steps per second.

Both run a fixed seed and a fixed topology, so the work is identical
run-to-run. Fleet wall time is gated by perfbench's ``fleet_lossy``
workload.
"""

from repro.net.fleet import run_fleet, run_fleet_shard

_NODES = 4
_DURATION = 25_000
_SEED = 0
_PROFILE = "lossy"

# The fabric alone is orders of magnitude cheaper than node execution,
# so it gets a much larger topology and horizon to produce a wall time
# that is not lost in timer noise.
_FAB_NODES = 48
_FAB_DURATION = 2_000_000


def _fabric_only():
    """The whole fabric with zero owned nodes: pure event-loop cost."""
    report = run_fleet_shard(nodes=_FAB_NODES, duration=_FAB_DURATION,
                             profile="chaos", seed=_SEED, owned=[])
    return report["fabric"]


def _full_fleet():
    return run_fleet(nodes=_NODES, duration=_DURATION, profile=_PROFILE,
                     seed=_SEED)


def test_fleet_fabric(benchmark):
    fabric = {}
    benchmark.pedantic(lambda: fabric.update(_fabric_only()),
                       rounds=1, iterations=1)
    print()
    print("fabric: %d frames switched" % fabric["switch"]["frames_in"])
    assert fabric["switch"]["frames_in"] > 0


def test_fleet_nodes(benchmark):
    report = {}
    benchmark.pedantic(lambda: report.update(_full_fleet()),
                       rounds=1, iterations=1)
    print()
    summary = report["summary"]
    print("fleet: %d instructions, %d spec checks, %d violations"
          % (summary["instructions"], summary["spec_checks"],
             summary["violations"]))
    assert summary["violations"] == 0
    assert summary["errors"] == 0
    assert summary["instructions"] == _NODES * _DURATION
