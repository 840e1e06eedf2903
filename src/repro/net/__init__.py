"""The fleet simulator: a discrete-event network fabric driving many
verified nodes under adversarial link conditions.

The paper's end-to-end theorem is about one lightbulb answering one
Ethernet stream; the ROADMAP north star is a production-scale system,
which means many simulated devices behind a real network fabric. This
package provides that workload layer on top of everything below it:

* `repro.net.sim`      -- deterministic discrete-event scheduler;
* `repro.net.switch`   -- virtual Ethernet switch (MAC learning,
  flooding, bounded per-port egress queues with overflow accounting);
* `repro.net.faults`   -- fault-injecting links (drop / duplicate /
  reorder / delay / bit-flip) with per-link seeded profiles;
* `repro.net.node`     -- one verified device: the end-to-end
  checker's `CheckedDevice` (fast-engine `RiscvMachine` + its own
  `platform` stack + an online trace-spec check) with a MAC;
* `repro.net.workload` -- open-loop traffic generators built on
  `platform.net` (valid command storms and adversarial mixes);
* `repro.net.fleet`    -- the runner: wires fabric + nodes together,
  shards node groups across worker processes (``--jobs N``) with a
  deterministic merge, and produces the byte-identical fleet report.

The claim being exercised at scale: every node's MMIO trace stays a
prefix of its `goodHlTrace`/`goodLockTrace` no matter what the network
does to the frames (the paper's prefix-closure reading of security).
"""

from .faults import PROFILES, FaultProfile, FaultyLink
from .fleet import run_fleet
from .node import Node
from .sim import Simulator, derive_rng
from .switch import EthernetSwitch

__all__ = [
    "PROFILES", "FaultProfile", "FaultyLink", "run_fleet", "Node",
    "Simulator", "derive_rng", "EthernetSwitch",
]
