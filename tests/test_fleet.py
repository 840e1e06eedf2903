"""Fleet simulator: event core, fabric, online checker, determinism."""

import json

import pytest

from repro.net.faults import PROFILES, FaultProfile, FaultyLink
from repro.net.fleet import (
    announce_frame,
    fleet_meta,
    run_fleet,
    run_fleet_shard,
)
from repro.net.node import DOORLOCK, LIGHTBULB, Node, node_mac
from repro.net.sim import Simulator, derive_rng
from repro.net.switch import BROADCAST_MAC, MIN_FRAME, EthernetSwitch
from repro.net.workload import WorkloadConfig, generate, junk_command
from repro.platform.net import is_valid_command, lightbulb_packet
from repro.traces.online import OnlineChecker
from repro.traces.predicates import Star, seq, st, union


# ---------------------------------------------------------------- simulator


def test_simulator_orders_by_time_then_schedule_order():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append("b"))
    sim.at(5, lambda: fired.append("a"))
    sim.at(10, lambda: fired.append("c"))  # same time: scheduling order
    assert sim.run_until(10) == 3
    assert fired == ["a", "b", "c"]
    assert sim.now == 10


def test_simulator_horizon_and_pending():
    sim = Simulator()
    fired = []
    sim.at(100, lambda: fired.append(1))
    assert sim.run_until(50) == 0
    assert sim.now == 50
    assert sim.pending() == 1
    # Scheduling in the past clamps to now instead of rewinding time.
    sim.at(7, lambda: fired.append(2))
    sim.run_until(100)
    assert fired == [2, 1]


def test_events_scheduled_during_run_fire_in_order():
    sim = Simulator()
    fired = []

    def cascade():
        fired.append("outer")
        sim.after(0, lambda: fired.append("inner"))

    sim.at(3, cascade)
    sim.run_until(3)
    assert fired == ["outer", "inner"]


def test_derive_rng_is_stable_and_decorrelated():
    a = derive_rng(42, "link", 1)
    b = derive_rng(42, "link", 1)
    c = derive_rng(42, "link", 2)
    draws_a = [a.randrange(1000) for _ in range(8)]
    assert draws_a == [b.randrange(1000) for _ in range(8)]
    assert draws_a != [c.randrange(1000) for _ in range(8)]


# ------------------------------------------------------------------- faults


def test_clean_link_delivers_everything_on_time():
    link = FaultyLink(PROFILES["clean"], derive_rng(0, "t"))
    out = link.transmit(b"x" * 60)
    assert out == [(PROFILES["clean"].latency, b"x" * 60)]
    assert link.counters["dropped"] == 0
    assert link.counters["delivered"] == 1


def test_lossy_link_accounting_is_consistent_and_deterministic():
    def run():
        link = FaultyLink(PROFILES["chaos"], derive_rng(7, "t"))
        for i in range(400):
            link.transmit(bytes([i & 0xFF]) * 50)
        return link.stats()

    stats = run()
    assert stats == run()
    assert stats["offered"] == 400
    assert stats["dropped"] > 0
    assert stats["corrupted"] > 0
    assert stats["duplicated"] > 0
    assert stats["reordered"] > 0
    # Every offered frame is either eaten or delivered (plus duplicates).
    assert stats["delivered"] == (stats["offered"] - stats["dropped"]
                                  + stats["duplicated"])


def test_corruption_flips_bits_but_keeps_length():
    profile = FaultProfile("allcorrupt", corrupt=1.0)
    link = FaultyLink(profile, derive_rng(3, "t"))
    frame = bytes(64)
    (delay, data), = link.transmit(frame)
    assert len(data) == len(frame)
    assert data != frame


# ------------------------------------------------------------------- switch


def _clean_switch(queue_depth=16):
    sim = Simulator()
    switch = EthernetSwitch(sim, queue_depth=queue_depth)
    return sim, switch


def _port(sim, switch, name, deliver=None, profile="clean"):
    link = FaultyLink(PROFILES[profile], derive_rng(0, name))
    return switch.add_port(name, link, deliver)


def test_switch_floods_unknown_then_unicasts_learned():
    sim, switch = _clean_switch()
    got_a, got_b = [], []
    pa = _port(sim, switch, "a", got_a.append)
    pb = _port(sim, switch, "b", got_b.append)
    pc = _port(sim, switch, "c")
    mac_a, mac_b = node_mac(0), node_mac(1)
    # b announces itself: flooded (a learns nothing; the switch does).
    switch.ingress(pb, announce_frame(mac_b))
    # a -> b is now unicast, not flooded to c.
    switch.ingress(pa, mac_b + mac_a + b"\x08\x00" + bytes(40))
    sim.run_until(10_000)
    assert got_b and got_b[0][:6] == mac_b
    assert got_a == [announce_frame(mac_b)]
    assert switch.frames_flooded == 1
    assert switch.frames_unicast == 1
    assert switch.mac_table[mac_b] == pb
    assert pc is not None


def test_switch_filters_same_segment_and_counts_runts():
    sim, switch = _clean_switch()
    got = []
    pa = _port(sim, switch, "a", got.append)
    _port(sim, switch, "b")
    mac = node_mac(4)
    switch.ingress(pa, announce_frame(mac))
    switch.ingress(pa, mac + mac + b"\x08\x00" + bytes(40))  # to itself
    switch.ingress(pa, b"\x00" * (MIN_FRAME - 1))            # runt
    sim.run_until(10_000)
    assert switch.frames_filtered == 1
    assert switch.runts == 1
    assert got == []  # nothing echoes back to the ingress port


def test_switch_bounded_queue_tail_drops():
    sim, switch = _clean_switch(queue_depth=1)
    got = []
    src = _port(sim, switch, "src")
    dst = _port(sim, switch, "dst", got.append)
    mac = node_mac(9)
    switch.ingress(dst, announce_frame(mac))
    sim.run_until(1_000)
    frame = mac + node_mac(8) + b"\x08\x00" + bytes(40)
    # Two back-to-back unicasts: the link holds one in flight (latency
    # 40), so the second is tail-dropped and accounted.
    switch.ingress(src, frame)
    switch.ingress(src, frame)
    assert switch.queue_overflows == 1
    sim.run_until(2_000)
    assert len(got) == 1
    assert switch.stats()["ports"][dst]["overflows"] == 1


# ----------------------------------------------------------- online checker


def test_online_checker_matches_prefix_of_on_synthetic_traces():
    spec = seq(st(1), st(2)) + Star(union(seq(st(3)),
                                          seq(st(4), st(5))))
    # Random traces over a tiny alphabet; the streaming verdict must
    # equal prefix_of of the whole trace at every length.
    alphabet = [("st", a, 0) for a in (1, 2, 3, 4, 5)]
    rng = derive_rng(11, "synthetic")
    for _ in range(200):
        trace = []
        checker = OnlineChecker(spec)
        for _ in range(rng.randrange(1, 10)):
            trace.append(alphabet[rng.randrange(len(alphabet))])
            assert checker.check(trace) == spec.prefix_of(trace), trace


def test_online_checker_rejects_shrinking_trace():
    spec = seq(st(1)) + Star(seq(st(2)))
    checker = OnlineChecker(spec)
    checker.check([("st", 1, 0)])
    with pytest.raises(ValueError):
        checker.check([])


def test_online_checker_streams_any_spec_shape():
    spec = seq(st(1), st(2))
    checker = OnlineChecker(spec)
    assert checker.check([("st", 1, 0)])
    assert not checker.check([("st", 1, 0), ("st", 1, 0)])
    assert checker.bad_index == 1


# ----------------------------------------------------------------- workload


def test_workload_is_deterministic_and_in_range():
    meta = fleet_meta(4)
    t1 = generate(3, meta, 40_000)
    t2 = generate(3, meta, 40_000)
    assert t1 == t2
    assert t1
    macs = {mac for _, _, mac in meta}
    for t, frame in t1:
        assert 0 <= t < 40_000
        assert frame[:6] in macs | {BROADCAST_MAC} or len(frame) < 6


def test_junk_commands_never_carry_a_parseable_lightbulb_command():
    rng = derive_rng(5, "junk")
    for _ in range(300):
        frame = junk_command(rng, LIGHTBULB)
        # Bit-flipped variants may stay parseable (that is the point:
        # the command byte may survive); everything else must not.
        if len(frame) != len(lightbulb_packet(True)):
            if len(frame) > 1520 or len(frame) < 43:
                assert is_valid_command(frame) is None


def test_random_garbage_never_parses_as_valid_command():
    from repro.platform.net import random_garbage

    rng = derive_rng(0, "garbage")
    for _ in range(500):
        assert is_valid_command(random_garbage(rng, 200)) is None


# -------------------------------------------------------------------- nodes


def test_node_mac_unique_and_locally_administered():
    macs = {node_mac(i) for i in range(300)}
    assert len(macs) == 300
    for mac in macs:
        assert mac[0] & 0x02  # locally administered
        assert not mac[0] & 0x01  # unicast


def test_node_detects_an_out_of_spec_trace():
    node = Node(0, LIGHTBULB)
    node.run(20_000)
    assert node.check_spec()
    # Forge an MMIO store no lightbulb firmware may emit: the checker
    # must flag it and name it.
    node.machine.trace.append(("st", 0xDEAD_BEEF, 1))
    forged = len(node.machine.trace) - 1
    assert not node.check_spec()
    assert not node.ok
    assert node.violation and "not a prefix" in node.violation
    assert "event %d (st 0xdeadbeef = 0x1)" % forged in node.violation
    # Failed nodes stay failed; further checks are skipped.
    assert not node.check_spec()


# -------------------------------------------------------------------- fleet


def test_fleet_clean_profile_all_nodes_in_spec():
    report = run_fleet(nodes=2, duration=14_000, profile="clean", seed=1)
    summary = report["summary"]
    assert summary["violations"] == 0
    assert summary["errors"] == 0
    assert summary["nodes_ok"] == 2
    kinds = [row["kind"] for row in report["nodes"]]
    assert kinds == [LIGHTBULB, DOORLOCK]
    assert summary["spec_checks"] > 0


def test_fleet_report_is_byte_identical_across_jobs():
    kwargs = dict(nodes=4, duration=12_000, profile="lossy", seed=2)
    r1 = run_fleet(jobs=1, **kwargs)
    r2 = run_fleet(jobs=2, **kwargs)
    j1 = json.dumps(r1, sort_keys=True, indent=2)
    j2 = json.dumps(r2, sort_keys=True, indent=2)
    assert j1 == j2


def test_fleet_shards_replay_identical_fabric():
    kwargs = dict(nodes=3, duration=10_000, profile="chaos", seed=4)
    full = run_fleet_shard(owned=None, **kwargs)
    partial = run_fleet_shard(owned=[1], **kwargs)
    assert partial["fabric"] == full["fabric"]
    assert [row["node"] for row in partial["nodes"]] == [1]
    assert partial["nodes"][0] == full["nodes"][1]


def test_fleet_flushes_fabric_counters_into_obs():
    from repro import obs

    before = obs.counter("net.frames_offered").value
    report = run_fleet(nodes=2, duration=10_000, profile="lossy", seed=0)
    delta = obs.counter("net.frames_offered").value - before
    assert delta == report["summary"]["frames_offered"]
    assert obs.counter("net.fleet_runs").value > 0


def test_fleet_rejects_unknown_profile():
    with pytest.raises(ValueError):
        run_fleet(nodes=1, duration=100, profile="nosuch", seed=0)


def test_workload_config_defaults_oversubscribe_with_storm():
    config = WorkloadConfig(start=0, mean_gap=100)
    meta = fleet_meta(1)
    timeline = generate(0, meta, 10_000, config)
    assert len(timeline) > 20  # a genuine storm when configured hot
