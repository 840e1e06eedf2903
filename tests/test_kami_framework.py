"""Unit tests for the Kami-style rule framework: atomicity, labels, FIFOs."""

import pytest

from repro.kami.framework import (
    ExternalWorld, Fifo, MethodCall, Module, RuleAbort, System,
)


class Echo(ExternalWorld):
    def __init__(self):
        self.calls = []

    def call(self, method, args):
        self.calls.append((method, args))
        if method == "ask":
            return sum(args) & 0xFFFFFFFF
        return None


def test_rule_fires_and_mutates():
    m = Module("m")
    m.reg("x", 0)

    def bump(mod):
        mod.regs["x"] += 1

    m.rule("bump", bump)
    sys_ = System([m], Echo())
    label = sys_.step()
    assert label is not None and label.rule == "m.bump"
    assert m.regs["x"] == 1


def test_abort_after_external_call_is_an_error():
    m = Module("m")

    def leaky(mod):
        mod.sys.call("ask", 1)
        raise RuleAbort("too late")

    m.rule("leaky", leaky)
    sys_ = System([m], Echo())
    with pytest.raises(RuntimeError):
        sys_.step()


def test_escaped_exception_does_not_leak_calls_into_next_label():
    m = Module("m")
    m.reg("armed", 1)

    def leaky(mod):
        if not mod.regs["armed"]:
            raise RuleAbort("disarmed")
        mod.sys.call("ask", 1)
        raise ValueError("not a guard")

    m.rule("leaky", leaky)
    m.rule("quiet", lambda mod: None)
    sys_ = System([m], Echo())
    with pytest.raises(ValueError):
        sys_.step()
    m.regs["armed"] = 0
    label = sys_.step()
    assert label.rule == "m.quiet" and label.calls == ()
    assert sys_.trace == [] and sys_.mmio_trace() == []


def test_external_calls_are_labeled_internal_are_not():
    provider = Module("prov")
    provider.method("internal", lambda mod, a: a * 2)
    user = Module("user")
    user.reg("acc", 0)

    def use(mod):
        mod.regs["acc"] = mod.sys.call("internal", 5) + mod.sys.call("ask", 1, 2)

    user.rule("use", use)
    sys_ = System([provider, user], Echo())
    label = sys_.step()
    assert user.regs["acc"] == 13
    assert label.calls == (MethodCall("ask", (1, 2), 3),)
    assert sys_.trace == [label]


def test_silent_steps_invisible_in_trace():
    m = Module("m")
    m.reg("x", 0)

    def silent(mod):
        if mod.regs["x"] >= 3:
            raise RuleAbort("done")
        mod.regs["x"] += 1

    m.rule("silent", silent)
    sys_ = System([m], Echo())
    sys_.run(10)
    assert m.regs["x"] == 3
    assert sys_.trace == []


def test_round_robin_gives_all_rules_a_chance():
    m = Module("m")
    m.reg("a", 0)
    m.reg("b", 0)
    m.rule("incA", lambda mod: mod.regs.__setitem__("a", mod.regs["a"] + 1))
    m.rule("incB", lambda mod: mod.regs.__setitem__("b", mod.regs["b"] + 1))
    sys_ = System([m], Echo())
    sys_.run(10)
    assert m.regs["a"] == 5 and m.regs["b"] == 5


def test_run_stops_when_quiescent():
    m = Module("m")

    def never(mod):
        raise RuleAbort("never enabled")

    m.rule("never", never)
    sys_ = System([m], Echo())
    assert sys_.run(100) == 0


def test_fifo_basics():
    m = Module("m")
    fifo = Fifo(m, "q", 2)
    fifo.enq(1)
    fifo.enq(2)
    assert fifo.full()
    with pytest.raises(RuleAbort):
        fifo.enq(3)
    assert fifo.first() == 1
    assert fifo.deq() == 1
    assert fifo.deq() == 2
    assert fifo.empty()
    with pytest.raises(RuleAbort):
        fifo.deq()


def test_duplicate_method_rejected():
    a = Module("a")
    a.method("m", lambda mod: 0)
    b = Module("b")
    b.method("m", lambda mod: 1)
    with pytest.raises(ValueError):
        System([a, b], Echo())
