"""The trace-spec matching engine: one event at a time.

`OnlineChecker` decides ``spec.prefix_of(trace)`` and ``spec.matches(trace)``
for a trace that only grows, consuming every event exactly once; the two
`TracePred` relations are this engine fed a whole trace. Its state is a
deduplicated set of *configurations* ``(continuation, env)`` -- what is
left to match and the values captured so far: the partial derivatives of
the spec (Brzozowski 1964; Antimirov 1996), extended with environments for
`Exists`, `Bind`/`Guard` and `RepeatN`.

A continuation is a linked list ``(node, rest)`` ending in None (nothing
left to match). Consuming an event first *closes* each configuration --
expands concatenations, unions, stars, witnesses, binds and repetitions
until a `Step` heads it -- then keeps every `Step` that accepts the event,
continuing with its ``rest``. Two kinds of frame besides combinators occur
in continuations: ``(rep, i, n)`` resumes `RepeatN` ``rep`` at body ``i``
of ``n``, and ``_Again(star)`` ends an iteration of ``star`` begun since
the last event. Reached within the same closure, that iteration consumed
nothing and is dropped (every iteration consumes an event); once an event
is consumed it becomes ``star`` again.

The verdicts:

* after one or more events, the trace is a prefix iff some configuration
  consumed the last event. Guards after the last event are not evaluated
  until another event arrives;
* the empty trace is a prefix iff some path from the start of the spec
  reaches a `Step`, a guard or the end of the spec;
* the trace matches iff closing the configurations reaches the end of the
  spec, guards evaluated.

The state is bounded by the spec, not by the trace: memory does not grow
with the number of events checked.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from .predicates import (
    Bind,
    Concat,
    Env,
    Epsilon,
    Event,
    Exists,
    Guard,
    RepeatN,
    Star,
    Step,
    Trace,
    TracePred,
    Union,
)

Config = Tuple[Optional[tuple], Env, FrozenSet]


class _Again:
    """Continuation frame: end of an iteration of ``star`` begun since the
    last event."""

    __slots__ = ("star",)

    def __init__(self, star: Star):
        self.star = star


def _close(configs: List[Config], permissive: bool = False):
    """Expand ``configs`` until a `Step` heads each one. Returns the
    `Step`-headed configurations as ``(step, rest, env, key, fresh)``,
    where ``fresh`` counts the `_Again` frames in ``rest``, and whether
    some configuration reached the end of the spec. With ``permissive``,
    reaching a `Bind` counts as reaching the end, unevaluated."""
    waiting = []
    ends = False
    seen = {}
    stack = [(cont, env, key, 0) for cont, env, key in configs]
    while stack:
        cont, env, key, fresh = stack.pop()
        if cont is None:
            ends = True
            continue
        node, rest = cont
        mark = (node, id(rest), key)
        if mark in seen:
            continue
        seen[mark] = rest  # keeps ``rest`` alive, so its id stays unique
        kind = type(node)
        if kind is Step:
            waiting.append((node, rest, env, key, fresh))
        elif kind is Concat:
            stack.append(((node.first, (node.second, rest)), env, key, fresh))
        elif kind is Union:
            for arm in node.arms:
                stack.append(((arm, rest), env, key, fresh))
        elif kind is Star:
            stack.append((rest, env, key, fresh))
            stack.append(((node.body, (_Again(node), rest)), env, key,
                          fresh + 1))
        elif kind is tuple:
            rep, i, n = node
            if i < n:
                rest = ((rep, i + 1, n), rest)
                stack.append(((rep.body_fn(i), rest), env, key, fresh))
            else:
                stack.append((rest, env, key, fresh))
        elif kind is RepeatN:
            stack.append((((node, 0, node.count_fn(env)), rest), env, key,
                          fresh))
        elif kind is Bind or kind is Guard:
            if permissive:
                ends = True
                continue
            new = node.fn(env)
            if new is not None:
                stack.append((rest, new, key if new is env
                              else frozenset(new.items()), fresh))
        elif kind is Exists:
            for value in node.domain:
                new = dict(env)
                new[node.name] = value
                stack.append(((node.body(value), rest), new,
                              frozenset(new.items()), fresh))
        elif kind is Epsilon:
            stack.append((rest, env, key, fresh))
        # `Never`, and an `_Again` whose iteration consumed nothing, end
        # the path.
    return waiting, ends


def _settle(cont: tuple, fresh: int) -> tuple:
    """``cont`` with its first ``fresh`` `_Again` frames turned back into
    their stars: their iterations have now consumed an event."""
    above = []
    while fresh:
        node, cont = cont
        if type(node) is _Again:
            node = node.star
            fresh -= 1
        above.append(node)
    for node in reversed(above):
        cont = (node, cont)
    return cont


class OnlineChecker:
    """``spec.prefix_of`` over a monotonically growing trace, consuming
    each event once.

    ``check(trace)`` must be called with the same logical trace as before,
    possibly extended (the fleet nodes pass the machine's live trace
    list). Passing a shorter trace raises. ``bad_index`` and
    ``bad_event`` name the first event no configuration accepted, if any.
    """

    def __init__(self, spec: TracePred):
        self.spec = spec
        self.consumed = 0
        self.bad_index: Optional[int] = None
        self.bad_event: Optional[Event] = None
        self._configs: List[Config] = [((spec, None), {}, frozenset())]

    def check(self, trace: Trace) -> bool:
        """Equivalent to ``spec.prefix_of(trace)``; the cost is
        proportional to the events added since the previous call."""
        if len(trace) < self.consumed:
            raise ValueError("trace shrank: OnlineChecker requires a "
                             "monotonically growing trace")
        return self.feed(trace[self.consumed:])

    def feed(self, events: Trace) -> bool:
        """Consume ``events``; is the trace so far a prefix of the spec?"""
        for event in events:
            if self._configs:
                self._configs = self._step(event)
                if not self._configs:
                    self.bad_index, self.bad_event = self.consumed, event
            self.consumed += 1
        if self.consumed:
            return bool(self._configs)
        waiting, ends = _close(self._configs, permissive=True)
        return bool(waiting) or ends

    def can_end(self) -> bool:
        """Does the trace so far match the spec?"""
        return _close(self._configs)[1]

    def rejection(self) -> str:
        """The first rejected event, as ``event i (kind 0xaddr = 0xvalue)``."""
        kind, addr, value = self.bad_event
        return "event %d (%s 0x%x = 0x%x)" % (self.bad_index, kind, addr,
                                              value)

    def _step(self, event) -> List[Config]:
        after = {}
        for step, rest, env, key, fresh in _close(self._configs)[0]:
            new = step.fn(event, env)
            if new is None:
                continue
            if new is not env:
                key = frozenset(new.items())
            if fresh:
                rest = _settle(rest, fresh)
            after.setdefault((rest, key), (rest, new, key))
        return list(after.values())
