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

The derivatives are cached in a lazily built automaton, one per spec
object, shared by every checker of that spec in the process (lazy DFA
construction, as in RE2: Cox, "Regular Expression Matching in the Wild").
A *state* is the deduplicated ``(continuation, env key)`` configurations
one event leaves, in the order the derivation makes them; an *edge*
``(state, event) -> state`` is filled the first time a checker takes it,
by the closure and `Step`s above, which are the only way a state is
derived. A checker in a state with an edge for its next event follows
the edge instead. The cache depends on step, `Bind` and `Guard` functions,
``count_fn`` and ``body_fn`` being pure. Three rules keep it a cache of
the configuration sets that recur, not a memo of every trace:

* admission: a derived state is retained only the second time it is
  derived. The first time, only its hash enters a filter, so traffic that
  never recurs (a frame of random bytes) leaves no states behind;
* bounds: the states, the edges and the admission filter are each capped
  (`MAX_STATES`, `MAX_EDGES`, `MAX_SEEN`) and cleared when full. A
  checker whose state was cleared derives its next state afresh;
* compact storage: a state is stored once, as two parallel tuples --
  the continuations and their env keys, which together are its identity
  -- and its environments are shared, one dict per env key.

A checker holds one state, and the automaton at most the caps' worth:
memory does not grow with the number of events checked.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Optional

from .. import obs
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

#: Caps on each spec's automaton. A table that reaches its cap is cleared,
#: as `repro.kami.decexec`'s decode memo is: a clear costs re-deriving,
#: never a verdict. Repeated four-node fleet runs retain about 400 states
#: of `good_hl_trace` and 330 of `good_lock_trace`, 3.6 KB each, and
#: an 8-seed adversarial sweep about 1,000.
MAX_STATES = 2048
MAX_EDGES = 8192
#: Hashes of states derived once, awaiting a second derivation.
MAX_SEEN = 16384

#: Flushed once per `OnlineChecker.feed`: events fed, edges followed,
#: states derived, states retained, clears of a full table, and the most
#: configurations a state of the feed held.
_EVENTS = obs.counter("traces.events_consumed")
_HITS = obs.counter("traces.edge_hits")
_MISSES = obs.counter("traces.edge_misses")
_ADMITTED = obs.counter("traces.states_admitted")
_CLEARS = obs.counter("traces.automaton_clears")
_PEAK = obs.histogram("traces.peak_configs")


class _Again:
    """Continuation frame: end of an iteration of ``star`` begun since the
    last event."""

    __slots__ = ("star",)

    def __init__(self, star: Star):
        self.star = star


def _close(conts: tuple, keys: tuple, envs: tuple,
           permissive: bool = False):
    """Expand the configurations -- the continuations ``conts``, with
    their env keys ``keys`` and environments ``envs`` -- until a `Step`
    heads each one. Returns the `Step`-headed configurations as ``(step, rest,
    env, key, fresh)``, where ``fresh`` counts the `_Again` frames in
    ``rest``, and whether some configuration reached the end of the spec.
    With ``permissive``, reaching a `Bind` counts as reaching the end,
    unevaluated."""
    waiting = []
    ends = False
    seen = {}
    stack = [(cont, env, key, 0) for cont, key, env in zip(conts, keys, envs)]
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


def _step(state: _State, event: Event) -> Dict[tuple, Env]:
    """The configurations after ``event``, deduplicated: ``(rest, key)``
    -> env. No `_Again` frame is left in them."""
    after = {}
    for step, rest, env, key, fresh in _close(state.conts, state.keys,
                                              state.envs)[0]:
        new = step.fn(event, env)
        if new is None:
            continue
        if new is not env:
            key = frozenset(new.items())
        if fresh:
            rest = _settle(rest, fresh)
        after.setdefault((rest, key), new)
    return after


#: The edges of a state outside its automaton's tables; never written.
_NO_EDGES = MappingProxyType({})


class _State:
    """A set of configurations: the continuations ``conts``, their env
    keys ``keys`` and environments ``envs``, in the same order. A
    retained state's ``edges`` maps an event to the state it leads to; any
    other state has `_NO_EDGES`."""

    __slots__ = ("conts", "keys", "envs", "edges")

    def __init__(self, conts: tuple, keys: tuple, envs: tuple,
                 edges) -> None:
        self.conts = conts
        self.keys = keys
        self.envs = envs
        self.edges = edges


class _Automaton:
    """The states and edges derived so far for one spec. The retained
    states are kept by the hash of their configurations, computed once
    per derivation; the admission filter holds the same hashes."""

    def __init__(self, spec: TracePred) -> None:
        #: Every checker starts here; it is retained outside the table.
        self.start = _State(((spec, None),), (frozenset(),), ({},), {})
        self.states: Dict[int, _State] = {}
        self.seen = set()
        #: States retained and full tables cleared, since it was built.
        self.admitted = self.clears = 0
        self._clear()

    def _clear(self) -> None:
        for state in self.states.values():
            state.edges = _NO_EDGES
        self.states = {}
        self.envs: Dict[FrozenSet, Env] = {}
        self.edge_count = 0
        self.start.edges = {}

    def _admit(self, fingerprint: int, conts: tuple, keys: tuple,
               envs: Iterable[Env]) -> _State:
        if len(self.states) >= MAX_STATES:
            self.clears += 1
            self._clear()
        interned = self.envs
        envs = tuple(interned.setdefault(key, env)
                     for key, env in zip(keys, envs))
        state = self.states[fingerprint] = _State(conts, keys, envs, {})
        self.admitted += 1
        return state

    def derive(self, state: _State, event: Event) -> _State:
        """The state ``event`` leads to from ``state``, derived; the edge
        is filled when both states are retained."""
        after = _step(state, event)
        conts, keys = zip(*after) if after else ((), ())
        fingerprint = hash((conts, keys))
        target = self.states.get(fingerprint)
        if target is None or target.conts != conts or target.keys != keys:
            if fingerprint not in self.seen:
                if len(self.seen) >= MAX_SEEN:
                    self.seen.clear()
                self.seen.add(fingerprint)
                return _State(conts, keys, tuple(after.values()), _NO_EDGES)
            if target is not None:
                # Other configurations with the same hash: the new state
                # takes the old one's place, which leaves the tables.
                target.edges = _NO_EDGES
            target = self._admit(fingerprint, conts, keys, after.values())
        edges = state.edges
        if edges is not _NO_EDGES:
            if self.edge_count >= MAX_EDGES:
                self.clears += 1
                self._clear()
            else:
                edges[event] = target
                self.edge_count += 1
        return target


def _automaton(spec: TracePred) -> _Automaton:
    """``spec``'s automaton, built on first use."""
    automaton = spec.__dict__.get("_automaton")
    if automaton is None:
        automaton = spec._automaton = _Automaton(spec)
    return automaton


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
        self._automaton = _automaton(spec)
        self._state = self._automaton.start

    def check(self, trace: Trace) -> bool:
        """Equivalent to ``spec.prefix_of(trace)``; the cost is
        proportional to the events added since the previous call."""
        if len(trace) < self.consumed:
            raise ValueError("trace shrank: OnlineChecker requires a "
                             "monotonically growing trace")
        return self.feed(trace[self.consumed:])

    def feed(self, events: Trace) -> bool:
        """Consume ``events``; is the trace so far a prefix of the spec?"""
        automaton = self._automaton
        admitted, clears = automaton.admitted, automaton.clears
        state = self._state
        peak = len(state.conts)
        hits = misses = 0
        if peak:
            derive = automaton.derive
            for event in events:
                target = state.edges.get(event)
                if target is None:
                    target = derive(state, event)
                    misses += 1
                else:
                    hits += 1
                state = target
                size = len(state.conts)
                if size > peak:
                    peak = size
                elif not size:
                    self.bad_index = self.consumed + hits + misses - 1
                    self.bad_event = event
                    break
            self._state = state
        self.consumed += len(events)
        _EVENTS.inc(len(events))
        _HITS.inc(hits)
        _MISSES.inc(misses)
        _ADMITTED.inc(automaton.admitted - admitted)
        _CLEARS.inc(automaton.clears - clears)
        _PEAK.record(peak)
        if self.consumed:
            return bool(state.conts)
        waiting, ends = _close(state.conts, state.keys, state.envs,
                               permissive=True)
        return bool(waiting) or ends

    def can_end(self) -> bool:
        """Does the trace so far match the spec?"""
        state = self._state
        return _close(state.conts, state.keys, state.envs)[1]

    def rejection(self) -> str:
        """The first rejected event, as ``event i (kind 0xaddr = 0xvalue)``."""
        kind, addr, value = self.bad_event
        return "event %d (%s 0x%x = 0x%x)" % (self.bad_index, kind, addr,
                                              value)
