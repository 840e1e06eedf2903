"""Trace predicates: the specification language of paper section 3.1.

Specifications are sets of legal I/O traces, written like regular
expressions over MMIO events -- ``+++`` (concatenation), ``|||`` (union),
``^*`` (Kleene star), and ``EX x:T, P`` (existential) -- but, as in the
paper, they are ordinary functions over traces, so arbitrary guards over
captured values are allowed.

A trace is a list of ``("ld"/"st", addr, value)`` triples. Every predicate
supports:

* ``matches(trace)``   -- trace ∈ P;
* ``prefix_of(trace)`` -- ∃ extension e, trace ++ e ∈ P. This is the
  relation in the paper's end-to-end theorem (``prefix_of t'
  goodHlTrace``): the theorem holds at *any* moment of execution, so the
  observed trace need only be extendable to a legal one.

The classes here are syntax only. Matching is done by one engine,
`repro.traces.online.OnlineChecker`, which consumes a trace one event at
a time; both relations above feed it the whole trace. Environments let
multi-event transactions capture values (e.g. the bytes of a received
packet) and guard on them -- the expressiveness the paper gets from
higher-order logic.

The functions a predicate holds -- a `Step`'s, a `Bind`'s or `Guard`'s,
`RepeatN`'s ``count_fn`` and ``body_fn``, `Exists`'s ``body`` -- must be
pure: the result a function of the arguments alone, and the environment
passed in never mutated (return a new dict instead). The engine caches
what they return in an automaton shared by every check of the same spec
object, so an impure function would make one check's verdict depend on
another's.

The Python operators ``+`` (concat), ``|`` (union) and ``.star()`` mirror
the paper's notation.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Event = Tuple[str, int, int]
Trace = List[Event]
Env = Dict[str, int]


class TracePred:
    """Base class: a set of traces (with value capture)."""

    # -- public API -------------------------------------------------------------

    def matches(self, trace: Trace) -> bool:
        from .online import OnlineChecker

        checker = OnlineChecker(self)
        checker.feed(trace)
        return checker.can_end()

    def prefix_of(self, trace: Trace) -> bool:
        """The end-to-end theorem's relation: the trace so far is consistent
        with the specification (some completion exists)."""
        from .online import OnlineChecker

        return OnlineChecker(self).feed(trace)

    # -- combinator sugar ---------------------------------------------------------

    def __add__(self, other: "TracePred") -> "TracePred":
        return Concat(self, other)

    def __or__(self, other: "TracePred") -> "TracePred":
        return Union(self, other)

    def star(self) -> "TracePred":
        return Star(self)


class Epsilon(TracePred):
    """The empty trace."""


class Never(TracePred):
    """The empty set of traces."""


class Step(TracePred):
    """One event, matched by ``fn(event, env) -> Optional[Env]`` (None =
    no match; otherwise the possibly-extended environment)."""

    def __init__(self, fn: Callable[[Event, Env], Optional[Env]],
                 describe: str = "step"):
        self.fn = fn
        self.describe = describe


class Concat(TracePred):
    """The paper's ``+++``."""

    def __init__(self, first: TracePred, second: TracePred):
        self.first = first
        self.second = second


class Union(TracePred):
    """The paper's ``|||``."""

    def __init__(self, *arms: TracePred):
        self.arms = arms


class Star(TracePred):
    """The paper's ``^*``. Every iteration consumes at least one event."""

    def __init__(self, body: TracePred):
        self.body = body


class Exists(TracePred):
    """The paper's ``EX x:T, P``: union over a finite domain, with the
    witness bound in the environment. ``body(v)`` is built once per
    witness."""

    def __init__(self, name: str, domain: Iterable[int],
                 body: Callable[[int], TracePred]):
        self.name = name
        self.domain = list(domain)
        self.body = functools.lru_cache(maxsize=None)(body)


class Bind(TracePred):
    """The empty trace, rebinding the environment to ``fn(env)``; a None
    result rejects. Used to assemble and check values captured earlier."""

    def __init__(self, fn: Callable[[Env], Optional[Env]],
                 describe: str = "bind"):
        self.fn = fn
        self.describe = describe


class Guard(Bind):
    """The boolean case of `Bind`: the empty trace, accepted only when
    ``pred(env)`` holds -- used to state constraints over values captured
    earlier."""

    def __init__(self, pred: Callable[[Env], bool], describe: str = "guard"):
        super().__init__(lambda env: env if pred(env) else None, describe)


class RepeatN(TracePred):
    """Data-dependent repetition: ``body_fn(i)`` matched ``count_fn(env)``
    times. Used for "read ceil(len/4) FIFO words" where the count was
    captured from an earlier status event. ``body_fn(i)`` is built once
    per index."""

    def __init__(self, count_fn: Callable[[Env], int],
                 body_fn: Callable[[int], TracePred]):
        self.count_fn = count_fn
        self.body_fn = functools.lru_cache(maxsize=None)(body_fn)


def seq(*parts: TracePred) -> TracePred:
    result: TracePred = Epsilon()
    for part in parts:
        result = result + part if not isinstance(result, Epsilon) else part
    return result


def union(*parts: TracePred) -> TracePred:
    return Union(*parts)


# -- event-pattern helpers -------------------------------------------------------

def event(kind: str, addr: int,
          value_fn: Optional[Callable[[int, Env], Optional[Env]]] = None,
          describe: str = "") -> Step:
    """An event at a fixed address. ``value_fn(value, env)`` may inspect
    and capture the value; default accepts anything."""

    def fn(ev: Event, env: Env) -> Optional[Env]:
        k, a, v = ev
        if k != kind or a != addr:
            return None
        if value_fn is None:
            return env
        return value_fn(v, env)

    return Step(fn, describe or "%s@0x%x" % (kind, addr))


def ld(addr: int, value_fn=None, describe: str = "") -> Step:
    return event("ld", addr, value_fn, describe)


def st(addr: int, value_fn=None, describe: str = "") -> Step:
    return event("st", addr, value_fn, describe)


def value_is(expected: int):
    def fn(v: int, env: Env) -> Optional[Env]:
        return env if v == expected else None
    return fn


def value_where(pred: Callable[[int], bool]):
    def fn(v: int, env: Env) -> Optional[Env]:
        return env if pred(v) else None
    return fn


def capture(name: str, pred: Optional[Callable[[int], bool]] = None):
    def fn(v: int, env: Env) -> Optional[Env]:
        if pred is not None and not pred(v):
            return None
        new = dict(env)
        new[name] = v
        return new
    return fn
