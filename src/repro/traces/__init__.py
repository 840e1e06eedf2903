"""Trace-predicate combinators: the specification language of paper §3.1."""

from .predicates import (
    Bind,
    Concat,
    Epsilon,
    Event,
    Exists,
    Guard,
    Never,
    RepeatN,
    Star,
    Step,
    Trace,
    TracePred,
    Union,
    capture,
    event,
    ld,
    seq,
    st,
    union,
    value_is,
    value_where,
)

__all__ = ["TracePred", "Epsilon", "Never", "Step", "Concat", "Union",
           "Star", "Exists", "Bind", "Guard", "RepeatN", "seq", "union", "event",
           "ld", "st", "value_is", "value_where", "capture", "Event", "Trace"]
