"""Content-addressed proof cache for verification conditions.

The paper's Coq development re-checks every proof on every build; our
program logic is modular ("re-verifying one function never revisits the
others"), so a VC whose formula is unchanged since the last run need not
be decided again. This module gives each verification condition a stable
content address and persists decided results on disk, so that
``python -m repro verify --cache .repro-cache`` skips the solver for
every obligation of every unmodified function.

**Fingerprinting.** A VC is the formula ``hypotheses /\\ ~goal`` (already
hash-consed as a DAG by `repro.logic.terms`). `fingerprint` serializes the
DAG in a deterministic postorder with node sharing, alpha-renaming
variables to ``v0, v1, ...`` in order of first occurrence, and returns the
SHA-256 of the serialization plus the renaming. Alpha-renaming makes the
key independent of the fresh-name counters of a particular run, so the
same function verified in a different order (or a different process)
still hits. Validity is invariant under renaming, so reusing the cached
verdict is sound.

**Store.** A directory holding ``proofs.jsonl``: a format-version header
line followed by one JSON object per decided VC (``{"k": digest,
"valid": bool, "model": {...}}``; countermodels are stored under the
canonical variable names). Corrupt or poisoned data is *detected and
ignored*, never trusted:

* a missing/invalid header discards the whole file (``cache.corrupt``);
* malformed or incomplete lines are skipped individually;
* cached *invalid* verdicts are re-validated on every hit -- the solver
  layer evaluates the stored countermodel against the actual formula and
  calls `ProofCache.poison` when it does not falsify it, dropping the
  entry and falling back to the solver. (Cached *valid* verdicts are
  trusted by digest, exactly like Coq trusting a compiled ``.vo``.)

Observability (see docs/observability.md): ``cache.hits``,
``cache.misses``, ``cache.stores``, ``cache.corrupt``,
``cache.poisoned``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from . import terms as T
from .. import obs

#: Bump to invalidate every existing cache (serialization format change).
FORMAT_VERSION = 1

_HEADER = {"format": "repro-proof-cache", "version": FORMAT_VERSION}

HITS = obs.counter("cache.hits")
MISSES = obs.counter("cache.misses")
STORES = obs.counter("cache.stores")
CORRUPT = obs.counter("cache.corrupt")
POISONED = obs.counter("cache.poisoned")


# ---------------------------------------------------------------------------
# Canonicalization


def _blind_key(node: T.Term) -> int:
    return node._blind


def _postorder(term: T.Term) -> List[Tuple[T.Term, Tuple[T.Term, ...]]]:
    """Deterministic postorder of the term DAG (children before parents,
    each shared node exactly once), each node with its operands in the
    order they are visited and serialized: a `terms.NAME_ORDERED`
    operator's sorted by their name-blind hash (`terms.Term` computes it
    when it interns a node), so the order is stable under alpha-renaming.
    (Ties -- e.g. ``eq(x, y)`` of two bare variables -- keep the interned
    order; alpha-equivalent formulas can then get distinct digests, which
    costs a spurious cache miss but never an unsound hit.)"""
    post: List[Tuple[T.Term, Tuple[T.Term, ...]]] = []
    seen = set()
    stack: List[Tuple[T.Term, Optional[Tuple[T.Term, ...]]]] = [(term, None)]
    while stack:
        node, args = stack.pop()
        if args is not None:
            post.append((node, args))
            continue
        if node in seen:
            continue
        seen.add(node)
        args = node.args
        if node.op in T.NAME_ORDERED:
            args = tuple(sorted(args, key=_blind_key))
        stack.append((node, args))
        for arg in reversed(args):
            if arg not in seen:
                stack.append((arg, None))
    return post


def fingerprint(term: T.Term) -> Tuple[str, Dict[str, str]]:
    """The content address of a formula.

    Returns ``(digest, varmap)`` where ``digest`` is a SHA-256 hex string
    over the alpha-renamed DAG serialization and ``varmap`` maps each
    original variable name to its canonical name (``v0``, ``v1``, ... in
    first-occurrence order of the deterministic traversal).
    """
    ids: Dict[T.Term, int] = {}
    varmap: Dict[str, str] = {}
    lines = ["repro-vc-v%d" % FORMAT_VERSION]
    for index, (node, args) in enumerate(_postorder(term)):
        ids[node] = index
        attr = node.attr
        if node.op == "var":
            canon = varmap.get(attr)
            if canon is None:
                canon = "v%d" % len(varmap)
                varmap[attr] = canon
            attr = canon
        lines.append("%s|%r|%r|%s" % (
            node.op, attr, node.sort,
            ",".join(str(ids[a]) for a in args)))
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest(), varmap


# ---------------------------------------------------------------------------
# The store


class CacheEntry:
    """One decided VC: the verdict, plus (for invalid VCs) a countermodel
    keyed by canonical variable names."""

    __slots__ = ("valid", "model")

    def __init__(self, valid: bool, model: Optional[Dict[str, int]] = None):
        self.valid = valid
        self.model = model

    def to_json(self, digest: str) -> str:
        record = {"k": digest, "valid": self.valid}
        if self.model is not None:
            record["model"] = self.model
        return json.dumps(record, sort_keys=True)

    def __repr__(self) -> str:
        return "CacheEntry(valid=%r, model=%r)" % (self.valid, self.model)


def _parse_entry(line: str) -> Optional[Tuple[str, CacheEntry]]:
    """Parse one JSONL record; None for anything malformed (poisoned files
    must never crash -- or corrupt -- a verification run)."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    digest = record.get("k")
    valid = record.get("valid")
    model = record.get("model")
    if not isinstance(digest, str) or len(digest) != 64:
        return None
    if not isinstance(valid, bool):
        return None
    if model is not None:
        if not isinstance(model, dict):
            return None
        for name, value in model.items():
            if not isinstance(name, str) or not isinstance(value, (bool, int)):
                return None
    if valid is False and model is None:
        return None  # an invalid verdict is useless without its model
    return digest, CacheEntry(valid, model)


class ProofCache:
    """A content-addressed store of decided verification conditions.

    ``directory=None`` keeps the cache purely in memory (used by
    dispatcher workers, which report new entries back to the parent
    instead of writing the shared file themselves).
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._entries: Dict[str, CacheEntry] = {}
        self._fresh: Dict[str, CacheEntry] = {}
        self._writer = None
        self._rewrite = False
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._load(self.path)

    @property
    def path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, "proofs.jsonl")

    def __len__(self) -> int:
        return len(self._entries)

    # -- persistence ---------------------------------------------------------

    def _load(self, path: str) -> None:
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            header_line = handle.readline()
            try:
                header = json.loads(header_line)
            except ValueError:
                header = None
            if header != _HEADER:
                # Unknown or corrupt format: ignore the whole file and
                # start it over on the first store.
                CORRUPT.inc()
                self._rewrite = True
                return
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                parsed = _parse_entry(line)
                if parsed is None:
                    CORRUPT.inc()
                    continue
                digest, entry = parsed
                self._entries[digest] = entry

    def _open_writer(self):
        if self._writer is None and self.path is not None:
            mode = "w" if self._rewrite else "a"
            needs_header = self._rewrite or not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0
            self._writer = open(self.path, mode, encoding="utf-8")
            self._rewrite = False
            if needs_header:
                self._writer.write(json.dumps(_HEADER, sort_keys=True) + "\n")
        return self._writer

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "ProofCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- lookup / store ------------------------------------------------------

    def lookup(self, digest: str) -> Optional[CacheEntry]:
        return self._entries.get(digest)

    def store(self, digest: str, valid: bool,
              model: Optional[Dict[str, int]] = None) -> None:
        """Record a decided VC and append it to the on-disk store."""
        if digest in self._entries:
            return
        entry = CacheEntry(valid, model)
        self._entries[digest] = entry
        self._fresh[digest] = entry
        STORES.inc()
        writer = self._open_writer()
        if writer is not None:
            writer.write(entry.to_json(digest) + "\n")
            writer.flush()

    def poison(self, digest: str) -> None:
        """Drop an entry whose cached countermodel failed re-validation."""
        self._entries.pop(digest, None)
        self._fresh.pop(digest, None)
        POISONED.inc()

    # -- merging (parallel workers -> parent) --------------------------------

    def fresh_entries(self) -> List[Tuple[str, bool, Optional[Dict[str, int]]]]:
        """Entries added since construction, as picklable tuples -- what a
        dispatcher worker sends back to the parent."""
        return [(digest, entry.valid, entry.model)
                for digest, entry in self._fresh.items()]

    def seed_entries(self) -> List[Tuple[str, bool, Optional[Dict[str, int]]]]:
        """Every entry, as picklable tuples -- what the parent ships to
        workers so they start warm."""
        return [(digest, entry.valid, entry.model)
                for digest, entry in self._entries.items()]

    def absorb(self, entries: Iterable[Tuple[str, bool,
                                             Optional[Dict[str, int]]]]) -> None:
        """Merge entries from a worker (deterministic: callers iterate
        workers in task-submission order)."""
        for digest, valid, model in entries:
            if digest not in self._entries:
                self.store(digest, valid, model)

    @classmethod
    def from_entries(cls, entries: Iterable[Tuple[str, bool,
                                                  Optional[Dict[str, int]]]]
                     ) -> "ProofCache":
        """An in-memory cache pre-seeded with ``entries`` (worker side).

        Seeded entries do not count as fresh, so `fresh_entries` reports
        exactly the worker's own additions.
        """
        cache = cls(directory=None)
        for digest, valid, model in entries:
            cache._entries[digest] = CacheEntry(valid, model)
        return cache
