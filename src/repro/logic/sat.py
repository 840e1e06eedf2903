"""A CDCL SAT solver.

This is the decision engine at the bottom of the verification stack: the
bit-blaster (`repro.logic.bitblast`) reduces bitvector verification
conditions to CNF, and this solver decides them. It implements the standard
conflict-driven clause learning loop with two-watched-literal propagation,
first-UIP clause learning, VSIDS-style activity decision heuristics, and
Luby restarts.

Literal convention: variables are positive integers ``1..n``; a literal is
``+v`` or ``-v``. Clauses are lists of literals.

Search state lives in flat lists built when `Solver.solve` starts. Values
and watch lists are indexed by literal, in lists of length ``2n + 1``:
Python's negative indexing puts ``-v`` at ``2n + 1 - v``, so ``val[lit]``
and ``val[-lit]`` need no encoding step. Decision level, reason clause and
activity are indexed by variable. Decisions come from a binary heap of
``(-activity, var)`` entries, whose minimum is the highest-activity,
lowest-index unassigned variable. The differential tests
(`tests/test_sat_search.py`) pin the search to a dict-based reference
solver: same decisions, propagations, conflicts, restarts, learned
clauses and model.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional

SATISFIABLE = "sat"
UNSATISFIABLE = "unsat"


class Solver:
    """Incremental-construction CDCL solver (solve-once usage pattern)."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._unsat = False
        self._var_inc = 1.0
        # Search state, sized and filled by `solve`.
        self._val: List[Optional[bool]] = []
        self._watches: List[List[int]] = []
        self._level: List[int] = []
        self._reason: List[Optional[int]] = []
        self._activity: List[float] = []
        self._heap: List[tuple] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._prop_head = 0
        # Search statistics (read by repro.obs via the portfolio solver).
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned = 0

    # -- construction -------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        clause: List[int] = []
        n = self.num_vars
        for lit in lits:
            if lit == 0 or lit > n or -lit > n:
                raise ValueError("bad literal %d" % lit)
            if -lit in clause:
                return  # tautology
            if lit not in clause:
                clause.append(lit)
        if not clause:
            self._unsat = True
            return
        self.clauses.append(clause)

    # -- search state ---------------------------------------------------------

    def _init_search(self) -> bool:
        """Size the search state for ``num_vars``, watch the first two
        literals of every clause, and assert the unit clauses at level 0.
        False when the units contradict each other."""
        n = self.num_vars
        self._val = val = [None] * (2 * n + 1)
        self._watches = watches = [[] for _ in range(2 * n + 1)]
        self._level = [0] * (n + 1)
        self._reason = [None] * (n + 1)
        self._activity = [0.0] * (n + 1)
        self._heap = [(-0.0, v) for v in range(1, n + 1)]
        self._trail = []
        self._trail_lim = []
        self._prop_head = 0
        units = []
        for idx, clause in enumerate(self.clauses):
            if len(clause) == 1:
                units.append(clause[0])
                continue
            watches[-clause[0]].append(idx)
            watches[-clause[1]].append(idx)
        for lit in units:
            if val[lit] is False:
                return False
            if val[lit] is None:
                self._enqueue(lit, None)
        return True

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = lit if lit > 0 else -lit
        self._val[lit] = True
        self._val[-lit] = False
        self._reason[var] = reason
        self._level[var] = len(self._trail_lim)
        self._trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns the index of a conflicting clause."""
        val = self._val
        watches = self._watches
        clauses = self.clauses
        trail = self._trail
        reasons = self._reason
        levels = self._level
        level = len(self._trail_lim)
        # continue from trail position of earliest unpropagated literal
        head = start = self._prop_head
        while head < len(trail):
            lit = trail[head]
            head += 1
            watchers = watches[lit]
            if not watchers:
                continue
            false_lit = -lit
            new_watchers: List[int] = []
            keep = new_watchers.append
            for i, ci in enumerate(watchers):
                clause = clauses[ci]
                # Ensure the falsified literal is clause[1].
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if val[first] is True:
                    keep(ci)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if val[other] is not False:
                        clause[1], clause[k] = other, clause[1]
                        watches[-other].append(ci)
                        break
                else:
                    keep(ci)
                    if val[first] is False:
                        # Conflict: restore remaining watchers.
                        new_watchers.extend(watchers[i + 1:])
                        watches[lit] = new_watchers
                        self._prop_head = len(trail)
                        self.propagations += head - start
                        return ci
                    val[first] = True
                    val[-first] = False
                    var = first if first > 0 else -first
                    reasons[var] = ci
                    levels[var] = level
                    trail.append(first)
            watches[lit] = new_watchers
        self._prop_head = head
        self.propagations += head - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_heap()

    def _analyze(self, conflict_idx: int):
        """First-UIP learning. Returns (learned_clause, backtrack_level)."""
        levels = self._level
        trail = self._trail
        current_level = len(self._trail_lim)
        seen = set()
        learned = []
        counter = 0
        lits = self.clauses[conflict_idx]
        trail_pos = len(trail) - 1
        uip = None
        while True:
            for lit in lits:
                var = lit if lit > 0 else -lit
                if var in seen or levels[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if levels[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find next literal on the trail to resolve on.
            while trail_pos >= 0 and abs(trail[trail_pos]) not in seen:
                trail_pos -= 1
            if trail_pos < 0:
                raise AssertionError("conflict analysis lost track of the trail")
            uip_lit = trail[trail_pos]
            trail_pos -= 1
            seen.discard(abs(uip_lit))
            counter -= 1
            if counter == 0:
                uip = -uip_lit
                break
            reason_idx = self._reason[abs(uip_lit)]
            lits = [l for l in self.clauses[reason_idx] if l != uip_lit]
        learned = [uip] + learned
        if len(learned) == 1:
            return learned, 0
        # The second watch must be a literal at the backtrack level, so the
        # two-watched-literal invariant holds for the learned clause.
        best = max(range(1, len(learned)),
                   key=lambda i: levels[abs(learned[i])])
        learned[1], learned[best] = learned[best], learned[1]
        back_level = levels[abs(learned[1])]
        return learned, back_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        val = self._val
        activity = self._activity
        heap = self._heap
        limit = self._trail_lim[level]
        for lit in self._trail[limit:]:
            val[lit] = val[-lit] = None
            var = lit if lit > 0 else -lit
            heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._prop_head = min(self._prop_head, len(self._trail))
        if len(heap) > 2 * self.num_vars:
            self._rebuild_heap()

    # -- decisions -----------------------------------------------------------
    #
    # Every unassigned variable has a heap entry carrying its current
    # activity: activity changes only by bumping, which touches assigned
    # variables alone (they are re-pushed when unassigned), or by the
    # rescale, which rebuilds the heap. Entries of assigned variables are
    # dropped as they surface, and an older entry of a re-pushed variable
    # sorts after its newer one. So the first entry popped for an
    # unassigned variable is the highest-activity, lowest-index one.

    def _rebuild_heap(self) -> None:
        val = self._val
        activity = self._activity
        self._heap = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                      if val[v] is None]
        heapify(self._heap)

    def _decide(self) -> Optional[int]:
        heap = self._heap
        val = self._val
        while heap:
            var = heappop(heap)[1]
            if val[var] is None:
                return -var  # negative polarity first: helps typical VC shapes
        return None

    # -- main loop -----------------------------------------------------------

    def solve(self, max_conflicts: Optional[int] = None) -> str:
        if self._unsat:
            return UNSATISFIABLE
        if not self._init_search():
            return UNSATISFIABLE
        conflicts = 0
        luby_unit = 64
        restart_limit = luby_unit * _luby(1)
        restart_index = 1
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts += 1
                conflicts_since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    raise BudgetExceeded(conflicts)
                if not self._trail_lim:
                    return UNSATISFIABLE
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self.clauses.append(learned)
                self.learned += 1
                ci = len(self.clauses) - 1
                if len(learned) > 1:
                    for lit in learned[:2]:
                        self._watches[-lit].append(ci)
                self._enqueue(learned[0], ci if len(learned) > 1 else None)
                self._var_inc /= 0.95
                if conflicts_since_restart >= restart_limit:
                    self._backtrack(0)
                    restart_index += 1
                    self.restarts += 1
                    restart_limit = luby_unit * _luby(restart_index)
                    conflicts_since_restart = 0
            else:
                decision = self._decide()
                if decision is None:
                    return SATISFIABLE
                self._trail_lim.append(len(self._trail))
                self.decisions += 1
                self._enqueue(decision, None)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment (valid after ``solve() == "sat"``), in
        the order the variables were assigned."""
        return {(lit if lit > 0 else -lit): lit > 0 for lit in self._trail}


class BudgetExceeded(Exception):
    """Raised when the solver exceeds its conflict budget."""


def _luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…

    MiniSat's formulation: find the finite subsequence containing index i,
    then the position within it."""
    i -= 1  # to 0-indexed
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i = i % size
    return 1 << seq


def solve_cnf(num_vars: int, clauses: Iterable[Iterable[int]],
              max_conflicts: Optional[int] = None):
    """Convenience one-shot interface.

    Returns ``("sat", model)`` or ``("unsat", None)``.
    """
    solver = Solver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(max_conflicts=max_conflicts)
    if result == SATISFIABLE:
        model = solver.model()
        for v in range(1, num_vars + 1):
            model.setdefault(v, False)
        return result, model
    return result, None
