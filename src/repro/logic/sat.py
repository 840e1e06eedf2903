"""A CDCL SAT solver.

This is the decision engine at the bottom of the verification stack: the
bit-blaster (`repro.logic.bitblast`) reduces bitvector verification
conditions to CNF, and this solver decides them. It implements the standard
conflict-driven clause learning loop with two-watched-literal propagation,
first-UIP clause learning, VSIDS-style activity decision heuristics, and
Luby restarts.

It is incremental in MiniSat's style (Een and Sorensson, "An Extensible
SAT-solver", SAT 2003): variables and clauses may be added between
`Solver.solve` calls, and a call may pass *assumptions*, literals that
take the first decision levels and hold for that call only. Learned
clauses and variable activities carry over from one call to the next,
so a caller that asks many related questions (the program logic asks
one per obligation of a function) pays once for what they share.

Literal convention: variables are positive integers ``1..n``; a literal is
``+v`` or ``-v``. Clauses are lists of literals.

Search state lives in flat lists kept from one solve to the next. Values
and watch lists are indexed by literal, in lists of length ``2c + 1`` for
a capacity of ``c >= n`` variables: Python's negative indexing puts
``-v`` at ``2c + 1 - v``, so ``val[lit]`` and ``val[-lit]`` need no
encoding step. Decision level, reason clause and activity are indexed by
variable. The capacity at least doubles whenever new variables outgrow
it. Decisions come from a binary heap of ``(-activity, var)`` entries,
whose minimum is the highest-activity, lowest-index unassigned variable.
The differential tests (`tests/test_sat_search.py`) pin a fresh solver's
first solve to a dict-based reference solver (same decisions,
propagations, conflicts, restarts, learned clauses and model), and check
every later solve under assumptions against a fresh one-shot solve.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

SATISFIABLE = "sat"
UNSATISFIABLE = "unsat"


class Solver:
    """Incremental CDCL solver: add variables and clauses, `solve`
    (optionally under assumptions), add more, solve again."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._unsat = False
        self._var_inc = 1.0
        # Search state, kept from one `solve` to the next. ``_cap`` is the
        # number of variables the lists below have room for; ``_known``
        # variables and ``_attached`` clauses are already part of it.
        self._cap = 0
        self._known = 0
        self._attached = 0
        self._val: List[Optional[bool]] = [None]
        self._watches: List[List[int]] = [[]]
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._heap: List[tuple] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._prop_head = 0
        # Search statistics, cumulative over every solve (read by repro.obs
        # via the portfolio solver, as per-query deltas).
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

    def _grow(self) -> None:
        """Make room for ``num_vars`` variables, at least doubling the
        capacity. Positive literals keep their slots; the negative ones
        move with the end of the list."""
        old = self._cap
        cap = max(self.num_vars, 2 * old)
        pad = cap - old
        self._val = self._val[:old + 1] + [None] * (2 * pad) + self._val[old + 1:]
        self._watches = (self._watches[:old + 1]
                         + [[] for _ in range(2 * pad)]
                         + self._watches[old + 1:])
        self._level.extend([0] * pad)
        self._reason.extend([None] * pad)
        self._activity.extend([0.0] * pad)
        self._cap = cap

    def _attach(self) -> bool:
        """Bring the search state, backtracked to level 0, up to date with
        the variables and clauses added since the last solve: new variables
        join the decision heap, the first two literals of every new clause
        are watched, and new unit clauses are asserted at level 0. The whole
        level-0 trail is then propagated again, so a new clause whose
        watched literals level 0 already falsified is seen. False when a
        new unit contradicts level 0."""
        n = self.num_vars
        if n > self._cap:
            self._grow()
        # New variables have activity 0 and the highest indices, so their
        # entries sort after every existing one and extend the heap as is.
        self._heap.extend((-0.0, v) for v in range(self._known + 1, n + 1))
        self._known = n
        val = self._val
        watches = self._watches
        clauses = self.clauses
        units = []
        for idx in range(self._attached, len(clauses)):
            clause = clauses[idx]
            if len(clause) == 1:
                units.append(clause[0])
                continue
            watches[-clause[0]].append(idx)
            watches[-clause[1]].append(idx)
        self._attached = len(clauses)
        for lit in units:
            if val[lit] is False:
                return False
            if val[lit] is None:
                self._enqueue(lit, None)
        self._prop_head = 0
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
            for v in range(1, self._known + 1):
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
        if len(heap) > 2 * self._known:
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
        self._heap = [(-activity[v], v) for v in range(1, self._known + 1)
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

    def solve(self, max_conflicts: Optional[int] = None,
              assumptions: Sequence[int] = ()) -> str:
        """Decide the clauses added so far under ``assumptions``.

        The assumptions are decided first, one per decision level, and
        hold for this call only: "unsat" with assumptions says no model
        extends them, and later calls are unaffected. Only a conflict at
        level 0 leaves the solver unsat for good. ``max_conflicts`` bounds
        this call's conflicts; past it `BudgetExceeded` is raised, and
        the next call starts over from level 0 (keeping what was learned).
        """
        n = self.num_vars
        for lit in assumptions:
            if lit == 0 or lit > n or -lit > n:
                raise ValueError("bad literal %d" % lit)
        if self._unsat:
            return UNSATISFIABLE
        self._backtrack(0)
        if not self._attach():
            self._unsat = True
            return UNSATISFIABLE
        n_assumed = len(assumptions)
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
                    self._unsat = True
                    return UNSATISFIABLE
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self.clauses.append(learned)
                self.learned += 1
                ci = len(self.clauses) - 1
                self._attached = ci + 1
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
                continue
            level = len(self._trail_lim)
            if level < n_assumed:
                # Decision level ``i + 1`` belongs to assumption ``i``; one
                # that already holds gets an empty level.
                lit = assumptions[level]
                value = self._val[lit]
                if value is False:
                    return UNSATISFIABLE
                self._trail_lim.append(len(self._trail))
                if value is None:
                    self._enqueue(lit, None)
                continue
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
