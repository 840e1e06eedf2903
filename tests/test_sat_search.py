"""The CDCL kernel against the dict-based solver it replaced, and its
incremental solves against one-shot ones.

`ReferenceSolver` is the solver `repro.logic.sat` shipped before its
search state moved to flat, literal-indexed lists and a decision heap.
It is kept here, unedited but for its name and imports, as the
reference: the first solve of a fresh array-backed `sat.Solver` must
make exactly the same decisions, propagations, conflicts, restarts and
learned clauses, and return the same model.

Later solves are incremental: variables and clauses arrive between
them, each may pass assumptions, and learned clauses and activities
carry over. Their verdicts are checked against a fresh one-shot solve
with the assumptions as unit clauses, and their models against every
clause and assumption.

The shipped verification conditions never reach the activity rescale:
activities carry over between the solves of one function's solver, and
the busiest one (``lan9250_drain``'s) reaches 211 conflicts over all its
solves, while the rescale needs about 4,400 from the initial increment.
So one test starts both solvers at ``_var_inc = 1e99`` to run the
rescale and the heap rebuild within a second.
"""

import random
from typing import Dict, Iterable, List, Optional

import pytest

from repro.logic import sat
from repro.logic.sat import BudgetExceeded, SATISFIABLE, UNSATISFIABLE, _luby


class ReferenceSolver:
    """Incremental-construction CDCL solver (solve-once usage pattern)."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._assign: Dict[int, bool] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._reason: Dict[int, Optional[int]] = {}
        self._level: Dict[int, int] = {}
        self._activity: Dict[int, float] = {}
        self._var_inc = 1.0
        self._unsat = False
        # Search statistics (read by repro.obs via the portfolio solver).
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned = 0

    # -- construction -------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self._activity[v] = 0.0
        return v

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = []
        seen = set()
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError("bad literal %d" % lit)
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._unsat = True
            return
        self.clauses.append(clause)

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        val = self._assign.get(abs(lit))
        if val is None:
            return None
        return val if lit > 0 else not val

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self._assign[var] = lit > 0
        self._reason[var] = reason
        self._level[var] = len(self._trail_lim)
        self._trail.append(lit)

    def _init_watches(self) -> bool:
        self._watches = {}
        units = []
        for idx, clause in enumerate(self.clauses):
            if len(clause) == 1:
                units.append(clause[0])
                continue
            for lit in clause[:2]:
                self._watches.setdefault(-lit, []).append(idx)
        for lit in units:
            val = self._value(lit)
            if val is False:
                return False
            if val is None:
                self._enqueue(lit, None)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns the index of a conflicting clause."""
        # continue from trail position of earliest unpropagated literal
        head = start = self._prop_head
        while head < len(self._trail):
            lit = self._trail[head]
            head += 1
            watchers = self._watches.get(lit)
            if not watchers:
                continue
            new_watchers = []
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                i += 1
                clause = self.clauses[ci]
                # Ensure the falsified literal is clause[1].
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    new_watchers.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(-clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_watchers.append(ci)
                if self._value(first) is False:
                    # Conflict: restore remaining watchers.
                    new_watchers.extend(watchers[i:])
                    self._watches[lit] = new_watchers
                    self._prop_head = len(self._trail)
                    self.propagations += head - start
                    return ci
                self._enqueue(first, ci)
            self._watches[lit] = new_watchers
        self._prop_head = head
        self.propagations += head - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] = self._activity.get(var, 0.0) + self._var_inc
        if self._activity[var] > 1e100:
            for v in self._activity:
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict_idx: int):
        """First-UIP learning. Returns (learned_clause, backtrack_level)."""
        current_level = len(self._trail_lim)
        seen = set()
        learned = []
        counter = 0
        lits = list(self.clauses[conflict_idx])
        trail_pos = len(self._trail) - 1
        uip = None
        while True:
            for lit in lits:
                var = abs(lit)
                if var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find next literal on the trail to resolve on.
            while trail_pos >= 0 and abs(self._trail[trail_pos]) not in seen:
                trail_pos -= 1
            if trail_pos < 0:
                raise AssertionError("conflict analysis lost track of the trail")
            uip_lit = self._trail[trail_pos]
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
                   key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[best] = learned[best], learned[1]
        back_level = self._level[abs(learned[1])]
        return learned, back_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in self._trail[limit:]:
            var = abs(lit)
            del self._assign[var]
            self._reason.pop(var, None)
            self._level.pop(var, None)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._prop_head = min(self._prop_head, len(self._trail))

    def _decide(self) -> Optional[int]:
        best_var = None
        best_act = -1.0
        for v in range(1, self.num_vars + 1):
            if v not in self._assign:
                act = self._activity.get(v, 0.0)
                if act > best_act:
                    best_act = act
                    best_var = v
        if best_var is None:
            return None
        return -best_var  # negative polarity first: helps typical VC shapes

    # -- main loop -----------------------------------------------------------

    def solve(self, max_conflicts: Optional[int] = None) -> str:
        if self._unsat:
            return UNSATISFIABLE
        self._prop_head = 0
        if not self._init_watches():
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
                        self._watches.setdefault(-lit, []).append(ci)
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
        """The satisfying assignment (valid after ``solve() == "sat"``)."""
        return dict(self._assign)


# -- the differential harness ------------------------------------------------


def _load(solver_cls, num_vars: int, clauses: List[List[int]]):
    solver = solver_cls()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def _run(solver, max_conflicts: Optional[int]) -> tuple:
    """Everything the search decides: verdict (or the conflict count a
    budget stopped it at), effort counters, the clause database with its
    watch-order swaps and learned clauses, the model, and the final
    activity increment."""
    try:
        outcome = solver.solve(max_conflicts=max_conflicts)
    except BudgetExceeded as exc:
        outcome = ("budget", exc.args[0])
    model = solver.model()
    return (outcome, solver.decisions, solver.propagations, solver.conflicts,
            solver.restarts, solver.learned, solver.clauses,
            list(model.items()), solver._var_inc)


def _assert_same_search(num_vars: int, clauses: List[List[int]],
                        max_conflicts: Optional[int] = None,
                        var_inc: float = 1.0) -> tuple:
    runs = []
    for solver_cls in (ReferenceSolver, sat.Solver):
        solver = _load(solver_cls, num_vars, [list(c) for c in clauses])
        solver._var_inc = var_inc
        runs.append(_run(solver, max_conflicts))
    reference, array_backed = runs
    assert array_backed == reference
    return reference


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int,
                width: int = 3) -> List[List[int]]:
    return [[rng.choice((-1, 1)) * rng.randint(1, num_vars)
             for _ in range(width)]
            for _ in range(num_clauses)]


def _pigeonhole(pigeons: int, holes: int) -> tuple:
    def v(i, h):
        return i * holes + h + 1
    clauses = [[v(i, h) for h in range(holes)] for i in range(pigeons)]
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                clauses.append([-v(i, h), -v(j, h)])
    return pigeons * holes, clauses


def test_same_search_on_seeded_random_cnfs():
    # Random 3-SAT around the satisfiability threshold (about 4.26
    # clauses per variable): both verdicts, and real conflict analysis.
    rng = random.Random(2024)
    outcomes = {SATISFIABLE: 0, UNSATISFIABLE: 0}
    conflicts = 0
    for _ in range(300):
        num_vars = rng.randint(10, 40)
        clauses = _random_cnf(rng, num_vars,
                              int(num_vars * rng.uniform(3.8, 4.8)))
        outcome, _, _, n_conflicts, *_ = _assert_same_search(num_vars, clauses)
        outcomes[outcome] += 1
        conflicts += n_conflicts
    assert outcomes[SATISFIABLE] > 50 and outcomes[UNSATISFIABLE] > 50
    assert conflicts > 1000


def test_same_search_with_restarts():
    # PHP(6,5) needs several hundred conflicts, so Luby restarts (every
    # 64 * luby(i) conflicts) and backtracks to level 0 run.
    num_vars, clauses = _pigeonhole(6, 5)
    outcome, _, _, conflicts, restarts, *_ = _assert_same_search(
        num_vars, clauses)
    assert outcome == UNSATISFIABLE
    assert restarts >= 2 and conflicts > 64 * (_luby(1) + _luby(2))


def test_budget_exceeded_at_the_same_conflict():
    num_vars, clauses = _pigeonhole(7, 6)
    outcome, *_ = _assert_same_search(num_vars, clauses, max_conflicts=150)
    assert outcome == ("budget", 151)


def test_same_search_through_the_activity_rescale():
    # Starting at an increment of 1e99, a variable bumped about ten times
    # crosses the 1e100 threshold, so activities are rescaled (and the
    # decision heap rebuilt) within an instance's first few dozen
    # conflicts.
    rng = random.Random(7)
    rescaled = 0
    for _ in range(100):
        num_vars = rng.randint(30, 60)
        run = _assert_same_search(
            num_vars, _random_cnf(rng, num_vars, int(num_vars * 4.26)),
            var_inc=1e99)
        rescaled += run[-1] < 1e99  # a rescale multiplies it by 1e-100
    assert rescaled >= 50


def test_decision_heap_stays_bounded():
    # Variables are re-pushed on every backtrack; past 2n entries the heap
    # is rebuilt from the unassigned variables instead of growing.
    num_vars, clauses = _pigeonhole(6, 5)
    solver = _load(sat.Solver, num_vars, clauses)
    sizes = []
    rebuilds = []
    backtrack, rebuild = solver._backtrack, solver._rebuild_heap

    def tracked_backtrack(level):
        backtrack(level)
        sizes.append(len(solver._heap))

    def tracked_rebuild():
        rebuild()
        rebuilds.append(len(solver._heap))

    solver._backtrack = tracked_backtrack
    solver._rebuild_heap = tracked_rebuild
    assert solver.solve() == UNSATISFIABLE
    assert rebuilds, "the bound never triggered"
    assert max(sizes) <= 2 * num_vars


def test_trivial_instances_match():
    for num_vars, clauses in ((0, []), (1, []), (1, [[1]]), (1, [[1], [-1]]),
                              (2, [[1, -1], [2]]), (3, [[1, 1, 2], [-2]])):
        _assert_same_search(num_vars, clauses)
    assert sat.solve_cnf(1, [[]])[0] == UNSATISFIABLE
    with pytest.raises(ValueError):
        sat.Solver().add_clause([1])


# -- incremental solving under assumptions -----------------------------------


def _satisfies(model: Dict[int, bool], clauses: List[List[int]]) -> bool:
    return all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses)


def test_incremental_solves_match_one_shot_solves():
    # One solver per seed takes new variables and clauses between
    # solves, each solve under random assumptions and sometimes a tiny
    # conflict budget. Every verdict must equal a fresh solver's on the
    # clauses so far plus the assumptions as units.
    outcomes = {SATISFIABLE: 0, UNSATISFIABLE: 0}
    failed_assumptions = budget_stops = 0
    for seed in range(400):
        rng = random.Random(seed)
        solver = sat.Solver()
        clauses: List[List[int]] = []
        num_vars = 0
        for _ in range(rng.randint(3, 7)):
            for _ in range(rng.randint(0, 12)):
                solver.new_var()
                num_vars += 1
            if num_vars == 0:
                continue
            target = int(num_vars * rng.uniform(2.0, 4.0))
            batch = _random_cnf(rng, num_vars, max(0, target - len(clauses)))
            for clause in batch:
                solver.add_clause(clause)
            clauses.extend(batch)
            assumptions = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 4))]
            budget = rng.choice((None, None, None, 1, 3))
            try:
                outcome = solver.solve(max_conflicts=budget,
                                       assumptions=assumptions)
            except BudgetExceeded:
                budget_stops += 1
                continue
            expected, _ = sat.solve_cnf(
                num_vars, clauses + [[lit] for lit in assumptions])
            assert outcome == expected, (seed, assumptions)
            outcomes[outcome] += 1
            if outcome == SATISFIABLE:
                model = solver.model()
                assert _satisfies(model, clauses), seed
                assert all(model[abs(lit)] == (lit > 0)
                           for lit in assumptions), seed
            elif sat.solve_cnf(num_vars, clauses)[0] == SATISFIABLE:
                failed_assumptions += 1
    assert outcomes[SATISFIABLE] > 500 and outcomes[UNSATISFIABLE] > 500
    assert failed_assumptions > 200 and budget_stops > 50


def test_failed_assumption_leaves_the_solver_usable():
    solver = _load(sat.Solver, 3, [[1, 2], [-1, 3]])
    assert solver.solve(assumptions=[1, -3]) == UNSATISFIABLE
    assert solver.solve(assumptions=[-2]) == SATISFIABLE
    model = solver.model()
    assert model[1] and model[3] and not model[2]
    # A level-0 contradiction, by contrast, is final.
    solver.add_clause([-1])
    solver.add_clause([-2])
    assert solver.solve() == UNSATISFIABLE
    solver.new_var()
    solver.add_clause([4])
    assert solver.solve(assumptions=[4]) == UNSATISFIABLE


def test_clause_falsified_at_level_0_is_seen_by_a_later_solve():
    # Both watched literals of the new clause are false at level 0 and
    # its third literal is free: the re-propagated level-0 trail must
    # move a watch and force the free literal.
    solver = _load(sat.Solver, 3, [[-1], [-2]])
    assert solver.solve() == SATISFIABLE
    solver.add_clause([1, 2, 3])
    assert solver.solve(assumptions=[-3]) == UNSATISFIABLE
    assert solver.solve() == SATISFIABLE
    assert solver.model()[3] is True


def test_budget_exceeded_mid_search_leaves_the_solver_usable():
    num_vars, clauses = _pigeonhole(7, 6)
    solver = _load(sat.Solver, num_vars, clauses)
    with pytest.raises(BudgetExceeded):
        solver.solve(max_conflicts=20)
    assert solver._trail_lim  # stopped above level 0
    # The pigeonhole constraints hold under any assumption; the learned
    # clauses carry over, and the next solve still proves unsat.
    assert solver.solve(assumptions=[1]) == UNSATISFIABLE
    assert solver.solve() == UNSATISFIABLE


def test_capacity_grows_by_doubling():
    solver = _load(sat.Solver, 3, [[1, 2, 3]])
    assert solver.solve(assumptions=[-1, -2]) == SATISFIABLE
    assert solver._cap == 3
    for _ in range(2):
        solver.new_var()
    solver.add_clause([-3, 5])
    assert solver.solve(assumptions=[-1, -2, -5]) == UNSATISFIABLE
    assert solver._cap == 6 and len(solver._val) == 13
    assert solver.solve(assumptions=[-1, -2]) == SATISFIABLE
    assert solver.model()[5] is True
