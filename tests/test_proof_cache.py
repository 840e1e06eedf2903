"""The content-addressed proof cache (`repro.logic.cache`).

Covers the correctness properties the incremental story rests on:
fingerprints are alpha-renaming-invariant and stable across runs;
mutating one function invalidates exactly its own entries (the program
logic's modularity, now exploited for incremental re-verification);
corrupt or poisoned cache data is detected and ignored, never trusted.
"""

import json
import os

from repro.bedrock2.builder import func, lit, set_, var
from repro.bedrock2.extspec import MMIOSpec
from repro.bedrock2.vcgen import FunctionSpec, verify_function
from repro.logic import solver as S
from repro.logic import terms as T
from repro.logic.cache import (
    FORMAT_VERSION, CORRUPT, HITS, MISSES, POISONED, ProofCache, fingerprint,
)

MMIO = MMIOSpec([(0x10012000, 0x10013000)])


# -- fingerprinting -----------------------------------------------------------


def test_fingerprint_is_deterministic():
    formula = T.and_(T.ult(T.var("a"), T.const(10)),
                     T.eq(T.add(T.var("a"), T.var("b")), T.const(3)))
    d1, _ = fingerprint(formula)
    d2, _ = fingerprint(formula)
    assert d1 == d2
    assert len(d1) == 64


def test_fingerprint_alpha_renaming_invariant():
    def formula(x, y):
        return T.and_(T.ult(T.var(x), T.var(y)),
                      T.eq(T.add(T.var(x), T.const(1)), T.var(y)))

    d1, map1 = fingerprint(formula("x", "y"))
    d2, map2 = fingerprint(formula("p!7", "q!33"))
    assert d1 == d2
    # The variable maps line up positionally.
    assert sorted(map1.values()) == sorted(map2.values())


def test_fingerprint_distinguishes_different_formulas():
    d1, _ = fingerprint(T.ult(T.var("x"), T.const(10)))
    d2, _ = fingerprint(T.ult(T.var("x"), T.const(11)))
    d3, _ = fingerprint(T.ule(T.var("x"), T.const(10)))
    assert len({d1, d2, d3}) == 3


def test_fingerprints_are_pinned():
    # Cache keys outlive the code that made them: an on-disk cache is
    # only warm if the same formula gets the same digest in the next
    # release. These three cover the operand orders the fingerprint
    # chooses: an `eq` of two compound operands (whose interned order
    # differs from the name-blind one it is sorted into), an `add` whose
    # operands tie name-blind (interned order kept), and an `ite` on that
    # `eq` inside an `add` (the `eq`'s name-blind hash, taken over its
    # sorted operands, decides the order of the `add`'s).
    a, b, x, y = T.var("a"), T.var("b"), T.var("x"), T.var("y")
    cond = T.eq(T.add(a, T.const(4)), T.band(b, T.const(0xFF)))
    pinned = [
        (cond,
         "08dd2779d493ef9f855848ce103bef36848190ad9c04efe3de5c716c593b97c9",
         {"b": "v0", "a": "v1"}),
        (T.ult(T.add(T.mul(x, T.const(3)), T.mul(y, T.const(3))),
               T.const(100)),
         "6003df3d4852369765cd9c122d9379e02369ecaa3ea708b62288aa00966a0ff2",
         {"y": "v0", "x": "v1"}),
        (T.ult(T.add(T.ite(cond, a, b), T.mul(b, T.const(11))),
               T.const(16)),
         "3b1c211a6c40b7e18241e3e50f4424647b4e84c48c23b828a437c54856018a9d",
         {"b": "v0", "a": "v1"}),
    ]
    for formula, digest, varmap in pinned:
        assert fingerprint(formula) == (digest, varmap)


def test_terms_pickle_through_interning():
    import pickle

    t = T.and_(T.eq(T.add(T.var("x"), T.const(1)), T.var("y")),
               T.ult(T.var("y"), T.const(100)))
    clone = pickle.loads(pickle.dumps(t))
    assert clone is t  # hash-consing survives the round trip


# -- store round trip ---------------------------------------------------------


def test_cache_round_trip_on_disk(tmp_path):
    d = str(tmp_path / "cache")
    with ProofCache(d) as cache:
        cache.store("a" * 64, True, None)
        cache.store("b" * 64, False, {"v0": 7, "v1": True})
    with ProofCache(d) as reloaded:
        assert len(reloaded) == 2
        assert reloaded.lookup("a" * 64).valid is True
        entry = reloaded.lookup("b" * 64)
        assert entry.valid is False
        assert entry.model == {"v0": 7, "v1": True}


def test_solver_hits_cache_for_renamed_query(tmp_path):
    cache = ProofCache(str(tmp_path / "cache"))
    with S.cached(cache):
        before = HITS.value
        r1 = S.check_valid(T.ult(T.var("a!1"), T.const(16)),
                           [T.ult(T.var("a!1"), T.const(10))])
        # Same VC modulo renaming: must be served from cache.
        r2 = S.check_valid(T.ult(T.var("z!9"), T.const(16)),
                           [T.ult(T.var("z!9"), T.const(10))])
    assert r1.valid and r2.valid
    assert HITS.value == before + 1


def test_cached_countermodel_replayed_with_original_names(tmp_path):
    cache = ProofCache(str(tmp_path / "cache"))
    goal = T.eq(T.var("n"), T.const(0))
    with S.cached(cache):
        miss = S.check_valid(goal)
        hit = S.check_valid(T.eq(T.var("m"), T.const(0)))
    assert not miss.valid and not hit.valid
    assert "m" in hit.model
    assert T.evaluate(T.not_(T.eq(T.var("m"), T.const(0))), hit.model)


# -- corruption and poisoning -------------------------------------------------


def test_corrupt_lines_are_skipped(tmp_path):
    d = tmp_path / "cache"
    d.mkdir()
    path = d / "proofs.jsonl"
    header = json.dumps({"format": "repro-proof-cache",
                         "version": FORMAT_VERSION})
    good = json.dumps({"k": "c" * 64, "valid": True})
    path.write_text("\n".join([
        header,
        "this is not json {{{",
        json.dumps({"k": "too-short", "valid": True}),
        json.dumps({"k": "d" * 64, "valid": "yes"}),
        json.dumps({"k": "e" * 64, "valid": False}),  # invalid needs a model
        json.dumps([1, 2, 3]),
        good,
    ]) + "\n")
    before = CORRUPT.value
    cache = ProofCache(str(d))
    assert len(cache) == 1
    assert cache.lookup("c" * 64) is not None
    assert CORRUPT.value - before == 5


def test_bad_header_discards_whole_file(tmp_path):
    d = tmp_path / "cache"
    d.mkdir()
    path = d / "proofs.jsonl"
    path.write_text(json.dumps({"k": "a" * 64, "valid": True}) + "\n")
    before = CORRUPT.value
    cache = ProofCache(str(d))
    assert len(cache) == 0
    assert CORRUPT.value > before
    # The next store rewrites the file with a proper header.
    cache.store("b" * 64, True, None)
    cache.close()
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["format"] == "repro-proof-cache"
    assert len(ProofCache(str(d))) == 1


def test_poisoned_countermodel_detected_and_ignored(tmp_path):
    d = str(tmp_path / "cache")
    goal = T.ult(T.var("x"), T.const(16))
    hyp = T.ult(T.var("x"), T.const(10))
    with ProofCache(d) as cache:
        with S.cached(cache):
            assert S.check_valid(goal, [hyp]).valid
    # Poison the stored verdict: claim the VC is falsifiable with a
    # "countermodel" that does not falsify it.
    path = os.path.join(d, "proofs.jsonl")
    lines = open(path).read().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    poisoned = []
    for record in records:
        record["valid"] = False
        record["model"] = {}
        poisoned.append(json.dumps(record))
    open(path, "w").write("\n".join([lines[0]] + poisoned) + "\n")

    before_poisoned = POISONED.value
    with ProofCache(d) as cache:
        with S.cached(cache):
            result = S.check_valid(goal, [hyp])
    # The lie was caught by re-validation; the solver re-decided the VC.
    assert result.valid
    assert POISONED.value > before_poisoned


# -- modular invalidation -----------------------------------------------------


def _small_program(k: int):
    """Two independent functions; ``g``'s body depends on ``k``."""
    return {
        "f": func("f", ("x",), ("r",), set_("r", (var("x") + 1) - 1)),
        "g": func("g", ("x",), ("r",), set_("r", var("x") + lit(k))),
    }


def _specs(k):
    """``f`` returns its argument; ``g`` returns it plus at most ``k``.
    ult (not eq) so ``g``'s goal does not fold to TRUE at interning time:
    the solver must actually be queried for the property to exercise the
    cache."""
    return {
        "f": FunctionSpec(post=lambda args, rets:
                          {"identity": T.eq(rets[0], args[0])}),
        "g": FunctionSpec(post=lambda args, rets: {"offset": T.ult(
            T.sub(rets[0], args[0]), T.const(k + 1))}),
    }


def _verify_both(cache, k):
    with S.cached(cache):
        verify_function(_small_program(k), "f", _specs(k), MMIO)
        verify_function(_small_program(k), "g", _specs(k), MMIO)


def test_mutating_one_function_invalidates_only_its_entries(tmp_path):
    d = str(tmp_path / "cache")
    with ProofCache(d) as cache:
        _verify_both(cache, k=5)

    # Unchanged program: every query hits.
    hits, misses = HITS.value, MISSES.value
    with ProofCache(d) as cache:
        _verify_both(cache, k=5)
    assert MISSES.value == misses
    assert HITS.value > hits

    # Mutate only g (k=5 -> k=6): f still hits everything; only g's own
    # obligations miss -- the modularity dividend.
    hits, misses = HITS.value, MISSES.value
    with ProofCache(d) as cache:
        with S.cached(cache):
            verify_function(_small_program(6), "f", _specs(6), MMIO)
            f_misses = MISSES.value - misses
            verify_function(_small_program(6), "g", _specs(6), MMIO)
            g_misses = MISSES.value - misses - f_misses
    assert f_misses == 0, "unchanged function f re-queried the solver"
    assert g_misses > 0, "mutated function g should re-verify"


# -- the headline incremental property ----------------------------------------


def test_warm_verify_all_skips_at_least_90_percent(tmp_path):
    from repro.logic.solver import _QUERIES
    from repro.sw.verify import verify_all

    d = str(tmp_path / "cache")
    with ProofCache(d) as cache:
        cold = verify_all(cache=cache)
    queries, hits = _QUERIES.value, HITS.value
    with ProofCache(d) as cache:
        warm = verify_all(cache=cache)
    warm_queries = _QUERIES.value - queries
    warm_hits = HITS.value - hits
    assert [r.function for r in cold.reports] == \
        [r.function for r in warm.reports]
    assert cold.total_obligations == warm.total_obligations
    assert warm_queries > 0
    assert warm_hits >= 0.9 * warm_queries, \
        "warm re-verification should skip >=90%% of solver queries " \
        "(got %d/%d)" % (warm_hits, warm_queries)
