"""Unit tests for the program logic (vcgen): symbolic execution, loop
invariants, function specs, memory regions, external-call obligations."""

import pytest

from repro.bedrock2.builder import (
    block, call, func, if_, interact, lit, load1, load4, set_, skip,
    stackalloc, store4, var, while_,
)
from repro.bedrock2.extspec import MMIOSpec
from repro.bedrock2.vcgen import (
    FunctionSpec, LoopSpec, SymEvent, TraceHole, VerificationError,
    verify_function,
)
from repro.logic import terms as T

MMIO = MMIOSpec([(0x10012000, 0x10013000), (0x10024000, 0x10025000)])


def verify(prog, name, spec, specs=None, **kwargs):
    """Verify ``prog[name]`` against ``spec``; ``specs`` holds the specs
    of callees that are not inlined."""
    return verify_function(prog, name, dict(specs or {}, **{name: spec}),
                           MMIO, **kwargs)


# -- straight-line functional verification -----------------------------------------

def test_verifies_arithmetic_identity():
    prog = {"f": func("f", ("x",), ("r",), set_("r", (var("x") + 1) - 1))}

    def post(args, rets):
        return {"eq": T.eq(rets[0], args[0])}

    report = verify(prog, "f", FunctionSpec(post=post))
    assert report.paths == 1


def test_detects_wrong_postcondition():
    prog = {"f": func("f", ("x",), ("r",), set_("r", var("x") + 1))}

    def post(args, rets):
        return {"eq": T.eq(rets[0], args[0])}

    with pytest.raises(VerificationError) as err:
        verify(prog, "f", FunctionSpec(post=post))
    assert err.value.model is not None  # countermodel included


def test_branches_explored_both_ways():
    prog = {"f": func("f", ("x",), ("r",),
                      if_(var("x") < 10, set_("r", lit(1)), set_("r", lit(2))))}

    def post(args, rets):
        return {"1-or-2": T.or_(T.eq(rets[0], T.const(1)),
                                T.eq(rets[0], T.const(2)))}

    report = verify(prog, "f", FunctionSpec(post=post))
    assert report.paths == 2


def test_infeasible_branch_pruned():
    prog = {"f": func("f", (), ("r",), block(
        set_("x", lit(3)),
        if_(var("x") < 10, set_("r", lit(1)), set_("r", lit(2)))))}
    report = verify(prog, "f", FunctionSpec())
    assert report.paths == 1  # constant condition: else is dead


def test_dead_arm_only_the_solver_sees_is_pruned():
    # Neither condition folds (x is a parameter), and "x < 10 and not
    # x < 20" is dead by arithmetic alone. Witness models settle the live
    # arms; the dead arm must still reach a refutation tier and be cut.
    from repro.logic.solver import tier_counts

    prog = {"f": func("f", ("x",), ("r",), block(
        if_(var("x") < 10,
            if_(var("x") < 20, set_("r", lit(1)), set_("r", lit(2))),
            set_("r", lit(3)))))}
    before = tier_counts()
    report = verify(prog, "f", FunctionSpec())
    settled = {tier: n - before[tier] for tier, n in tier_counts().items()}
    assert report.paths == 2
    assert settled["witness"] >= 1
    assert settled["structural"] + settled["interval"] + settled["sat"] >= 1


# -- memory ------------------------------------------------------------------------

def region(size=16):
    """Argument 0 is the base of an owned ``size``-byte buffer."""
    return ((0, "buf", size),)


def test_in_bounds_concrete_store_load():
    prog = {"f": func("f", ("p",), ("r",), block(
        store4(var("p") + 4, lit(0xAABBCCDD)),
        set_("r", load4(var("p") + 4))))}

    def post(args, rets):
        return {"roundtrip": T.eq(rets[0], T.const(0xAABBCCDD))}

    verify(prog, "f", FunctionSpec(buffers=region(), post=post))


def test_out_of_bounds_store_rejected():
    prog = {"f": func("f", ("p",), (), store4(var("p") + 16, lit(1)))}
    with pytest.raises(VerificationError):
        verify(prog, "f", FunctionSpec(buffers=region(16)))


def test_misaligned_store_rejected():
    prog = {"f": func("f", ("p",), (), store4(var("p") + 2, lit(1)))}
    with pytest.raises(VerificationError):
        verify(prog, "f", FunctionSpec(buffers=region(16)))


def test_byte_access_any_offset():
    prog = {"f": func("f", ("p",), ("r",), set_("r", load1(var("p") + 15)))}

    def post(args, rets):
        return {"byte-range": T.ule(rets[0], T.const(0xFF))}

    verify(prog, "f", FunctionSpec(buffers=region(16), post=post))


def test_symbolic_offset_store_in_bounds():
    # p[i] for i < 4 words: provable with the hypothesis in pre.
    prog = {"f": func("f", ("p", "i"), (), store4(var("p") + (var("i") << 2),
                                                  lit(7)))}

    def pre(args):
        return {"i<4": T.ult(args[1], T.const(4))}

    verify(prog, "f", FunctionSpec(pre=pre, buffers=region(16)))


def test_symbolic_offset_store_unbounded_rejected():
    prog = {"f": func("f", ("p", "i"), (), store4(var("p") + (var("i") << 2),
                                                  lit(7)))}
    with pytest.raises(VerificationError):
        verify(prog, "f", FunctionSpec(buffers=region(16)))


def test_stackalloc_region_scoped():
    prog = {"f": func("f", (), ("r",), block(
        stackalloc("p", 8, block(store4(var("p"), lit(3)),
                                 set_("r", load4(var("p"))))),
    ))}

    def post(args, rets):
        return {"eq": T.eq(rets[0], T.const(3))}

    def deallocated(vc, state, args, rets):
        assert not state.regions  # deallocated at scope exit

    verify(prog, "f", FunctionSpec(post=post, on_exit=deallocated))


def test_use_after_stackalloc_scope_rejected():
    prog = {"f": func("f", (), ("r",), block(
        stackalloc("p", 8, skip()),
        set_("r", load4(var("p")))))}
    with pytest.raises(VerificationError):
        verify(prog, "f", FunctionSpec())


# -- external calls -------------------------------------------------------------------

def test_mmio_range_obligation():
    ok = {"f": func("f", (), (), interact([], "MMIOWRITE", lit(0x10012008),
                                          lit(1)))}
    verify(ok, "f", FunctionSpec())
    bad = {"f": func("f", (), (), interact([], "MMIOWRITE", lit(0x20000000),
                                           lit(1)))}
    with pytest.raises(VerificationError):
        verify(bad, "f", FunctionSpec())


def test_mmio_alignment_obligation():
    bad = {"f": func("f", (), (), interact([], "MMIOWRITE", lit(0x10012002),
                                           lit(1)))}
    with pytest.raises(VerificationError):
        verify(bad, "f", FunctionSpec())


def test_mmio_read_value_universally_quantified():
    # The postcondition must hold for every value the device may return.
    prog = {"f": func("f", (), ("r",),
                      interact(["r"], "MMIOREAD", lit(0x10024048)))}

    def post_any(args, rets):
        return {"trivial": T.ule(rets[0], T.const(0xFFFFFFFF))}

    verify(prog, "f", FunctionSpec(post=post_any))

    def post_specific(args, rets):
        return {"specific": T.eq(rets[0], T.const(7))}

    with pytest.raises(VerificationError):
        verify(prog, "f", FunctionSpec(post=post_specific))


def test_trace_records_symbolic_events():
    prog = {"f": func("f", (), (), block(
        interact(["v"], "MMIOREAD", lit(0x10024048)),
        interact([], "MMIOWRITE", lit(0x1002404C), var("v"))))}

    def check_trace(vc, state, args, rets):
        assert len(state.trace) == 2
        read, write = state.trace
        assert isinstance(read, SymEvent) and read.action == "MMIOREAD"
        assert isinstance(write, SymEvent) and write.action == "MMIOWRITE"
        # The written value IS the read value, symbolically.
        vc.prove(state, T.eq(write.args[1], read.rets[0]), "echo")

    verify(prog, "f", FunctionSpec(on_exit=check_trace))


# -- loops -------------------------------------------------------------------------------

def counting_loop(spec):
    return {"f": func("f", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            set_("s", var("s") + 1),
            set_("i", var("i") + 1)), spec=spec)))}


def test_loop_with_invariant_and_measure():
    spec = LoopSpec(
        invariant=lambda st: T.and_(
            T.ule(st.locals["i"], st.locals["n"]),
            T.eq(st.locals["s"], st.locals["i"])),
        measure=lambda st: T.sub(st.locals["n"], st.locals["i"]))

    def pre(args):
        return {"no-wrap": T.ult(args[0], T.const(1 << 30))}

    def post(args, rets):
        return {"sum-equals-n": T.eq(rets[0], args[0])}

    verify(counting_loop(spec), "f", FunctionSpec(pre=pre, post=post))


def test_loop_invariant_not_inductive_rejected():
    spec = LoopSpec(
        invariant=lambda st: T.eq(st.locals["s"], T.const(0)),  # broken
        measure=lambda st: T.sub(st.locals["n"], st.locals["i"]))
    with pytest.raises(VerificationError) as err:
        verify(counting_loop(spec), "f", FunctionSpec())
    assert "inv-preserved" in err.value.context


def test_loop_measure_must_decrease():
    prog = {"f": func("f", ("n",), (), block(
        set_("i", lit(0)),
        while_(var("i") < var("n"), skip(),  # no progress!
               spec=LoopSpec(invariant=lambda st: T.TRUE,
                             measure=lambda st: T.sub(st.locals["n"],
                                                      st.locals["i"])))))}
    with pytest.raises(VerificationError) as err:
        verify(prog, "f", FunctionSpec())
    assert "measure" in err.value.context


def test_loop_event_filter_enforced():
    prog = {"f": func("f", ("n",), (), block(
        set_("i", var("n")),
        while_(var("i"), block(
            interact([], "MMIOWRITE", lit(0x10012008), lit(1)),
            set_("i", var("i") - 1)),
            spec=LoopSpec(
                invariant=lambda st: T.TRUE,
                measure=lambda st: st.locals["i"],
                event_filter=_only_reads))))}
    with pytest.raises(VerificationError):
        verify(prog, "f", FunctionSpec())


def _only_reads(vc, state, event, ctx):
    if not (isinstance(event, SymEvent) and event.action == "MMIOREAD"):
        raise VerificationError(ctx, "loop may only read")


def test_bounded_unrolling_without_spec():
    prog = {"f": func("f", (), ("s",), block(
        set_("s", lit(0)), set_("i", lit(4)),
        while_(var("i"), block(set_("s", var("s") + 2),
                               set_("i", var("i") - 1)))))}

    def post(args, rets):
        return {"unrolled-sum": T.eq(rets[0], T.const(8))}

    verify(prog, "f", FunctionSpec(post=post))


def test_unbounded_loop_without_spec_rejected():
    prog = {"f": func("f", ("n",), (), block(
        set_("i", var("n")),
        while_(var("i"), set_("i", var("i") - 1))))}
    with pytest.raises(VerificationError) as err:
        verify(prog, "f", FunctionSpec(), unroll_limit=8)
    assert "unroll" in str(err.value)


# -- function specs (modularity) -----------------------------------------------------

def test_spec_replaces_callee():
    prog = {
        "helper": func("helper", ("a",), ("b",), set_("b", var("a") + 1)),
        "f": func("f", ("x",), ("r",), call(("r",), "helper", var("x"))),
    }
    helper = FunctionSpec(
        post=lambda args, rets: {"inc": T.eq(rets[0],
                                             T.add(args[0], T.const(1)))})

    def post(args, rets):
        return {"inc": T.eq(rets[0], T.add(args[0], T.const(1)))}

    def summarized(vc, state, args, rets):
        assert state.trace == [TraceHole("helper")]  # not inlined

    verify(prog, "helper", helper)
    verify(prog, "f", FunctionSpec(post=post, on_exit=summarized),
           specs={"helper": helper})


def test_spec_pre_is_an_obligation_at_call_site():
    prog = {
        "helper": func("helper", ("a",), ("b",), set_("b", var("a"))),
        "f": func("f", ("x",), ("r",), call(("r",), "helper", var("x"))),
    }
    helper = FunctionSpec(
        pre=lambda args: {"arg<10": T.ult(args[0], T.const(10))})
    with pytest.raises(VerificationError) as err:
        verify(prog, "f", FunctionSpec(), specs={"helper": helper})
    assert err.value.context == "f/call:helper/pre/arg<10"


def test_spec_call_appends_a_hole():
    prog = {
        "io": func("io", (), (), interact([], "MMIOWRITE", lit(0x10012008),
                                          lit(1))),
        "f": func("f", (), (), call((), "io")),
    }

    def check_trace(vc, state, args, rets):
        assert state.trace == [TraceHole("io")]

    verify(prog, "f", FunctionSpec(on_exit=check_trace),
           specs={"io": FunctionSpec()})


def test_spec_buffer_must_be_a_caller_region_of_its_size():
    # fill owns 32 bytes and writes at offset 28: a caller that owns only
    # 16 bytes must not be able to hand it its buffer.
    prog = {
        "fill": func("fill", ("p",), (), store4(var("p") + 28, lit(0))),
        "f": func("f", ("p",), (), call((), "fill", var("p"))),
    }
    fill = FunctionSpec(buffers=region(32))
    verify(prog, "fill", fill)
    verify(prog, "f", FunctionSpec(buffers=region(32)), specs={"fill": fill})
    with pytest.raises(VerificationError) as err:
        verify(prog, "f", FunctionSpec(buffers=region(16)),
               specs={"fill": fill})
    assert err.value.context == "f/call:fill/pre/buf-is-region"


def test_uncontracted_callee_is_inlined():
    prog = {
        "sq": func("sq", ("a",), ("b",), set_("b", var("a") * var("a"))),
        "f": func("f", (), ("r",), call(("r",), "sq", lit(5))),
    }

    def post(args, rets):
        return {"eq": T.eq(rets[0], T.const(25))}

    verify(prog, "f", FunctionSpec(post=post))
