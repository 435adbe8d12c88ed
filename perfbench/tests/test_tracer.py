"""The tracer's span bookkeeping, self-time arithmetic and attribute restoring."""

import itertools
import multiprocessing
import os
import sys

import pytest

from tracer import Span, Target, Tracer, aggregate, self_times


class Tree:
    """outer -> (inner -> leaf, leaf); each call advances a fake clock."""

    def outer(self):
        self.inner()
        self.leaf()
        return "done"

    def inner(self):
        self.leaf()

    def leaf(self):
        pass

    def boom(self):
        raise ValueError("boom")


def module_function():
    return 7


def tree_targets():
    return [Target(Tree, name, name) for name in ("outer", "inner", "leaf", "boom")]


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_spans_record_parent_and_order():
    with Tracer(tree_targets(), run_id="r", clock=fake_clock()) as tracer:
        assert Tree().outer() == "done"
    spans = tracer.finished()
    # Clock reads: outer 0, inner 1, leaf 2-3, inner end 4, leaf 5-6, outer end 7.
    assert spans == [
        Span("r", 0, -1, "outer", 0, 7),
        Span("r", 1, 0, "inner", 1, 4),
        Span("r", 2, 1, "leaf", 2, 3),
        Span("r", 3, 0, "leaf", 5, 6),
    ]


def test_self_time_is_span_minus_direct_children():
    spans = [
        Span("r", 0, -1, "outer", 0.0, 10.0),
        Span("r", 1, 0, "inner", 1.0, 6.0),
        Span("r", 2, 1, "leaf", 2.0, 4.5),
        Span("r", 3, 0, "leaf", 7.0, 8.0),
        # Same ids in another process's run must not mix with run "r".
        Span("w", 0, -1, "outer", 0.0, 3.0),
        Span("w", 1, 0, "leaf", 1.0, 2.0),
    ]
    own = self_times(spans)
    assert own[("r", 0)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[("r", 1)] == pytest.approx(5.0 - 2.5)
    assert own[("r", 2)] == pytest.approx(2.5)
    assert own[("w", 0)] == pytest.approx(2.0)
    agg = aggregate(spans)
    assert agg["leaf"].calls == 3
    assert agg["leaf"].total_s == pytest.approx(2.5 + 1.0 + 1.0)
    assert agg["outer"].self_s == pytest.approx(4.0 + 2.0)
    # Self times partition each root span exactly.
    assert sum(own[k] for k in own if k[0] == "r") == pytest.approx(10.0)


def test_uninstall_restores_original_attributes():
    originals = {name: Tree.__dict__[name] for name in ("outer", "inner", "leaf", "boom")}
    original_function = sys.modules[__name__].module_function
    targets = tree_targets() + [Target(sys.modules[__name__], "module_function", "fn")]
    with Tracer(targets) as tracer:
        assert Tree.__dict__["leaf"] is not originals["leaf"]
        assert module_function() == 7
        with pytest.raises(ValueError):
            Tree().boom()
    for name, original in originals.items():
        assert Tree.__dict__[name] is original
    assert sys.modules[__name__].module_function is original_function
    # A call that raised still closed its span.
    assert [s.name for s in tracer.finished()] == ["fn", "boom"]
    # Calls after uninstall are not recorded.
    Tree().outer()
    assert len(tracer.finished()) == 2


def test_install_rejects_double_install_and_non_functions():
    tracer = Tracer(tree_targets()).install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    leaf = Tree.__dict__["leaf"]
    with pytest.raises(TypeError):
        Tracer([Target(Tree, "leaf", "leaf"), Target(Tree, "__dict__", "x")]).install()
    assert Tree.__dict__["leaf"] is leaf  # a failed install leaves nothing wrapped


def test_tallies_sum_return_values():
    with Tracer([Target(Tree, "outer", "outer", tally=len)]) as tracer:
        Tree().outer()
        Tree().outer()
    assert tracer.tallies == {"outer": 8}


def _forked_child():
    Tree().inner()
    Tree().outer()  # the flush target: writes this child's spans


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_flushes_its_own_spans(tmp_path):
    targets = [Target(Tree, "inner", "inner"), Target(Tree, "outer", "outer", flush=True)]
    with Tracer(targets, run_id="parent", flush_dir=str(tmp_path)) as tracer:
        Tree().inner()
        child = multiprocessing.get_context("fork").Process(target=_forked_child)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
    flushed = tracer.collect_flushed()
    assert [s.name for s in tracer.finished()] == ["inner"]
    assert sorted(s.name for s in flushed) == ["inner", "inner", "outer"]
    assert {s.run_id for s in flushed} == {f"parent/pid{child.pid}"}
    assert list(tmp_path.iterdir()) == []
