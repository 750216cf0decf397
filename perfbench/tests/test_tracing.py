import types

import pytest

from tracing import Span, Tracer, ancestor, self_times


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # op [0, 10] holds a [1, 4] (with g [2, 3] inside) and b [5, 9]
    clock = FakeClock([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = Tracer(clock)
    with tracer.span("op", op=7):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["op", "a", "g", "b"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert all(s.op == 7 for s in tracer.spans)
    assert self_times(tracer.spans) == [3, 2, 1, 4]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", 0.0, None, None, end=10.0),
        Span("c1", 1.0, 0, None, end=5.0),
        Span("c2", 3.0, 0, None, end=6.0),
        Span("c3", 9.0, 0, None, end=12.0),  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrap_records_exceptions_and_reraises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    (span,) = tracer.spans
    assert span.attrs["raised"] == "KeyError"
    assert span.end >= span.start


def test_patched_restores_attributes_and_annotates():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()

    def note(attrs, args, kwargs, result):
        attrs["result"] = result

    with pytest.raises(RuntimeError):
        with tracer.patched([(module, "f", "layer.f", note)]):
            assert module.f(1) == 2
            raise RuntimeError
    assert module.f is original
    assert tracer.spans[0].name == "layer.f"
    assert tracer.spans[0].attrs["result"] == 2


def test_ancestor_walks_parents():
    tracer = Tracer()
    with tracer.span("cli.trial", delta_n=0.1):
        with tracer.span("analysis.demix"):
            with tracer.span("solver.solve"):
                pass
    assert ancestor(tracer.spans, 2, "cli.trial") is tracer.spans[0]
    assert ancestor(tracer.spans, 0, "cli.trial") is None


def test_layer_counts_are_per_op_and_per_call():
    import layers

    def solve(converged):
        return Span("solver.solve", 0.0, None, None, end=1.0,
                    attrs={"iterations": 10, "converged": converged})

    def recover(**attrs):
        return Span("analysis.recover", 0.0, None, None, end=1.0, attrs=attrs)

    def metrics(n_ops):
        spans = [Span("op", 0.0, None, i, end=1.0) for i in range(n_ops)]
        for _ in range(n_ops):
            spans += [solve(False), solve(True), recover(), recover(raised="LinAlgError")]
        return layers.layer_metrics(spans, pool_efficiency=0.0, overhead_share=0.0)

    # the same ops, twice as many of them: the counts must not change
    for m in (metrics(2), metrics(4)):
        assert m["solver.capped"] == 1.0
        assert m["analysis.recover_fallbacks"] == 0.5
