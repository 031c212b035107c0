import pytest

from perfbench.trace import Patches, Tracer, layer_times, within


def test_self_time_subtracts_children():
    spans = [
        # id, name, start, end, parent, group
        (0, "stmt", 0.0, 10.0, None, "s0"),
        (1, "parse", 1.0, 3.0, 0, "s0"),
        (2, "plan", 3.0, 4.0, 0, "s0"),
        (3, "exec", 4.0, 9.0, 0, "s0"),
        (4, "plan", 5.0, 6.5, 3, "s0"),
    ]
    times = layer_times(spans)
    assert times["stmt"]["self_s"] == pytest.approx(2.0)
    assert times["exec"]["self_s"] == pytest.approx(3.5)
    assert times["plan"]["calls"] == 2
    assert times["plan"]["total_s"] == pytest.approx(2.5)
    assert times["plan"]["self_s"] == pytest.approx(2.5)
    # Self times partition the root's interval.
    assert sum(t["self_s"] for t in times.values()) == pytest.approx(10.0)


def test_tracer_links_parents_and_groups():
    tracer = Tracer()
    with tracer.group("stmt-0"), tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("loose"):
        pass
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None
    assert by_name["inner"][5] == by_name["outer"][5] == "stmt-0"
    assert by_name["loose"][5] is None
    times = layer_times(tracer.spans)
    assert times["outer"]["self_s"] <= times["outer"]["total_s"]


class _Thing:
    def work(self, n):
        return n * 2


def test_patches_wrap_and_restore():
    tracer = Tracer()
    original = _Thing.__dict__["work"]
    patches = Patches(tracer)
    patches.wrap(_Thing, "work", "thing.work",
                 lambda t, args, result: t.count("thing.items", args[1]))
    assert _Thing().work(3) == 6
    patches.restore()
    assert _Thing.__dict__["work"] is original
    assert [s[1] for s in tracer.spans] == ["thing.work"]
    assert tracer.counters["thing.items"] == 3


def test_within_follows_the_parent_chain():
    spans = [
        (0, "setup", 0.0, 1.0, None, None),
        (1, "build", 0.1, 0.5, 0, None),
        (2, "round", 2.0, 5.0, None, "r0"),
        (3, "apply", 2.5, 4.5, 2, "r0"),
        (4, "build", 3.0, 4.0, 3, "r0"),
        (5, "drop", 4.0, 4.2, 3, "r0"),
    ]
    assert [s[0] for s in within(spans, "round")] == [3, 4, 5]
    assert [s[0] for s in within(spans, "setup")] == [1]
    assert within(spans, "missing") == []
