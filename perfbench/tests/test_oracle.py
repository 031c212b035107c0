from perfbench import oracle


def test_floats_compare_rounded():
    ours = [(1, 0.1 + 0.2, "a")]
    theirs = [(1.0, 0.3, "a")]
    assert oracle.result_multiset(ours) == oracle.result_multiset(theirs)


def test_rounding_keeps_real_differences():
    assert oracle.result_multiset([(0.3,)]) != oracle.result_multiset([(0.3000001,)])
    assert oracle.result_multiset([(1e12 + 1e4,)]) != oracle.result_multiset([(1e12,)])
    # Beyond nine significant digits values compare equal.
    assert oracle.result_multiset([(1e12 + 1,)]) == oracle.result_multiset([(1e12,)])


def test_negative_zero_and_types():
    assert oracle.normalize_value(-0.0) == 0.0
    assert oracle.normalize_value(True) is True
    assert oracle.normalize_value(None) is None
    assert oracle.normalize_value("x") == "x"


def test_multiset_counts_duplicates_and_ignores_order():
    a = oracle.result_multiset([(1,), (2,), (1,)])
    assert a == oracle.result_multiset([(2,), (1,), (1,)])
    assert a != oracle.result_multiset([(1,), (2,)])


def test_parity_check_fails_on_a_perturbed_report():
    from repro.core.pipeline import TuningReport

    reports = [TuningReport(estimated_benefit=5.0).to_dict(), TuningReport().to_dict()]
    same = [dict(r) for r in reports]
    assert oracle.parity_breaks(reports, same) == []
    assert oracle.decisions_digest(reports) == oracle.decisions_digest(same)
    perturbed = [dict(r) for r in reports]
    perturbed[1]["estimated_benefit"] = 5.000000001
    breaks = oracle.parity_breaks(reports, perturbed)
    assert breaks == ["round 1 differs on: estimated_benefit"]
    assert oracle.decisions_digest(reports) != oracle.decisions_digest(perturbed)
    assert oracle.parity_breaks(reports, reports[:1]) == ["round count 2 != 1"]
