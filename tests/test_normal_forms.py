"""The normal-form table, read without drawing a profile."""

import numpy as np
import pytest

from spinorlab import geometry
from spinorlab.geometry import FAMILY_TAGS, build_metric, normal_form
from spinorlab.jets import JetSeries

ENTRIES = [(tag, p) for tag in FAMILY_TAGS
           for p in ((1, 2, 3) if tag in ("PUREODD", "PUREEVEN") else (None,))]


def _profiles(form):
    """Profiles that build a metric of ``form``: zero, but M33GEN's mixed Hessian is 1."""
    if form.tag == "M33GEN":
        return [JetSeries(6, 2, {(1, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 0): 1.0,
                                 (0, 0, 1, 0, 0, 1): 1.0})]
    return [JetSeries.zero(a, 0) for a in form.arities or (2,)]


@pytest.mark.parametrize("tag, p", ENTRIES)
class TestEntry:
    def test_gram_has_the_declared_signature(self, tag, p):
        form = normal_form(tag, p)
        assert form.gram.shape == (form.n, form.n) and sum(form.signature) == form.n
        assert np.array_equal(form.gram, form.gram.T)
        w = np.linalg.eigvalsh(form.gram)
        assert (int((w > 0).sum()), int((w < 0).sum())) == form.signature

    def test_stabilizer_is_gram_skew(self, tag, p):
        form = normal_form(tag, p)
        for h in form.stabilizer:
            gh = form.gram @ h
            assert np.abs(gh + gh.T).max() < 1e-12
        # the declared basis is independent: its orthonormal rows are as many
        assert form.stabilizer_rows.shape == (len(form.stabilizer), form.n ** 2)

    def test_arrays_are_read_only(self, tag, p):
        form = normal_form(tag, p)
        for a in (form.gram, *form.stabilizer, form.stabilizer_rows):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_metric_holds_the_table_arrays(self, tag, p):
        form = normal_form(tag, p)
        m = build_metric(tag, _profiles(form), p=p)
        assert m.form is form and m.family == tag and m.p == p
        assert m.gram is form.gram
        assert len(m.stabilizer) == len(form.stabilizer)
        assert all(a is b for a, b in zip(m.stabilizer, form.stabilizer))
        assert m.stabilizer_rows() is form.stabilizer_rows


def test_each_entry_is_built_once():
    assert normal_form("PUREODD", 2) is normal_form("PUREODD", p=2)
    assert normal_form("M101") is normal_form("M101", None)


def test_stabilizer_rows_solved_once_per_entry(monkeypatch):
    calls = []
    span = geometry.orthonormal_span
    monkeypatch.setattr(geometry, "orthonormal_span",
                        lambda *args: calls.append(1) or span(*args))
    metrics = [build_metric("PUREEVEN", [JetSeries.zero(10, 0)] * 15, p=5) for _ in range(2)]
    for m in metrics:
        geometry.adapted_coframe(m, np.zeros(m.n))
        geometry.holonomy_span(m, np.zeros((1, m.n)))
    assert len(calls) <= 1
    assert metrics[0].stabilizer_rows() is metrics[1].stabilizer_rows()


@pytest.mark.parametrize("args, message", [
    (("PUREODD",), "PUREODD needs the block size p"),
    (("PUREEVEN", 0), "PUREEVEN needs the block size p"),
    (("PUREEVEN", 2.0), "p must be an integer, got 2.0"),
    (("M21", 2), "M21 takes no block size p, got p = 2"),
    (("M99",), "unknown family 'M99'"),
])
def test_entry_refused(args, message):
    with pytest.raises(ValueError, match=message):
        normal_form(*args)


def test_custom_metric_has_no_stabilizer():
    m = geometry.custom_metric(1, (1, 0), ("t",), {(0, 0): JetSeries(1, 1, {(1,): 1})})
    assert m.form is None and m.stabilizer == () and m.stabilizer_dimension == 0
    with pytest.raises(ValueError, match="no stabilizer basis"):
        m.stabilizer_rows()
