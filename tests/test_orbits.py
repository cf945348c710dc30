import itertools

import numpy as np
import pytest

from _reference import (_span_from_normals, contains_lstsq, cosets_first_seen,
                        line_by_kind, null_span, plane_by_kind, point_by_kind,
                        projectively_equal, span_orbit_size_pairwise,
                        span_stabilizer_projectors, stabilizer_order)
from quintic_flow import group as gp
from quintic_flow import invariants as iv
from quintic_flow import orbits as ob
from quintic_flow import verify as vf
from quintic_flow.geometry import HCT, x_to_u


class TestPointRepresentatives:
    def test_table_examples(self):
        assert projectively_equal(
            ob.point("p10_45_2").x, np.array([2, 2, 2, -3, -3], dtype=complex))
        assert projectively_equal(
            ob.point("q30_1_24_1").x, np.array([0, 1, 1j, -1, -1j]))
        alpha = (-3 + np.sqrt(15) * 1j) / 2
        assert projectively_equal(
            ob.point("q20_123_1").x, np.array([1, 1, 1, alpha, np.conj(alpha)]))

    def test_five_point(self):
        p = ob.point("p5_1")
        assert projectively_equal(p.x, np.array([-4, 1, 1, 1, 1], dtype=complex))
        assert p.orbit_size == 5 and 120 // p.orbit_size == 24

    def test_orbit_and_stabilizer_sizes_match_tables(self):
        cases = [("p5_3", 5, 24), ("p10_12_1", 10, 12), ("p10_12_2", 10, 12),
                 ("p15_1_23", 15, 8), ("p20_1_234", 20, 6), ("p30_12_34", 30, 4),
                 ("q20_12_1", 20, 6), ("q20_123_2", 20, 6), ("q24", 24, 5),
                 ("q30_1_24_1", 30, 4), ("q30_12_34_2", 30, 4),
                 ("q60_1_23_1", 60, 2)]
        for desc, size, stab in cases:
            p = ob.point(desc)
            assert (p.orbit_size, 120 // p.orbit_size) == (size, stab), desc
            assert len(gp.orbit(p.u)) == size, desc
            assert stabilizer_order(p.u) == stab, desc

    def test_quadric_representatives_lie_on_quadric(self):
        for desc in ("q20_12_1", "q20_123_1", "q24", "q30_1_24_2",
                     "q30_12_34_1", "q60_1_23_1"):
            p = ob.point(desc)
            assert abs(iv.phi(p.u, 2)) < 1e-12 * np.abs(p.u).max() ** 2, desc

    def test_index_permutation(self):
        assert projectively_equal(
            ob.point("p10_13_1").x, np.array([1, 0, -1, 0, 0], dtype=complex))

    def test_unknown_descriptor(self):
        with pytest.raises(ob.UnknownDescriptor):
            ob.point("p7_1")

    def test_bad_indices(self):
        with pytest.raises(ob.BadIndices):
            ob.point("p15_1_12")
        with pytest.raises(ob.BadIndices):
            ob.point("q24_1123")


# lengths of the index groups each kind accepts, read off point_by_kind
GROUP_LENGTHS = {"p5": [(1,)], "p10": [(2,)], "p15": [(1, 2)], "p20": [(1, 3)],
                 "p30": [(2, 2)], "q20": [(2,), (3,)], "q30": [(1, 2), (2, 2)],
                 "q60": [(1, 2)]}


def _has_wrong_length_group(desc, group_lengths=GROUP_LENGTHS,
                            head=1) -> bool:
    """A descriptor of a known kind (its first ``head`` tokens) whose index
    groups (picked by the length of the first) include one of the wrong
    length."""
    toks = desc.split("_")
    kind, toks = "_".join(toks[:head]), toks[head:]
    if kind not in group_lengths or not toks:
        return False
    shapes = group_lengths[kind]
    lengths = next((s for s in shapes if s[0] == len(toks[0])), shapes[0])
    return any(len(t) != n for n, t in zip(lengths, toks))


def _outcome(parse, desc, key=lambda p: (p.x.tobytes(), p.orbit_size)):
    """The key of what ``parse`` returns, or the type of what it raises."""
    try:
        p = parse(desc)
    except (ValueError, IndexError) as exc:   # the typed errors included
        return type(exc)
    return key(p)


def _sweep_descriptors():
    """Every kind (and one unknown) with every index token of up to 3
    digits, then no second token, a random one or a random arrangement of
    the digits the first leaves, then no variant or 1, 2, 3; plus q24's
    exponent forms."""
    rng = np.random.default_rng(61)
    tokens = [""] + ["".join(t) for n in (1, 2, 3)
                     for t in itertools.product("12345", repeat=n)]
    kinds = list(GROUP_LENGTHS) + ["q24", "p7"]
    descs = list(kinds)
    for kind, tok in itertools.product(kinds, tokens):
        left = [d for d in "12345" if d not in tok]
        seconds = [None, tokens[rng.integers(1, len(tokens))],
                   "".join(rng.permutation(left)[:rng.integers(1, 4)])]
        for second, variant in itertools.product(seconds, (None, "1", "2", "3")):
            descs.append("_".join(t for t in (kind, tok, second, variant)
                                  if t is not None))
    descs += ["q24_" + "".join(p) for p in itertools.permutations("12345", 4)]
    return descs


def test_descriptor_sweep_matches_branch_per_kind_reference():
    """The table gives the reference's accepted set with bit-identical
    coordinates (signed zeros included) and orbit sizes; a rejected
    descriptor raises the reference's error, except that an index group of
    the wrong length raises BadIndices where the reference's unpacking
    raised UnknownDescriptor."""
    accepted = 0
    for desc in _sweep_descriptors():
        want = _outcome(point_by_kind, desc)
        got = _outcome(ob.point, desc)
        if want is ob.UnknownDescriptor and _has_wrong_length_group(desc):
            want = ob.BadIndices
        assert got == want, desc
        accepted += not isinstance(want, type)
    assert accepted > 1000


# lengths of the index groups of each plane and line kind, read off
# plane_by_kind and line_by_kind
PLANE_GROUP_LENGTHS = {"L2_5": [(1,)], "L2_10": [(2,)], "M2_10": [(2,)]}
LINE_GROUP_LENGTHS = {"L1_10": [(2,)], "M1_10": [(3,)], "L1_15": [(2, 2)],
                      "M1_15": [(2, 2)], "L1_30": [(1, 2)]}


def _plane_line_sweep(kinds):
    """Each kind with every index token of up to 3 digits or none, then no
    second token, a random one or random arrangements of 1, 2 and 3 of the
    digits the first leaves, then no trailing token or one extra."""
    rng = np.random.default_rng(67)
    tokens = [""] + ["".join(t) for n in (1, 2, 3)
                     for t in itertools.product("12345", repeat=n)]
    for kind in kinds:
        yield kind
        for tok in tokens:
            left = [d for d in "12345" if d not in tok]
            seconds = [None, tokens[rng.integers(1, len(tokens))]] + [
                "".join(rng.permutation(left)[:n]) for n in (1, 2, 3)]
            for second, extra in itertools.product(seconds, (None, "1")):
                yield "_".join(
                    t for t in (kind, tok, second, extra) if t is not None)


def _forms_key(flat):
    return flat.forms.tobytes(), flat.orbit_size


@pytest.mark.parametrize("lengths, unknown, parse, ref, key", [
    (PLANE_GROUP_LENGTHS, "L2_7", ob.plane, plane_by_kind, _forms_key),
    (LINE_GROUP_LENGTHS, "L1_7", ob.line, line_by_kind, _forms_key),
])
def test_plane_and_line_sweep_matches_branch_per_kind_reference(
        lengths, unknown, parse, ref, key):
    """The table gives every plane and line the reference accepts with
    bit-identical forms and orbit sizes, except that an index group
    longer than its kind allows, which the reference reads in part
    (L1_15_123_45), raises BadIndices.  Where the reference leaks the
    ValueError or IndexError of a wrong-length group or a missing token, the
    tables raise BadIndices for the first and UnknownDescriptor otherwise;
    its BadIndices and UnknownDescriptor stay as they are."""
    accepted = 0
    for desc in _plane_line_sweep(list(lengths) + [unknown]):
        want = _outcome(ref, desc, key)
        if want not in (ob.BadIndices, ob.UnknownDescriptor):
            if _has_wrong_length_group(desc, lengths, head=2):
                want = ob.BadIndices
            elif want in (ValueError, IndexError):
                want = ob.UnknownDescriptor
        assert _outcome(parse, desc, key) == want, desc
        accepted += not isinstance(want, type)
    assert accepted > 400


def _increasing_groups(lengths, used=""):
    """Every choice of disjoint index groups of the given lengths, each
    group's digits increasing."""
    if not lengths:
        yield ()
        return
    free = [d for d in "12345" if d not in used]
    for group in itertools.combinations(free, lengths[0]):
        for rest in _increasing_groups(lengths[1:], used + "".join(group)):
            yield ("".join(group), *rest)


def test_line_contains_stack_matches_lstsq_rule():
    """On each of the 110 lines with increasing index groups, the forms'
    test on one stack of the 349 distinct points (every kind, shape,
    increasing index groups and variant) gives the least-squares answer,
    point by point."""
    lines = [ob.line("_".join((kind, *groups)))
             for kind, (lengths,) in LINE_GROUP_LENGTHS.items()
             for groups in _increasing_groups(lengths)]
    descs = ["q24_" + "".join(p) for p in itertools.permutations("1234")]
    descs += ["_".join((kind, *groups, variant))
              for kind, shapes in GROUP_LENGTHS.items() for lengths in shapes
              for groups in _increasing_groups(lengths) for variant in "12"]
    X = np.column_stack(list({x.tobytes(): x for x in
                              (ob.point(d).x for d in descs)}.values()))
    hits = 0
    for ln in lines:
        got = ln.contains(X)
        assert np.array_equal(got, contains_lstsq(ln.forms, X)), ln.descriptor
        hits += got.sum()
    assert (len(lines), X.shape[1], hits) == (110, 349, 1060)


@pytest.mark.parametrize("parse, desc, error", [
    (ob.line, "L1_15_123_45", ob.BadIndices),
    (ob.line, "M1_15_12_345", ob.BadIndices),
    (ob.line, "M1_10_12", ob.BadIndices),
    (ob.line, "L1_30_12_34", ob.BadIndices),
    (ob.plane, "L2_5_12", ob.BadIndices),
    (ob.plane, "L2_5", ob.UnknownDescriptor),
    (ob.line, "L1_10", ob.UnknownDescriptor),
    (ob.line, "L1_15_12_3x", ob.UnknownDescriptor),
    (ob.plane, "M2_10_x2", ob.UnknownDescriptor),
    (ob.plane, "L1_10_12", ob.UnknownDescriptor),
    (ob.line, "L2_5_1", ob.UnknownDescriptor),
])
def test_malformed_plane_and_line_raise_typed_errors(parse, desc, error):
    with pytest.raises(error):
        parse(desc)


class TestPlanesAndLines:
    def test_plane_membership(self):
        pl = ob.plane("L2_10_12")
        assert pl.contains(np.array([1, 1, -2, 0, 0], dtype=complex))
        assert not pl.contains(np.array([1, -1, 0, 0, 0], dtype=complex))

    def test_plane_membership_tests_the_sum(self):
        # {x_1 = 0} holds at (0, 1, 1, 1, 1), but sum x does not vanish
        pl = ob.plane("L2_5_1")
        off = np.array([0, 1, 1, 1, 1])
        on = np.array([0, 1, -1, 1, -1])
        assert not pl.contains(off)
        assert pl.contains(np.column_stack([off, on, off])).tolist() == [
            False, True, False]

    def test_plane_orbit_sizes_count_the_normals_images(self):
        """A plane is fixed by the elements that fix its normal's point in
        the hyperplane, so its orbit size is the normal's group-orbit
        count."""
        for desc, size in [("L2_5_1", 5), ("L2_10_12", 10), ("M2_10_12", 10)]:
            pl = ob.plane(desc)
            assert pl.orbit_size == len(gp.orbit(x_to_u(pl.forms[1]))) == size

    def test_line_15_contains_exactly_one_5_point(self):
        ln = ob.line("L1_15_12_34")
        hits = [i for i in range(1, 6) if ln.contains(ob.point(f"p5_{i}").x)]
        assert hits == [5]

    def test_m10_line_contains_two_5_points(self):
        ln = ob.line("M1_10_123")
        assert ln.contains(ob.point("p5_4").x)
        assert ln.contains(ob.point("p5_5").x)

    def test_line_orbit_sizes(self):
        for desc, size in [("L1_10_12", 10), ("M1_10_123", 10),
                           ("L1_15_12_34", 15), ("M1_15_12_34", 15),
                           ("L1_30_1_23", 30)]:
            ln = ob.line(desc)
            assert ob.line_orbit_size(ln) == size, desc

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ob.BadIndices):
            ob.line("L1_15_12_23")
        with pytest.raises(ob.BadIndices):
            ob.line("L1_30_1_12")

    def test_unknown_line(self):
        with pytest.raises(ob.UnknownDescriptor):
            ob.line("L1_7_12")


def test_configuration_report_all_pass():
    report = ob.verify_configuration()
    assert list(report) == [
        "three_15_lines_at_5_point", "one_5_point_on_15_line",
        "three_15_lines_at_10_point", "two_10_points_on_15_line",
        "m10_line_contains_both_5_points",
        "orbit_size_L1_10", "orbit_size_M1_10", "orbit_size_L1_15",
        "orbit_size_M1_15", "orbit_size_L1_30",
        "quadric_line_orbit_q20_12_1", "quadric_line_orbit_q24",
        "quadric_line_orbit_q30_1_24_1"]
    failed = [k for k, v in report.items() if not v]
    assert not failed, failed


def test_configuration_check_reports_a_broken_incidence(monkeypatch):
    """A row whose on-point is off its line and one whose off-point is on
    it read False, and the verify check names both."""
    monkeypatch.setattr(ob, "_INCIDENCES", ob._INCIDENCES + (
        ("on_point_off_line", ("L1_15_23_45",), ("p5_2",), ()),
        ("off_point_on_line", ("M1_10_123",), (), ("p5_4",)),
    ))
    report = ob.verify_configuration()
    assert [k for k, v in report.items() if not v] == [
        "on_point_off_line", "off_point_on_line"]
    ok, detail = vf.check_configuration()
    assert not ok
    assert "on_point_off_line" in detail and "off_point_on_line" in detail


def test_ruling_line_orbit_sizes():
    assert ob.ruling_line_orbit_size("q20_12_1") == 40
    assert ob.ruling_line_orbit_size("q24") == 24
    assert ob.ruling_line_orbit_size("q30_1_24_1") == 60


# The eight lines whose orbits verify_configuration counts: five named
# lines and the ruling lines through three quadric points.
CONFIGURATION_LINES = ["L1_10_12", "M1_10_123", "L1_15_12_34", "M1_15_12_34",
                       "L1_30_1_23", "q20_12_1", "q24", "q30_1_24_1"]


def _forms(desc):
    """The two u-space forms of a configuration line, or of a generic line
    for None."""
    if desc is None:
        rng = np.random.default_rng(8)
        return rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    if desc.startswith("q"):
        return ob._ruling_line_forms(desc)
    return ob.line(desc).forms[1:] @ HCT


def _span(desc):
    """Two u-space points spanning the same line: from the defining planes'
    normals for a named line, else the null space of its forms."""
    if desc is None or desc.startswith("q"):
        return null_span(_forms(desc))
    return [x_to_u(x) for x in _span_from_normals(ob.line(desc).forms[1:])]


@pytest.mark.parametrize("desc", CONFIGURATION_LINES)
def test_plucker_stabilizer_matches_projectors(desc):
    """The Plücker distances split the group with a wide gap: roundoff on
    the stabilizer, far from it elsewhere; the mask is the projectors' on a
    spanning pair."""
    d = ob._form_distances(_forms(desc))
    stab = d < gp.DEDUP_TOL
    assert np.array_equal(stab, span_stabilizer_projectors(*_span(desc)))
    assert d[stab].max() < 1e-14 and d[~stab].min() > 0.1


@pytest.mark.parametrize("desc", CONFIGURATION_LINES)
def test_line_cosets_match_first_seen_scan(desc):
    stab = ob._form_distances(_forms(desc)) < gp.DEDUP_TOL
    assert gp.cosets(stab) == cosets_first_seen(stab)


@pytest.mark.parametrize("desc", CONFIGURATION_LINES + [None])
def test_span_orbit_size_matches_all_pairs(desc):
    """Named lines, the three ruling lines and a generic line (120 images):
    the count from the forms equals the all-pairs count on a spanning
    pair."""
    want = span_orbit_size_pairwise(*_span(desc))
    assert ob._line_orbit_size(_forms(desc)) == want
    if desc is None:
        assert want == 120
