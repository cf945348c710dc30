"""The restriction table of the verify suite: a wrong row fails its check,
and a row that cannot build its chart is a failed check, not a crash.  The
one-call draw of the sample stacks gives the points of per-point draws."""
import numpy as np

from quintic_flow import verify as vf


def test_wrong_published_map_fails(monkeypatch):
    row = vf.RESTRICTIONS["f6_mirror_10_line"]
    monkeypatch.setitem(vf.RESTRICTIONS, "f6_mirror_10_line",
                        row._replace(published=lambda z: z ** 3))
    ok, detail = vf.check_restriction("f6_mirror_10_line")
    assert not ok, detail


def test_off_line_anchor_is_a_failed_check(monkeypatch):
    row = vf.RESTRICTIONS["f6_mirror_10_line"]
    anchors = row.anchors.copy()
    anchors[2] = np.array([0, 0, 1, -1, 0])
    monkeypatch.setitem(vf.RESTRICTIONS, "f6_mirror_10_line",
                        row._replace(anchors=anchors))
    results = vf.run("restrictions")
    assert [r.name for r in results] == list(vf.RESTRICTIONS)
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == ["f6_mirror_10_line"]
    assert failed[0].detail.startswith("AnchorsNotCollinear")


def test_stack_draw_matches_per_point_draws():
    # the seed and count of check_invariant_identities
    stack = vf._rand_u_stack(np.random.default_rng(23), 1000)
    rng = np.random.default_rng(23)
    points = np.column_stack([vf._rand_u_stack(rng, 1) for _ in range(1000)])
    assert stack.shape == (4, 1000)
    assert np.array_equal(stack, points)
