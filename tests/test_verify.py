"""The restriction table of the verify suite: a wrong row fails its check,
and a row that cannot build its chart is a failed check, not a crash."""
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
