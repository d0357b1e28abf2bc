from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdom import (
    HypothesisViolated,
    LatticePattern,
    UnsupportedR,
    WindowTooSmall,
    king_lattice_pattern,
    triangular_lattice_pattern,
    verify_lattice_window,
)
from trdom.reception import VerificationReport


def _valid_patterns(ts):
    for t in ts:
        yield LatticePattern("king-t1", t, 1)
        yield LatticePattern("king-t2", t, 2)
        for r in range(1, t + 1):
            yield LatticePattern("triangular", t, r)


def _scan_towers_in_box(pattern, xmin, xmax, ymin, ymax):
    """Reference: scan every generator index up to the box's reach.

    For t >= 2 every basis has an inverse of norm at most 1, so an index
    of a tower in the box is no larger than the box's largest coordinate.
    """
    reach = max(abs(xmin), abs(xmax), abs(ymin), abs(ymax)) + 4
    found = []
    for x in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            px, py = pattern.tower_at(x, y)
            if xmin <= px <= xmax and ymin <= py <= ymax:
                found.append((px, py))
    return sorted(found)


def _scan_window_report(pattern, t, r, halfwidth):
    """Reference: every interior vertex against every tower in reach."""
    inner = halfwidth - t
    towers = _scan_towers_in_box(pattern, -(halfwidth + t), halfwidth + t,
                                 -(halfwidth + t), halfwidth + t)
    reception, zones = {}, {}
    for vx in range(-inner, inner + 1):
        for vy in range(-inner, inner + 1):
            near = [pattern.distance((vx, vy), w) for w in towers]
            reception[(vx, vy)] = sum(t - d for d in near if d < t)
            zones[(vx, vy)] = sum(1 for d in near if d < t)
    deficient = tuple(sorted(v for v, f in reception.items() if f < r))
    overlap = tuple(sorted(v for v, z in zones.items() if z >= 2))
    return VerificationReport(
        dominated=not deficient,
        min_reception=min(reception.values()),
        deficient=deficient,
        overlap_vertices=overlap,
        efficient=not deficient and all(reception[v] == r for v in overlap),
        wasted_signal=sum(max(0, reception[v] - r) for v in overlap),
        total_excess=sum(max(0, f - r) for f in reception.values()),
        t=t,
        r=r,
        r_exceeds_t=r > t,
    )


def _nearest_lattice_vector(pattern, point):
    (ax, ay), (bx, by) = pattern.basis()
    det = ax * by - bx * ay
    x = Fraction(by * point[0] - bx * point[1], det)
    y = Fraction(ax * point[1] - ay * point[0], det)
    return pattern.tower_at(round(x), round(y))


class TestPatternCoordinates:
    def test_king_t1_substitution(self):
        pattern = king_lattice_pattern(2, 1)
        assert pattern.tower_at(1, 1) == (3, 3)
        assert pattern.tower_at(0, 0) == (0, 0)
        assert pattern.tower_at(-1, 2) == (-3, 6)

    def test_king_t2_substitution(self):
        assert king_lattice_pattern(3, 2).tower_at(1, 0) == (4, 1)
        assert king_lattice_pattern(2, 2).tower_at(0, -1) == (1, -2)

    def test_triangular_substitution(self):
        pattern = triangular_lattice_pattern(2, 1)
        assert pattern.tower_at(0, 0) == (0, 0)
        # index (1, 0): 3 steps along (-1, 0) plus 2 along (1, 1).
        assert pattern.tower_at(1, 0) == (-1, 2)
        assert triangular_lattice_pattern(3, 2).tower_at(0, 1) == (3, 4)

    def test_unsupported_r(self):
        with pytest.raises(UnsupportedR):
            king_lattice_pattern(3, 3)
        with pytest.raises(HypothesisViolated):
            king_lattice_pattern(1, 1)

    def test_translation_invariance(self):
        for pattern in (
            king_lattice_pattern(2, 1),
            king_lattice_pattern(3, 2),
            triangular_lattice_pattern(3, 2),
        ):
            v1, v2 = pattern.basis()
            towers = set(pattern.towers_in_box(-20, 20, -20, 20))
            for basis_vec in (v1, v2):
                for w in pattern.towers_in_box(-10, 10, -10, 10):
                    shifted = (w[0] + basis_vec[0], w[1] + basis_vec[1])
                    assert shifted in towers

    def test_pattern_includes_origin(self):
        for pattern in (
            king_lattice_pattern(4, 1),
            king_lattice_pattern(4, 2),
            triangular_lattice_pattern(4, 3),
        ):
            assert (0, 0) in pattern.towers_in_box(-1, 1, -1, 1)


class TestWindowVerification:
    def test_king_t1_window(self):
        report = verify_lattice_window(king_lattice_pattern(2, 1), 2, 1, 8)
        assert report.dominated and report.efficient
        assert report.overlap_vertices == ()  # zones tile the plane exactly

    def test_king_t2_window_overlap_exactly_two(self):
        report = verify_lattice_window(king_lattice_pattern(3, 2), 3, 2, 12)
        assert report.dominated and report.efficient
        assert report.overlap_vertices  # borders do overlap
        assert report.wasted_signal == 0

    def test_triangular_window(self):
        report = verify_lattice_window(triangular_lattice_pattern(2, 1), 2, 1, 8)
        assert report.dominated and report.efficient

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            verify_lattice_window(king_lattice_pattern(2, 1), 2, 1, 5)

    def test_pattern_parameter_mismatch(self):
        with pytest.raises(HypothesisViolated):
            verify_lattice_window(king_lattice_pattern(2, 1), 3, 1, 12)


PATTERNS = list(_valid_patterns(range(2, 10)))


class TestTowersInBox:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(PATTERNS),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(-4, 30),
        st.integers(-4, 30),
    )
    def test_matches_index_scan(self, pattern, x0, y0, width, height):
        # Negative widths give inverted (empty) boxes.
        box = (x0, x0 + width, y0, y0 + height)
        assert pattern.towers_in_box(*box) == _scan_towers_in_box(pattern, *box)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PATTERNS),
        st.integers(-10**9, 10**9),
        st.integers(-10**9, 10**9),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_far_box_is_a_translate(self, pattern, i, j, x0, y0):
        lx, ly = pattern.tower_at(i, j)
        near = pattern.towers_in_box(x0, x0 + 12, y0, y0 + 9)
        far = pattern.towers_in_box(x0 + lx, x0 + 12 + lx, y0 + ly, y0 + 9 + ly)
        assert far == [(px + lx, py + ly) for px, py in near]

    def test_far_box_scans_only_its_index_rectangle(self, monkeypatch):
        calls = [0]
        tower_at = LatticePattern.tower_at

        def counting(self, x, y):
            calls[0] += 1
            return tower_at(self, x, y)

        monkeypatch.setattr(LatticePattern, "tower_at", counting)
        centre = (10**6, 10**6)
        found = 0
        for pattern in _valid_patterns(range(2, 10)):
            calls[0] = 0
            far = pattern.towers_in_box(centre[0] - 5, centre[0] + 5,
                                        centre[1] - 5, centre[1] + 5)
            assert calls[0] <= 300, (pattern, calls[0])
            lx, ly = _nearest_lattice_vector(pattern, centre)
            cx, cy = centre[0] - lx, centre[1] - ly
            near = pattern.towers_in_box(cx - 5, cx + 5, cy - 5, cy + 5)
            assert far == [(px + lx, py + ly) for px, py in near]
            found += len(far)
        assert found

    def test_triangular_t1_is_every_point(self):
        # The only case whose index can exceed its coordinates (twice).
        pattern = triangular_lattice_pattern(1, 1)
        box = (-30, 25, -20, 40)
        assert pattern.towers_in_box(*box) == [
            (x, y) for x in range(-30, 26) for y in range(-20, 41)]


class TestWindowAgainstScan:
    @pytest.mark.parametrize("pattern", list(_valid_patterns(range(2, 6))),
                             ids=lambda p: f"{p.kind}-{p.t}-{p.r}")
    def test_matches_interior_by_tower_scan(self, pattern):
        t, r = pattern.t, pattern.r
        for halfwidth in (3 * t, 3 * t + 1):
            assert verify_lattice_window(pattern, t, r, halfwidth) == \
                _scan_window_report(pattern, t, r, halfwidth)

    def test_deficient_pattern_matches_scan(self):
        # Raising r by one (so the coordinates change too) gives deficient
        # windows (king-t1, triangular r = t + 1) and wasteful ones (king-t2).
        for pattern in _valid_patterns(range(2, 5)):
            wrong = LatticePattern(pattern.kind, pattern.t, pattern.r + 1)
            t, r = wrong.t, wrong.r
            assert verify_lattice_window(wrong, t, r, 3 * t) == \
                _scan_window_report(wrong, t, r, 3 * t)
