import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subcart import frames, linalg, poly
from subcart.cli import main
from subcart.errors import FrameEvaluationError
from subcart.frames import (
    FrameSection,
    common_pivot_exists,
    frame_at,
    verify,
    verify_local_triviality,
)
from subcart.space import SpacePresentation, load_space, sample
from subcart.stratify import stratify
from subcart.tangent import analyse
from subcart.fixtures import NAMES, fixture_path

from conftest import _counted
from oracles import divided, minor_rank, naive_image, naive_jacobian, per_anchor_triviality
from test_tangent import _rref_basis


@pytest.fixture
def plane():
    return SpacePresentation(
        name="plane", ambient_dim=2, sample_points=((F(0), F(0)), (F(1), F(2)))
    )


# -- frame construction -----------------------------------------------------------


def _frame(space, point):
    """The frame anchored at a member point: its analysis's pivots frozen."""
    a = analyse(space, point)
    return FrameSection(a.point, a.pivots)


def test_cone_frame_delta_pattern(cone):
    frame = _frame(cone, (F(1), F(0), F(1)))
    assert frame.pivot_columns == (0,)
    assert frame.free_columns == (1, 2)
    vectors = frame.evaluate(analyse(cone, (F(1), F(0), F(1))))
    assert vectors == ((F(0), F(1), F(0)), (F(1), F(0), F(1)))
    # dq_i(X_j) on the free coordinates is exactly the Kronecker delta
    for j, v in enumerate(vectors):
        for i, c in enumerate(frame.free_columns):
            assert v[c] == (1 if i == j else 0)


def test_unconstrained_plane_frame_is_coordinate_basis(plane):
    frame = _frame(plane, (F(0), F(0)))
    assert frame.pivot_columns == ()
    assert frame.evaluate(analyse(plane, (F(1), F(2)))) == ((F(1), F(0)), (F(0), F(1)))


def test_cone_frame_extends_exactly(cone):
    frame = _frame(cone, (F(1), F(0), F(1)))
    vectors = frame.evaluate(analyse(cone, (F(3), F(4), F(5))))
    assert vectors == ((F(-4, 3), F(1), F(0)), (F(5, 3), F(0), F(1)))
    J = naive_jacobian(cone, (F(3), F(4), F(5)))
    for v in vectors:
        assert all(x == 0 for x in linalg.matrix_vector(J, v))


def test_frame_errors_on_pivot_pattern_change(cone):
    frame = _frame(cone, (F(1), F(0), F(1)))
    with pytest.raises(FrameEvaluationError):
        frame.evaluate(analyse(cone, (F(0), F(1), F(1))))  # gradient's first entry vanishes


def test_frame_errors_on_rank_change(cone):
    frame = _frame(cone, (F(1), F(0), F(1)))
    with pytest.raises(FrameEvaluationError):
        frame.evaluate(analyse(cone, (F(0), F(0), F(0))))  # apex: rank drops to 0


def test_frame_at_is_deterministic(cone):
    report = stratify(cone)
    a, evaluations = frame_at(report, (F(3), F(4), F(5)))
    b, again = frame_at(report, (F(3), F(4), F(5)))
    assert a == b and evaluations == again
    at = analyse(cone, (F(3), F(4), F(5)))
    assert a.evaluate(at) == b.evaluate(at)


def test_frame_annihilation_across_samples(cone):
    frame = _frame(cone, (F(1), F(0), F(1)))
    for point in sample(cone):
        at = analyse(cone, point)
        if not frame.pivot_valid_at(at):
            continue
        J = naive_jacobian(cone, point)
        vectors = frame.evaluate(at)
        assert len(vectors) == 2
        for v in vectors:
            assert all(x == 0 for x in linalg.matrix_vector(J, v))


def test_common_pivot_chart_exists_across_cone_chart_boundary(cone):
    a, b = analyse(cone, (F(7, 4), F(6), F(25, 4))), analyse(cone, (F(0), F(9, 2), F(9, 2)))
    assert common_pivot_exists(a, b)


def test_no_common_pivot_chart_across_cross_branches(cross):
    a, b = analyse(cross, (F(1, 4), F(0))), analyse(cross, (F(0), F(1, 4)))
    assert not common_pivot_exists(a, b)


def _analyse_matrix(m, ncols):
    """Analysis at the origin of the space cut out by the linear forms with
    coefficient rows m, whose Jacobian there is exactly m."""
    units = [tuple(int(i == j) for i in range(ncols)) for j in range(ncols)]
    equations = tuple(
        poly.Polynomial(ncols, dict(zip(units, row))) for row in m
    )
    space = SpacePresentation(name="linear", ambient_dim=ncols, equations=equations)
    return analyse(space, (F(0),) * ncols)


@st.composite
def matrix_pairs(draw):
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    entries = st.integers(-2, 2)
    matrix = st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )
    return draw(matrix), draw(matrix), ncols


def _minor_charts(m, ncols):
    r = minor_rank(m)
    return {
        cols
        for cols in combinations(range(ncols), r)
        if minor_rank([[row[c] for c in cols] for row in m]) == r
    }


@settings(deadline=None, max_examples=200)
@given(matrix_pairs())
def test_chart_rule_matches_minor_enumeration(pair):
    a, b, ncols = pair
    x, y = _analyse_matrix(a, ncols), _analyse_matrix(b, ncols)
    charts_a, charts_b = _minor_charts(a, ncols), _minor_charts(b, ncols)
    assert x.charts == charts_a and y.charts == charts_b
    shared = minor_rank(a) == minor_rank(b) and bool(charts_a & charts_b)
    assert common_pivot_exists(x, y) == shared
    for m, analysis in ((a, x), (b, y)):
        for chart in analysis.charts:
            basis = divided(*analysis.kernel(chart))
            assert basis == divided(*linalg.solve_with_pivots(m, ncols, chart))
            assert all(c == 0 for v in basis for c in linalg.matrix_vector(m, v))


@settings(deadline=None, max_examples=200)
@given(matrix_pairs())
def test_chart_probe_agrees_with_chart_sets(pair):
    # asked first, before any chart set exists: a probe that answers
    # leaves both chart sets underived, and its True must be a shared chart
    a, b, ncols = pair
    x, y = _analyse_matrix(a, ncols), _analyse_matrix(b, ncols)
    shared = common_pivot_exists(x, y)
    probed = "charts" not in vars(x) and "charts" not in vars(y)
    assert shared == (x.rank == y.rank and not x.charts.isdisjoint(y.charts))
    if probed and x.rank == y.rank:
        assert shared and _minor_charts(a, ncols) & _minor_charts(b, ncols)


def test_chart_probe_cancellation_falls_back_to_chart_sets():
    # det(A diag(2, 3, 4) B^T) = 1*2*3 + 1*3*(-2) = 0, yet columns 1 and 2
    # are charts of both points
    x = _analyse_matrix([[F(1), F(1), F(0)]], 3)
    y = _analyse_matrix([[F(3), F(-2), F(0)]], 3)
    assert (x.pivot_rows, y.pivot_rows) == (((1, 1, 0),), ((3, -2, 0),))
    assert common_pivot_exists(x, y)
    assert "charts" in vars(x) and x.charts == y.charts == {(0,), (1,)}


# -- smoothness ---------------------------------------------------------------------
# By Cramer's rule a frame's components are rational functions whose
# denominator is its frozen pivots' chart minor: the frame is smooth exactly
# where ``pivot_valid_at`` holds, and ``evaluate`` raises everywhere else.


def test_cone_frame_smoothness_along_both_parameters(cone):
    sampler = cone.samplers[0]
    frame = _frame(cone, naive_image(sampler, (F(1), F(1, 2))))
    assert frame.pivot_columns == (0,)
    for h in (F(1, 8), F(1, 16), F(-1, 16), F(-1, 8)):
        for params in ((1 + h, F(1, 2)), (F(1), F(1, 2) + h)):
            point = naive_image(sampler, params)
            at = analyse(cone, point)
            assert frame.pivot_valid_at(at)
            assert frame.evaluate(at) == _rref_basis(naive_jacobian(cone, point), 3, (0,))


def test_constant_frame_is_the_same_at_every_grid_image(half_line):
    frame = _frame(half_line, naive_image(half_line.samplers[0], (F(1),)))
    points = sample(half_line)
    assert len(points) == 9
    for point in points:
        at = analyse(half_line, point)
        assert frame.pivot_valid_at(at)
        assert frame.evaluate(at) == ((F(1),),)


def test_forced_wrong_pivot_fails_or_errors(cone):
    # deliberately discontinuous section: freeze a pivot column where the
    # Jacobian vanishes at the anchor
    broken = FrameSection(
        anchor=(F(1), F(0), F(1)),
        pivot_columns=(1,),  # gradient (2, 0, -2): column 2 is zero
    )
    at = analyse(cone, (F(1), F(0), F(1)))
    assert not broken.pivot_valid_at(at)
    with pytest.raises(FrameEvaluationError):
        broken.evaluate(at)


def test_frame_is_exact_up_to_the_chart_boundary(cone):
    # the frame anchored at s(21/32, 1/2) freezes column 1, whose gradient
    # entry 2 x1 = 2 (u^2 - v^2) vanishes on the line u = v of parameters
    sampler = cone.samplers[0]
    frame = _frame(cone, naive_image(sampler, (F(21, 32), F(1, 2))))
    assert frame.pivot_columns == (0,)
    inside = naive_image(sampler, (F(17, 32), F(1, 2)))
    assert frame.pivot_valid_at(analyse(cone, inside))
    expected = _rref_basis(naive_jacobian(cone, inside), 3, (0,))
    assert frame.evaluate(analyse(cone, inside)) == expected
    boundary = naive_image(sampler, (F(1, 2), F(1, 2)))
    assert boundary == (F(0), F(1, 2), F(1, 2))
    assert not frame.pivot_valid_at(analyse(cone, boundary))
    with pytest.raises(FrameEvaluationError, match="pivot pattern"):
        frame.evaluate(analyse(cone, boundary))


# -- local triviality ----------------------------------------------------------------


def test_local_triviality_passes_on_smooth_and_singular_fixtures(
    cone, sphere, cross, umbrella, half_line, single_point
):
    for space in (cone, sphere, cross, umbrella, half_line, single_point):
        report = stratify(space)
        assert verify_local_triviality(report).passed, space.name


def _targets(report, i):
    """The regular records of record i's dimension strictly within the
    report's radius of it, ascending: the targets of anchor i."""
    return [
        j
        for j in report.index.neighbours(i, strict=True)
        if report.records[j].label == "regular"
        and report.records[j].dim == report.records[i].dim
    ]


def test_triviality_targets_use_strict_radius(cross):
    report = stratify(cross)
    # closest cross-branch pairs sit exactly at the default radius and are
    # excluded, matching the branch-separation argument
    for i, r in enumerate(report.records):
        if r.label != "regular":
            continue
        for j in _targets(report, i):
            other = report.records[j]
            assert (r.point[0] == 0) == (other.point[0] == 0)  # same branch


def test_local_triviality_fails_on_discontinuous_section_fixture():
    space = load_space(fixture_path("discontinuous_section"))
    report = stratify(space)
    assert report.all_pass()  # usc, open, dense all hold
    verdict = verify_local_triviality(report)
    assert not verdict.passed
    assert "common pivot" in verdict.detail


def _reads(report):
    """(anchor index, target index, chart) of every frame evaluation of
    local triviality, anchor by anchor."""
    for i, r in enumerate(report.records):
        if r.label == "regular":
            chart = report.analyses[i].pivots
            for j in _targets(report, i):
                if chart in report.analyses[j].charts:
                    yield i, j, chart


def _evaluations(report):
    """(target index, chart) of every frame evaluation that local
    triviality reads, in the order an anchor-by-anchor walk reads them."""
    for _, j, chart in _reads(report):
        yield j, chart


def _corrupted(report, j, chart, corrupt):
    """The report with the stored integer kernel of record j for the chart
    replaced by ``corrupt(kernel, chart)``."""
    other = report.analyses[j]
    analyses = list(report.analyses)
    analyses[j] = replace(other)
    # the copy's per-chart cache, which ``kernel`` reads before solving
    analyses[j]._kernels[chart] = corrupt(other.kernel(chart), chart)
    return replace(report, analyses=tuple(analyses))


def _off_kernel(kernel, chart):
    vectors, d = kernel
    first = list(vectors[0])
    first[chart[0]] += 1  # a chart column of the Jacobian is nonzero
    return (tuple(first),) + vectors[1:], d


def _permuted(kernel, chart):
    vectors, d = kernel
    return vectors[::-1], d  # still a kernel basis, but not the identity on free columns


def _dropped(kernel, chart):
    vectors, d = kernel
    return vectors[1:], d


def _zeroed(kernel, chart):
    vectors, _ = kernel
    return tuple((0,) * len(w) for w in vectors), 0  # 0 / 0 is no basis


def _doubled_scale(kernel, chart):
    vectors, d = kernel
    return vectors, 2 * d  # W / 2d is half the identity on free columns


def _assert_fails_at(report, point, detail):
    verdict = verify_local_triviality(report)
    assert not verdict.passed
    assert detail in verdict.detail
    assert verdict.detail.endswith(f"at {poly.format_point(point)}")


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_off_kernel, "fails annihilation"),
        (_permuted, "not the identity"),
        (_doubled_scale, "not the identity"),
        (_zeroed, "not the identity"),
    ],
)
def test_local_triviality_checks_stored_bases(cone, corrupt, detail):
    report = stratify(cone)
    i, j, chart = next(_reads(report))
    bad = _corrupted(report, j, chart, corrupt)
    _assert_fails_at(bad, report.records[j].point, detail)
    _assert_frame_refuses_as_the_verdict(bad, i)


def test_local_triviality_checks_the_vector_count(cone):
    report = stratify(cone)
    i, j, chart = next(_reads(report))
    bad = _corrupted(report, j, chart, _dropped)
    verdict = verify_local_triviality(bad)
    assert not verdict.passed
    point = poly.format_point(report.records[j].point)
    assert verdict.detail.endswith(f"returned 1 vectors at {point}, expected 2")
    _assert_frame_refuses_as_the_verdict(bad, i)


def _assert_frame_refuses_as_the_verdict(report, i):
    # ``frame`` at the anchor of the corrupted read checks the basis it
    # would print, and refuses it with the failing verdict's detail
    detail = verify_local_triviality(report).detail
    with pytest.raises(FrameEvaluationError) as raised:
        frame_at(report, report.records[i].point)
    assert str(raised.value) == detail


def test_local_triviality_checks_each_chart_of_a_target(cone):
    # a target read through one chart is checked again through another
    report = stratify(cone)
    charts_read = {}
    for j, chart in _evaluations(report):
        if charts_read.setdefault(j, chart) != chart:
            break
    else:
        raise AssertionError("no target is read through two charts")
    bad = _corrupted(report, j, chart, _off_kernel)
    _assert_fails_at(bad, report.records[j].point, "fails annihilation")


@pytest.mark.parametrize("name", NAMES)
def test_verify_of_a_loaded_space_tests_no_membership(name, member_calls):
    # samples are validated at load; only the public ``analyse`` tests a
    # point, so ``verify`` makes no membership test at all
    space = load_space(fixture_path(name))
    member_calls.clear()  # the load tests each explicit sample point
    verify(space)
    assert member_calls == []
    analyse(space, sample(space)[0])  # every binding is counted
    assert len(member_calls) == 1


def test_frames_derive_chart_sets_only_on_a_miss(tmp_path, bareiss_calls, capsys):
    # n = 12 with rank 6: a point has C(12, 6) = 924 column sets, and every
    # target's kernel at the anchor's pivots settles its pair, so no chart
    # set is derived; deriving them made 59,264 eliminations here.  Every
    # anchor has the target's own pivots, whose kernel is read off the
    # target's analysis: its one elimination is all the work
    data = {
        "name": "wide",
        "ambient_dim": 12,
        "equations": [f"x{i}" for i in range(1, 7)],
        "samplers": [
            {
                "param_dim": 6,
                "numerators": ["0"] * 6 + [f"x{i}" for i in range(1, 7)],
                "denominator": "1",
                "box": [["0", "1"]] * 6,
                "resolution": 2,
            }
        ],
    }
    path, out = tmp_path / "wide.json", tmp_path / "verify.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    bareiss_calls.clear()
    assert main(["verify", str(path), "--radius=2", "--out", str(out)]) == 0
    records = json.loads(out.read_text(encoding="utf-8"))["counts"]["records"]
    assert records == 64
    assert len(bareiss_calls) == records
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "fe77c176ee50c724104cfd6dc5fc9265e937a23f24fb02c3de1f61e9157ea68d"
    )
    capsys.readouterr()


def test_shares_chart_probes_before_deriving_chart_sets(
    circles_path, tmp_path, bareiss_calls, capsys
):
    # points that mix (3/5, 4/5) and (0, 1) pairs share only charts that
    # are neither one's leftmost pivots, so both points' pivots often miss
    # at the other; deriving both chart sets (C(12, 6) eliminations each)
    # on every miss made 63,232 eliminations here (61,384 once each
    # point's pivots are tried at the other), and the Cauchy-Binet probe
    # settles every such miss with one 6-by-6 elimination (6,798 in all)
    out = tmp_path / "verify.json"
    bareiss_calls.clear()
    assert main(["verify", str(circles_path), "--radius=2", "--out", str(out)]) == 0
    assert len(bareiss_calls) <= 6800
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "da72f4b6116e3df6a94e744f2a2f2d67d3e51ea3191c771853b2d058f604763d"
    )
    capsys.readouterr()


# -- the per-target walk against the per-anchor walk --------------------------------


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_per_target_walk_matches_per_anchor_walk(name, scale):
    space = load_space(fixture_path(name))
    report = stratify(space, stratify(space).radius * scale)
    assert verify_local_triviality(report) == per_anchor_triviality(report)


def _scaled(name, resolution, tmp_path):
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for sampler in data["samplers"]:
        sampler["resolution"] = resolution
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return load_space(path)


def test_per_target_walk_matches_per_anchor_walk_at_scale(tmp_path, circles):
    for report in (
        stratify(_scaled("sphere", 11, tmp_path)),
        stratify(_scaled("whitney_umbrella", 15, tmp_path)),
        stratify(circles, F(2)),
    ):
        verdict = verify_local_triviality(report)
        assert verdict.passed
        assert verdict == per_anchor_triviality(report)


def test_triviality_solves_only_charts_off_the_pivots(tmp_path, solve_calls):
    # each point's own-chart kernel is read off its analysis; solving
    # every (target, chart) kernel would make 180 solves here
    report = stratify(_scaled("sphere", 11, tmp_path))
    solve_calls.clear()
    verdict = verify_local_triviality(report)
    assert verdict.detail == "2588 frame evaluations verified exactly"
    assert len(solve_calls) == 60
    pivots = {a.jacobian: a.pivots for a in report.analyses}
    assert all(chart != pivots[matrix] for matrix, _, chart in solve_calls)


def test_triviality_checks_each_kernel_once(tmp_path, circles, monkeypatch):
    # a (target, chart) kernel is checked at its first read only, however
    # many anchors read it (on the sphere, 172 checks for 2,588 reads), and
    # every read counts as an evaluation
    checks = _counted(monkeypatch, frames, "_kernel_failure")
    for report in (
        stratify(_scaled("sphere", 11, tmp_path)),
        stratify(_scaled("whitney_umbrella", 15, tmp_path)),
        stratify(circles, F(2)),
    ):
        checks.clear()
        verdict = verify_local_triviality(report)
        reads = list(_evaluations(report))
        forms = [r.form for r in report.records]
        assert [(other.form, chart) for _, other, chart, _ in checks] == [
            (forms[j], chart) for j, chart in dict.fromkeys(reads)
        ]
        assert verdict.detail == f"{len(reads)} frame evaluations verified exactly"
        assert verdict == per_anchor_triviality(report)


def _first_middle_last(reads):
    reads = list(dict.fromkeys(reads))  # each (target, chart) at its first read
    return [reads[0], reads[len(reads) // 2], reads[-1]]


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize(
    "corrupt", [_off_kernel, _permuted, _dropped, _zeroed, _doubled_scale]
)
def test_corrupted_kernels_fail_both_walks_alike(cone, corrupt, position):
    report = stratify(cone)
    j, chart = _first_middle_last(_evaluations(report))[position]
    bad = _corrupted(report, j, chart, corrupt)
    verdict = verify_local_triviality(bad)
    assert not verdict.passed
    assert verdict == per_anchor_triviality(bad)


def test_two_corrupted_kernels_report_the_first_read(cone):
    # the last read is corrupted first, so the cache order cannot decide
    report = stratify(cone)
    first, _, last = _first_middle_last(_evaluations(report))
    bad = _corrupted(report, *last, _off_kernel)
    bad = _corrupted(bad, *first, _permuted)
    verdict = verify_local_triviality(bad)
    assert verdict == per_anchor_triviality(bad)
    assert "not the identity" in verdict.detail


@pytest.mark.parametrize("anchor", [0, 1, 2, 3])
def test_chart_failure_and_kernel_failure_order_by_anchor(anchor):
    # at radius 1/2 the samples form the path (1/2, 0) - (1/4, 0) -
    # (0, 1/8) - (0, 1/2), and the walk fails at anchor 1, (1/4, 0), which
    # shares no chart with (0, 1/8); a corrupted kernel first read by
    # anchor 0 comes before that failure, and one first read by anchor 1
    # itself (a later phase) or by a later anchor comes after it
    space = load_space(fixture_path("discontinuous_section"))
    report = stratify(space, F(1, 2))
    reads = {}
    for i, j, chart in _reads(report):
        reads.setdefault((j, chart), i)
    j, chart = next(read for read, i in reads.items() if i == anchor)
    bad = _corrupted(report, j, chart, _off_kernel)
    verdict = verify_local_triviality(bad)
    assert verdict == per_anchor_triviality(bad)
    assert ("fails annihilation" if anchor == 0 else "common pivot") in verdict.detail


# -- the frame command's walk --------------------------------------------------------


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_anchored_frame_reads_each_anchors_targets(name, scale):
    # every regular record as the anchor of ``frame_at``: it fails at the
    # first target whose chart set misses the anchor's, and otherwise
    # returns the anchor's reads of ``_reads``, each basis the rational
    # elimination's at the anchor's pivots
    space = load_space(fixture_path(name))
    report = stratify(space, stratify(space).radius * scale)
    reads = {}
    for i, j, _ in _reads(report):
        reads.setdefault(i, []).append(j)
    for i, record in enumerate(report.records):
        if record.label != "regular":
            continue
        anchor = report.analyses[i]
        missing = [
            j for j in _targets(report, i) if anchor.charts.isdisjoint(report.analyses[j].charts)
        ]
        if missing:
            point = poly.format_point(report.records[missing[0]].point)
            with pytest.raises(FrameEvaluationError, match=re.escape(f"and {point}:")):
                frame_at(report, record.point)
            continue
        frame, evaluations = frame_at(report, record.point)
        assert frame.pivot_columns == anchor.pivots
        targets = reads.get(i, [])
        assert [p for p, _ in evaluations] == [report.records[j].point for j in targets]
        for j, (point, basis) in zip(targets, evaluations):
            J = naive_jacobian(space, point)
            assert basis == _rref_basis(J, space.ambient_dim, anchor.pivots)


def test_anchored_frame_skips_targets_of_another_dimension():
    # on x1*x2^2 = 0 the gradient vanishes on the x1-axis, so its samples
    # have dimension 2, while (0, 1/8) has dimension 1 and no sample of a
    # lower dimension near it: a regular anchor that is no sample, whose
    # neighbours are regular but of another dimension, so no target
    space = SpacePresentation(
        name="axes",
        ambient_dim=2,
        equations=(poly.parse("x1*x2^2", 2),),
        sample_points=((F(1, 4), F(0)), (F(1, 2), F(0))),
    )
    report = stratify(space, F(1, 2))
    assert [r.label for r in report.records] == ["regular", "regular"]
    frame, evaluations = frame_at(report, (F(0), F(1, 8)))
    assert frame.pivot_columns == (0,) and evaluations == []
