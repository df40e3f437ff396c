"""Scalar fields and the discontinuity probe."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_ref
from pathcert.errors import InputError, WitnessNotFoundError
from pathcert.generators import GeneratorSpec, generate_points
from pathcert.harness import (
    BUILTIN_FIELDS,
    ScalarField,
    _delta_ladder,
    certify_discontinuity,
    derive_witness,
    field_from_expression,
    get_builtin_field,
)
from pathcert.mollifier import dense_grid, eval_smooth_many, sorted_unique
from pathcert.skeleton import WitnessSequence


def _diagonal_spec(count=160, stop=0.012):
    return GeneratorSpec(kind="diagonal", dimension=2, count=count, stop=stop)


def test_builtin_inventory():
    assert set(BUILTIN_FIELDS) == {
        "rational2d",
        "parabola",
        "ray_bump2d",
        "ray_bump3d",
        "rational3d",
    }
    for name, field in BUILTIN_FIELDS.items():
        assert field.name == name
        assert field(np.zeros(field.dimension)) == 0.0


def test_rational2d_values():
    field = get_builtin_field("rational2d")
    assert field([0.3, 0.3]) == pytest.approx(1.0, rel=1e-14)
    assert field([0.3, -0.3]) == pytest.approx(-1.0, rel=1e-14)
    assert field([0.3, 0.0]) == 0.0


def test_rational3d_values():
    field = get_builtin_field("rational3d")
    assert field([0.2, 0.2, 0.0]) == pytest.approx(1.0, rel=1e-14)
    assert field([0.0, 0.0, 0.2]) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rational_fields_of_a_tiny_point():
    """A nonzero point whose squares underflow is judged by its direction;
    it used to give nan with a RuntimeWarning."""
    rational2d, rational3d = get_builtin_field("rational2d"), get_builtin_field("rational3d")
    assert rational2d([1e-200, 1e-200]) == 1.0
    assert rational3d([1e-200, 1e-200, 0.0]) == 1.0
    assert rational3d([5e-324] * 3) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # squares that are subnormal but not 0: the field is scale invariant,
    # so the point scaled by an exact power of two is the reference
    for field, x in (
        (rational2d, [-6.894445735998655e-163, 1.6529164142023946e-162]),
        (rational2d, [3e-162, 1e-162]),
        (rational2d, [1.57e-162, 4.9e-163]),
        (rational3d, [3e-162, 1e-162, 1e-162]),
    ):
        expected = field(np.array(x) * 2.0**540)
        assert abs(expected) > 0.5
        assert field(x) == pytest.approx(expected, rel=1e-14)


# row entries: zeros, subnormals, extremes, non-finite values and both signs,
# besides plain floats
_SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300,
    1e-160, 3e-162, 1.0, -1.0, 0.5, 2.0, 1e154, -1e154, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
)
_ENTRY = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
_CONSTANT = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 1e300, 0.1, 2.5e-3))
_TREE = st.recursive(
    st.one_of(
        st.tuples(st.just("const"), _CONSTANT),
        st.tuples(st.just("var"), st.integers(1, 5)),
        st.just(("norm",)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), inner, inner),
        st.tuples(st.sampled_from(("neg", "abs")), inner),
    ),
    max_leaves=10,
)


def _text(tree) -> str:
    kind = tree[0]
    if kind == "const":
        return repr(tree[1])
    if kind == "var":
        return f"x{tree[1]}"
    if kind == "norm":
        return "norm(x)"
    if kind == "neg":
        return f"(-{_text(tree[1])})"
    if kind == "abs":
        return f"abs({_text(tree[1])})"
    return f"({_text(tree[1])}{kind}{_text(tree[2])})"


def _rows(data, dimension):
    rows = data.draw(st.lists(st.lists(_ENTRY, min_size=dimension, max_size=dimension),
                              min_size=1, max_size=8))
    rows.append([0.0] * dimension)  # one origin row in every batch
    return np.array(rows)


def _assert_same_bits(field, rows, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field.values(rows)
    same = (got.view(np.int64) == expected.view(np.int64)) | (np.isnan(got) & np.isnan(expected))
    assert got.shape == expected.shape and same.all(), (field.name, rows[~same], got[~same],
                                                         expected[~same])


@settings(max_examples=300)
@given(tree=_TREE, data=st.data())
def test_expression_values_keep_the_bits_of_one_row_at_a_time(tree, data):
    """A field from a random expression, evaluated on a whole batch, gives
    every row the bits of the per-row evaluation in Python floats (NaN
    matching NaN), with no numpy warning, overflow included."""
    field = field_from_expression(_text(tree))
    rows = _rows(data, field.dimension)
    reference = field_ref.normalized(lambda x: field_ref.expression(tree, x), field.dimension)
    _assert_same_bits(field, rows, field_ref.values(reference, rows))


_REFERENCE_FIELDS = {
    "rational2d": field_ref.rational2d,
    "rational3d": field_ref.rational3d,
    "parabola": field_ref.parabola,
    "ray_bump2d": field_ref.ray_bump(np.array([1.0, 1.0]) / math.sqrt(2.0),
                                     math.tan(math.pi / 8.0)),
    "ray_bump3d": field_ref.ray_bump(np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
                                     math.tan(math.pi / 8.0)),
}


@settings(max_examples=150)
@given(name=st.sampled_from(sorted(_REFERENCE_FIELDS)), data=st.data())
def test_builtin_values_keep_the_bits_of_one_row_at_a_time(name, data):
    """Each builtin, evaluated on a whole batch with its tiny-denominator
    rescue applied by row mask, gives every row the bits of its per-row
    form, with no numpy warning."""
    field = get_builtin_field(name)
    rows = _rows(data, field.dimension)
    _assert_same_bits(field, rows, field_ref.values(_REFERENCE_FIELDS[name], rows))


def test_parabola_is_squared_norm():
    field = get_builtin_field("parabola")
    assert field([0.3, 0.4]) == pytest.approx(0.25, rel=1e-14)


def test_ray_bump_peak_and_falloff():
    field = get_builtin_field("ray_bump2d")
    axis = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert field(0.1 * axis) == pytest.approx(1.0, rel=1e-14)
    # an eighth turn from the axis sits at the kernel's 1/e width
    rot = math.pi / 8.0
    c, s = math.cos(rot), math.sin(rot)
    tilted = 0.1 * np.array([c * axis[0] - s * axis[1], s * axis[0] + c * axis[1]])
    assert field(tilted) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert field([-0.1, -0.1]) == 0.0


def test_ray_bump_of_a_tiny_point():
    """A point whose dot product with the axis squares to 0 is judged by
    its direction; it used to raise ZeroDivisionError."""
    for name in ("ray_bump2d", "ray_bump3d"):
        field = get_builtin_field(name)
        d = field.dimension
        assert field(np.full(d, 1e-200)) == pytest.approx(1.0, rel=1e-14)
        assert field(np.full(d, 5e-324)) == pytest.approx(1.0, rel=1e-14)
    # (x . axis)^2 subnormal but not 0; the bump lies in [0, 1]
    field = get_builtin_field("ray_bump2d")
    x = np.array([1.14238012030717e-162, 1.1486402373392284e-162])
    assert field(x) == pytest.approx(field(x * 2.0**540), rel=1e-14)
    assert 0.9999 < field(x) <= 1.0


def test_field_rejects_wrong_shape():
    field = get_builtin_field("rational2d")
    with pytest.raises(InputError):
        field([0.1, 0.2, 0.3])


def _value_rows(dimension: int) -> np.ndarray:
    """Rows for comparing ``values`` with per-row calls: the origin, a
    signed-zero origin, ordinary points, points where the builtin fields
    divide 0 by 0, and rows holding inf and nan."""
    rng = np.random.default_rng(dimension)
    special = [
        np.zeros(dimension),
        -np.zeros(dimension),
        np.full(dimension, 1e-200),
        np.eye(dimension)[0] * 5e-324,
        np.full(dimension, math.inf),
        np.r_[math.nan, np.ones(dimension - 1)],
        np.r_[-math.inf, np.zeros(dimension - 1)],
    ]
    return np.concatenate([np.stack(special), rng.uniform(-1.0, 1.0, size=(40, dimension))])


@pytest.mark.parametrize(
    "field",
    [*BUILTIN_FIELDS.values(), field_from_expression("x1/x2 + 1"), field_from_expression("x3")],
    ids=lambda f: f.name,
)
def test_values_equal_per_row_calls(field):
    """``values`` gives the bits of one call per row, origin and
    non-finite rows included."""
    rows = _value_rows(field.dimension)
    with np.errstate(all="ignore"):
        expected = np.array([field(row) for row in rows])
        got = field.values(rows)
    assert got.dtype == np.float64 and got.shape == (len(rows),)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert not np.all(np.isfinite(expected)) and expected[0] == 0.0
    assert field.values(np.empty((0, field.dimension))).shape == (0,)


def test_values_rejects_wrong_shape():
    field = get_builtin_field("rational2d")
    for rows in ([0.1, 0.2], np.ones((3, 3)), np.ones((2, 2, 2))):
        with pytest.raises(InputError, match="rational2d"):
            field.values(rows)


def test_unknown_builtin():
    with pytest.raises(InputError):
        get_builtin_field("does-not-exist")


def test_normalized_shifts_origin_value():
    field = ScalarField.normalized("shifted", 1, lambda x: x[:, 0] + 5.0)
    assert field(np.zeros(1)) == 0.0
    assert field([2.0]) == pytest.approx(2.0, rel=1e-15)


def test_field_from_expression():
    field = field_from_expression("x1 + 5")
    assert field.dimension == 1
    assert field.name == "x1 + 5"
    assert field(np.zeros(1)) == 0.0
    assert field([3.0]) == pytest.approx(3.0, rel=1e-15)


def test_derive_witness_keeps_qualifying_points():
    field = get_builtin_field("rational2d")
    witness = derive_witness(field, _diagonal_spec())
    assert witness.dimension == 2
    assert len(witness.pairs) == 160


def test_derive_witness_accepts_plain_iterable():
    field = get_builtin_field("rational2d")
    points = generate_points(_diagonal_spec(count=20))
    witness = derive_witness(field, points)
    assert len(witness.pairs) == 20


def test_derive_witness_dimension_mismatch():
    field = get_builtin_field("rational2d")
    with pytest.raises(InputError):
        derive_witness(field, GeneratorSpec(kind="diagonal", dimension=3))


def test_derive_witness_failure_reports_counts():
    field = get_builtin_field("parabola")
    with pytest.raises(WitnessNotFoundError, match="only 0 of 160"):
        derive_witness(field, _diagonal_spec())


def test_derive_witness_min_count_threshold():
    field = get_builtin_field("rational2d")
    points = generate_points(_diagonal_spec(count=5))
    with pytest.raises(WitnessNotFoundError):
        derive_witness(field, points, min_count=8)
    witness = derive_witness(field, points, min_count=5)
    assert len(witness.pairs) == 5


def test_certify_rational2d_along_diagonal():
    field = get_builtin_field("rational2d")
    witness = derive_witness(field, _diagonal_spec())
    report, build = certify_discontinuity(field, witness, k_max=25)
    assert report.certified
    assert report.verdict == "discontinuous-certified"
    assert report.limsup_estimate >= 1.0 - 1e-9
    # epsilon defaults to the smallest witness magnitude, 1 on the diagonal
    assert report.epsilon == pytest.approx(1.0, rel=1e-12)
    assert report.matched_count == len(build.anchors.matched)
    assert report.domain == build.path.domain
    deltas = [delta for delta, _ in report.tail_profile]
    sups = [sup for _, sup in report.tail_profile]
    assert deltas == sorted(deltas, reverse=True)
    assert all(a >= b for a, b in zip(sups, sups[1:]))


@pytest.mark.parametrize("name", ["parabola", "rational2d"])
def test_tail_profile_takes_each_rungs_sup_over_the_grid_below_it(name):
    """Each rung's sup is the maximum of |f(s(t))| over the probe grid's
    finite values at t < delta, one mask per rung, bit for bit."""
    field = get_builtin_field(name)
    witness = WitnessSequence.ingest(generate_points(_diagonal_spec()))
    report, build = certify_discontinuity(field, witness, k_max=25, extra_deltas=(0.0301,))
    path, anchors = build.path, build.anchors
    times = anchors.times[anchors.given, 0]
    grid = dense_grid(path, per_decade=1024, per_window=32)
    ts = sorted_unique(np.concatenate([grid, times[times > path.domain[0]]]))
    magnitudes = np.abs(field.values(eval_smooth_many(path, ts)))
    finite = np.isfinite(magnitudes)
    ts, magnitudes = ts[finite], magnitudes[finite]
    for delta, sup in report.tail_profile:
        below = magnitudes[ts < delta]
        assert sup == (float(np.max(below)) if below.size else 0.0)


def test_certify_parabola_finds_no_violation():
    field = get_builtin_field("parabola")
    points = generate_points(_diagonal_spec())
    witness = WitnessSequence.ingest(points)
    report, _ = certify_discontinuity(field, witness, k_max=25, epsilon=0.5)
    assert not report.certified
    assert report.verdict == "no-violation-found"
    # the tail sup of a squared norm shrinks with the ladder
    final_delta, final_sup = report.tail_profile[-1]
    assert final_sup <= final_delta ** 2 + 1e-12


def test_certify_rejects_shallow_extra_delta():
    field = get_builtin_field("rational2d")
    witness = derive_witness(field, _diagonal_spec(count=40, stop=0.05))
    with pytest.raises(InputError, match="does not exceed the domain floor"):
        certify_discontinuity(field, witness, k_max=8, extra_deltas=(1e-9,))


def test_certify_dimension_mismatch():
    field = get_builtin_field("rational3d")
    witness = derive_witness(get_builtin_field("rational2d"), _diagonal_spec())
    with pytest.raises(InputError, match="dimensions differ"):
        certify_discontinuity(field, witness)


def test_certify_rejects_nonpositive_epsilon():
    field = get_builtin_field("rational2d")
    witness = derive_witness(field, _diagonal_spec(count=40, stop=0.05))
    with pytest.raises(InputError, match="epsilon"):
        certify_discontinuity(field, witness, k_max=8, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_epsilon_must_be_positive_and_finite(epsilon):
    """derive_witness checks epsilon before it evaluates a point, and
    certify_discontinuity before it builds a path."""
    field = get_builtin_field("rational2d")
    witness = derive_witness(field, _diagonal_spec(count=40, stop=0.05))
    with pytest.raises(InputError, match="epsilon must be positive and finite"):
        derive_witness(field, _diagonal_spec(count=40, stop=0.05), epsilon=epsilon)
    with pytest.raises(InputError, match="epsilon must be positive and finite"):
        certify_discontinuity(field, witness, k_max=8, epsilon=epsilon)


@pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf])
def test_tail_delta_must_be_finite(delta):
    with pytest.raises(InputError, match=f"tail delta {delta!r} must be finite"):
        _delta_ladder(1e-6, 1e-3, [0.25, delta])


def test_certify_names_a_field_non_finite_on_the_whole_path():
    """Finite nowhere along the grid is bad input, not an empty reduction."""
    spec = GeneratorSpec(kind="diagonal", dimension=1, count=40, stop=0.05)
    witness = WitnessSequence.ingest(generate_points(spec))
    for text in ("x1/0", "abs(x1)*1e308*1e308"):
        field = field_from_expression(text)
        with pytest.raises(InputError, match="non-finite on every grid point of the path"):
            certify_discontinuity(field, witness, k_max=8, epsilon=0.5)


def test_certify_requires_finite_witness_values():
    field = field_from_expression("1/(x1 - x2)")
    witness = WitnessSequence.ingest(generate_points(_diagonal_spec(count=40, stop=0.05)))
    with pytest.raises(InputError, match="non-finite"):
        certify_discontinuity(field, witness, k_max=8)
