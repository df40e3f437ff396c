"""Scalar fields and the discontinuity probe."""

import math

import numpy as np
import pytest

from pathcert.errors import InputError, WitnessNotFoundError
from pathcert.generators import GeneratorSpec, generate_points
from pathcert.harness import (
    BUILTIN_FIELDS,
    ScalarField,
    certify_discontinuity,
    derive_witness,
    field_from_expression,
    get_builtin_field,
)
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
    field = ScalarField.normalized("shifted", 1, lambda x: float(x[0]) + 5.0)
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


def test_certify_requires_finite_witness_values():
    field = field_from_expression("1/(x1 - x2)", name="undefined")
    witness = WitnessSequence.ingest(generate_points(_diagonal_spec(count=40, stop=0.05)))
    with pytest.raises(InputError, match="non-finite"):
        certify_discontinuity(field, witness, k_max=8)
