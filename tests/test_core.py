import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc.core import (
    ComparisonTensor,
    DistanceMatrix,
    GroundTruthUnavailable,
    IllPosedWarning,
    InputError,
    ProximityMatrix,
    SensorField,
    block_view,
    pairwise_distances,
    parse_sensor_field,
    read_sensor_field,
)


def test_pairwise_345_triangle():
    field = SensorField(2, [(0, 0), (3, 4)])
    d = pairwise_distances(field)
    assert d.values[0, 1] == 5.0
    assert d.values[1, 0] == 5.0


def test_pairwise_single_sensor_is_zero():
    d = pairwise_distances(SensorField(2, [(1.0, 2.0)]))
    assert d.values.shape == (1, 1)
    assert d.values[0, 0] == 0.0


def test_pairwise_with_target_row():
    field = SensorField(2, [(0, 0), (1, 0)], targets=[(0, 1)])
    d = pairwise_distances(field)
    np.testing.assert_allclose(d.values[2], [1.0, np.sqrt(2.0), 0.0])
    assert d.n_anchors == 2


def test_pairwise_requires_ground_truth():
    field = SensorField(2, [(0, 0), (1, 0)], declared_targets=1)
    with pytest.raises(GroundTruthUnavailable):
        pairwise_distances(field)


def test_few_anchors_warns_not_rejects():
    with pytest.warns(IllPosedWarning):
        SensorField(2, [(0, 0), (1, 0)])


def test_block_views():
    field = SensorField(2, [(0, 0), (1, 0)], targets=[(0, 1)])
    d = pairwise_distances(field)
    assert block_view(d, "Y").shape == (2, 2)
    np.testing.assert_array_equal(block_view(d, "XY"), block_view(d, "YX").T)
    with pytest.raises(InputError):
        block_view(d, "Q")


def test_block_view_no_targets_degenerate():
    d = pairwise_distances(SensorField(2, [(0, 0), (3, 4)]))
    assert block_view(d, "YX").shape == (2, 0)
    assert block_view(d, "X").shape == (0, 0)


def test_block_roundtrip_reassembles():
    rng = np.random.default_rng(0)
    field = SensorField(2, rng.uniform(0, 1, (4, 2)), targets=rng.uniform(0, 1, (3, 2)))
    d = pairwise_distances(field)
    top = np.hstack([d.block("Y"), d.block("YX")])
    bottom = np.hstack([d.block("XY"), d.block("X")])
    np.testing.assert_array_equal(np.vstack([top, bottom]), d.values)


def test_proximity_xy_block_is_actual_submatrix():
    values = np.arange(9.0).reshape(3, 3)
    values = values - values.mean(axis=0)
    psi = ProximityMatrix(values, 2)
    np.testing.assert_array_equal(psi.block("XY"), values[2:, :2])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_triangle_inequality(m, n, seed):
    rng = np.random.default_rng(seed)
    field = SensorField(
        2,
        rng.uniform(0, 1, (m, 2)),
        targets=rng.uniform(0, 1, (n, 2)) if n else None,
    )
    d = pairwise_distances(field).values
    order = d.shape[0]
    for i in range(order):
        for j in range(order):
            for k in range(order):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        SensorField(3, [(0, 0), (1, 1)])


def test_parse_sensor_field_csv():
    text = "\n".join(
        [
            "# hardware layout",
            "id,role,x,y",
            "a1,anchor,0.0,0.0",
            "a2,anchor,4.0,0.0",
            "a3,anchor,4.0,5.0",
            "a4,anchor,0.0,5.0",
            "t1,target,,",
        ]
    )
    field = parse_sensor_field(text)
    assert field.m == 4 and field.n == 1
    assert field.anchor_ids == ("a1", "a2", "a3", "a4")
    assert field.targets is None


def test_parse_sensor_field_with_target_coords(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("id,role,x,y\na,anchor,0,0\nb,anchor,1,0\nc,anchor,0,1\nt,target,0.5,0.5\n")
    field = read_sensor_field(path)
    np.testing.assert_allclose(field.targets, [[0.5, 0.5]])


def test_parse_sensor_field_bad_header():
    with pytest.raises(InputError):
        parse_sensor_field("name,role,x,y\na,anchor,0,0\n")


def test_parse_sensor_field_anchor_without_coords():
    with pytest.raises(InputError, match="line 3"):
        parse_sensor_field("id,role,x,y\na,anchor,0,0\nb,anchor,,\n")


def test_matrices_are_immutable():
    d = pairwise_distances(SensorField(2, [(0, 0), (3, 4), (1, 1)]))
    with pytest.raises(ValueError):
        d.values[0, 1] = 7.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distance_matrix_rejects_non_finite(bad):
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    d[1, 2] = d[2, 1] = bad
    with pytest.raises(InputError, match=r"\(1, 2\) is not finite"):
        DistanceMatrix(d, 2)


def test_comparison_tensor_copies_caller_arrays():
    a = np.zeros((3, 3, 3), dtype=np.int8)
    tensor = ComparisonTensor(a, 2)
    a[0, 1, 2] = 1
    assert tensor.values[0, 1, 2] == 0
    # a read-only view of a writeable array is copied too
    view = a.view()
    view.flags.writeable = False
    tensor = ComparisonTensor(view, 2)
    a[0, 1, 2] = -1
    assert tensor.values[0, 1, 2] == 1
    assert not tensor.values.flags.writeable


def test_comparison_tensor_keeps_read_only_int8_array():
    a = np.zeros((3, 3, 3), dtype=np.int8)
    a.flags.writeable = False
    assert ComparisonTensor(a, 2).values is a
