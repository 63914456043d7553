import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc.core import (
    ComparisonTensor,
    DistanceMatrix,
    IllPosedWarning,
    InputError,
    SensorField,
    parse_sensor_field,
    point_distances,
    read_sensor_field,
    read_text,
)


def test_pairwise_345_triangle():
    d = point_distances([(0, 0), (3, 4)])
    assert d[0, 1] == 5.0
    assert d[1, 0] == 5.0


def test_pairwise_single_sensor_is_zero():
    d = point_distances([(1.0, 2.0)])
    assert d.shape == (1, 1)
    assert d[0, 0] == 0.0


def test_pairwise_with_target_row():
    field = SensorField(2, [(0, 0), (1, 0)], targets=[(0, 1)])
    d = point_distances(np.vstack([field.anchors, field.targets]))
    np.testing.assert_allclose(d[2], [1.0, np.sqrt(2.0), 0.0])


def test_few_anchors_warns_not_rejects():
    with pytest.warns(IllPosedWarning):
        SensorField(2, [(0, 0), (1, 0)])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_triangle_inequality(m, n, seed):
    rng = np.random.default_rng(seed)
    d = point_distances(rng.uniform(0, 1, (m + n, 2)))
    order = d.shape[0]
    for i in range(order):
        for j in range(order):
            for k in range(order):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError, match=r"anchor coordinates must have length 3"):
        SensorField(3, [(0, 0), (1, 1)])
    with pytest.raises(InputError, match=r"target coordinates must have length 2"):
        SensorField(2, [(0, 0), (1, 1)], targets=[(0, 0, 1)])


def test_public_names_resolve():
    import ordinal_unloc

    namespace = {}
    exec("from ordinal_unloc import *", namespace)
    for name in ordinal_unloc.__all__:
        assert namespace[name] is getattr(ordinal_unloc, name)


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


def test_read_text_drops_one_leading_byte_order_mark(tmp_path):
    """A leading U+FEFF, as spreadsheet tools save CSV, is not text; a
    second one, or one later in the file, is left as it is."""
    path = tmp_path / "field.csv"
    for data, text in [
        (b"\xef\xbb\xbfab", "ab"),
        (b"\xef\xbb\xbf\xef\xbb\xbfab", "\ufeffab"),
        (b"ab\xef\xbb\xbfcd", "ab\ufeffcd"),
        (b"ab", "ab"),
    ]:
        path.write_bytes(data)
        assert read_text(path) == text


def test_read_text_names_a_bad_byte_after_the_mark_at_its_file_offset(tmp_path):
    path = tmp_path / "field.csv"
    path.write_bytes(b"\xef\xbb\xbfab\xffcd")
    with pytest.raises(InputError, match=r"field\.csv: byte 5 is not valid UTF-8$"):
        read_text(path)


def test_parse_sensor_field_bad_header():
    with pytest.raises(InputError):
        parse_sensor_field("name,role,x,y\na,anchor,0,0\n")


def test_parse_sensor_field_anchor_without_coords():
    with pytest.raises(InputError, match="line 3"):
        parse_sensor_field("id,role,x,y\na,anchor,0,0\nb,anchor,,\n")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_parse_sensor_field_non_finite_coordinate(cell):
    text = f"id,role,x,y\na1,anchor,0,0\na2,anchor,1,0\na3,anchor,0,1\na4,anchor,{cell},1\n"
    with pytest.raises(InputError, match=f"line 5: coordinate '{cell}' is not finite"):
        parse_sensor_field(text)
    with pytest.raises(InputError, match="line 3: coordinate 'nan' is not finite"):
        parse_sensor_field("id,role,x,y\na,anchor,0,0\nt,target,0.5,nan\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sensor_field_rejects_non_finite_coordinates(bad):
    anchors = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    anchors[2, 1] = bad
    with pytest.raises(InputError, match=r"anchor 2 coordinate 1 is .*, not finite"):
        SensorField(2, anchors)
    with pytest.raises(InputError, match=r"target 0 coordinate 0 is .*, not finite"):
        SensorField(2, [(0, 0), (1, 0), (0, 1)], [(bad, 0.5)])


def test_matrices_are_immutable():
    d = DistanceMatrix(point_distances([(0, 0), (3, 4), (1, 1)]), 3)
    with pytest.raises(ValueError):
        d.values[0, 1] = 7.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distance_matrix_rejects_non_finite(bad):
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    d[1, 2] = d[2, 1] = bad
    with pytest.raises(InputError, match=r"\(1, 2\) is not finite"):
        DistanceMatrix(d, 2)


def test_comparison_tensor_copies_caller_arrays():
    a = np.zeros((3, 3), dtype=np.int64)
    tensor = ComparisonTensor(a, 2)
    a[1, 2] = 1
    assert tensor.row_sums[1, 2] == 0
    # a read-only view of a writeable array is copied too
    view = a.view()
    view.flags.writeable = False
    tensor = ComparisonTensor(view, 2)
    a[1, 2] = -1
    assert tensor.row_sums[1, 2] == 1
    assert not tensor.row_sums.flags.writeable


def test_comparison_tensor_holds_integer_row_sums():
    """The tensor keeps each slice's integer row sums as read-only int64; an
    N^3 array of comparisons, a non-square array or float sums are
    refused."""
    tensor = ComparisonTensor(np.ones((3, 3), dtype=np.int8), 2)
    assert tensor.row_sums.dtype == np.int64 and tensor.order == 3
    assert not tensor.row_sums.flags.writeable
    with pytest.raises(InputError, match="must be N x N"):
        ComparisonTensor(np.zeros((3, 3, 3), dtype=np.int8), 2)
    with pytest.raises(InputError, match="must be N x N"):
        ComparisonTensor(np.zeros((3, 4), dtype=np.int64), 2)
    with pytest.raises(InputError, match="must be integers"):
        ComparisonTensor(np.zeros((3, 3)), 2)
