"""File formats: PFM / PLY round trips and strict JSON document parsing."""

import re

import numpy as np
import pytest

from metricshape import fileio
from metricshape.camera import DepthMap, Intrinsics, PointCloud
from metricshape.errors import DocumentError
from metricshape.incidence import IncidenceField, field_from_intrinsics
from metricshape.solver import DistanceConstraint
from metricshape.synthetic import Box, Plane, Sphere


def random_depth(rng, h=13, w=17):
    values = rng.uniform(0.1, 50.0, (h, w)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(h, w)) > 0.3
    return DepthMap(np.where(valid, values, 0.0), valid)


BAD_PFM = {
    "truncated-header": b"Pf\n64",
    "bad-magic": b"P6\n2 2\n-1.0\n",
    "malformed-header": b"Pf\ntwo 2\n-1.0\n",
    "short-payload": b"Pf\n2 2\n-1.0\n" + b"\x00" * 4,
}


class TestPfm:
    def test_depth_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        depth = random_depth(rng)
        path = str(tmp_path / "d.pfm")
        fileio.write_depth_pfm(path, depth)
        back = fileio.read_depth_pfm(path)
        np.testing.assert_array_equal(back.valid, depth.valid)
        np.testing.assert_array_equal(back.values[back.valid], depth.values[depth.valid])

    def test_write_is_deterministic(self, tmp_path):
        depth = random_depth(np.random.default_rng(1))
        p1, p2 = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
        fileio.write_depth_pfm(p1, depth)
        fileio.write_depth_pfm(p2, depth)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_nan_and_nonpositive_mean_invalid(self, tmp_path):
        path = str(tmp_path / "d.pfm")
        with open(path, "wb") as f:
            f.write(b"Pf\n2 1\n-1.0\n")
            f.write(np.array([np.nan, 1.5], dtype="<f4").tobytes())
        back = fileio.read_depth_pfm(path)
        np.testing.assert_array_equal(back.valid, [[False, True]])

    def test_field_round_trip(self, tmp_path):
        k = Intrinsics(fx=321.5, fy=287.25, cx=31.5, cy=23.5, width=64, height=48)
        field = field_from_intrinsics(k)
        f32 = IncidenceField(field.rays.astype(np.float32).astype(np.float64))
        path = str(tmp_path / "f.pfm")
        fileio.write_field_pfm(path, f32)
        back = fileio.read_field_pfm(path)
        np.testing.assert_array_equal(back.rays, f32.rays)

    @pytest.mark.parametrize("depth", [1e39, 1e-50], ids=["overflows", "underflows"])
    def test_depth_float32_cannot_hold_is_rejected_before_opening(self, tmp_path, depth):
        """Either would read back as an invalid pixel."""
        path = tmp_path / "d.pfm"
        values = np.array([[1.0, depth], [2.0, 3.0]])
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: valid depths")):
            fileio.write_depth_pfm(str(path), DepthMap(values, np.ones((2, 2), bool)))
        assert not path.exists()
        fileio.write_depth_pfm(str(path), DepthMap(values, np.array([[1, 0], [1, 1]], bool)))
        assert fileio.read_depth_pfm(str(path)).n_valid == 3

    def test_rays_beyond_float32_are_rejected_before_opening(self, tmp_path):
        path = tmp_path / "f.pfm"
        rays = np.ones((2, 2, 3))
        rays[1, 0, 1] = -1e39
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: ray components")):
            fileio.write_field_pfm(str(path), IncidenceField(rays))
        assert not path.exists()

    @pytest.mark.parametrize("z", [2.0, np.nan])
    def test_field_off_z1_form_is_document_error(self, tmp_path, z):
        rays = np.ones((2, 2, 3), dtype="<f4")
        rays[0, 1, 2] = z
        path = str(tmp_path / "f.pfm")
        with open(path, "wb") as f:
            f.write(b"PF\n2 2\n-1.0\n" + rays.tobytes())
        with pytest.raises(DocumentError, match="^" + re.escape(path) + ": "):
            fileio.read_field_pfm(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.pfm")
        with open(path, "wb") as f:
            f.write(b"P6\n2 1\n-1.0\n\x00\x00\x00\x00")
        with pytest.raises(DocumentError):
            fileio.read_depth_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "short.pfm")
        with open(path, "wb") as f:
            f.write(b"Pf\n4 4\n-1.0\n")
            f.write(b"\x00" * 10)
        with pytest.raises(DocumentError):
            fileio.read_depth_pfm(path)

    @pytest.mark.parametrize("magic, read", [(b"Pf", fileio.read_depth_pfm),
                                             (b"PF", fileio.read_field_pfm)])
    def test_header_larger_than_file_is_rejected_before_reading(self, tmp_path, magic, read):
        path = str(tmp_path / "short.pfm")
        with open(path, "wb") as f:
            f.write(magic + b"\n64 48\n-1.0\n")
            f.write(b"\x00" * 10)
        channels = 3 if magic == b"PF" else 1
        with pytest.raises(DocumentError, match=f"header needs {4 * 64 * 48 * channels} payload"):
            read(path)

    @pytest.mark.parametrize("read", [fileio.read_depth_pfm, fileio.read_field_pfm])
    @pytest.mark.parametrize("kind", BAD_PFM)
    def test_format_errors_name_the_file(self, tmp_path, kind, read):
        path = tmp_path / "bad.pfm"
        path.write_bytes(BAD_PFM[kind])
        with pytest.raises(DocumentError, match=f"^{re.escape(str(path))}: "):
            read(str(path))

    @pytest.mark.parametrize("header", [b"0 1\n-1.0", b"2 0\n-1.0", b"2 1\n0",
                                        b"2 1\nnan", b"2 1\ninf", b"2 1\n-inf"],
                             ids=["width-0", "height-0", "scale-0", "scale-nan", "scale-inf", "scale--inf"])
    def test_bad_header_values_name_the_file(self, tmp_path, header):
        """A NaN or infinite scale gives no byte order: read as big-endian, the
        little-endian depths 1.5 and 2.5 came back as 6.9e-41 and 1.2e-41."""
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n" + header + b"\n" + np.array([1.5, 2.5], "<f4").tobytes())
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: malformed PFM header values")):
            fileio.read_depth_pfm(str(path))

    @pytest.mark.parametrize("magic, read, message", [
        (b"PF", fileio.read_depth_pfm, "expected a grayscale PFM depth map"),
        (b"Pf", fileio.read_field_pfm, "expected a 3-channel PFM incidence field"),
    ])
    def test_other_variant_names_the_file(self, tmp_path, magic, read, message):
        path = tmp_path / "other.pfm"
        path.write_bytes(magic + b"\n1 1\n-1.0\n" + np.ones(3, "<f4").tobytes())
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: {message}")):
            read(str(path))


def float32_reference_text(value: float) -> str:
    """Shortest positional float32 text, one value at a time."""
    return np.format_float_positional(np.float32(value), unique=True, trim="0")


def float32_edge_values() -> np.ndarray:
    """±m·2^e for every float32 exponent, subnormals included, plus the values
    where `str(np.float32)` switches to exponent form."""
    values = [0.0, -0.0, 1e-45, 9e-05, 1e-4, 1e16, 3.4e38]
    for e in range(-149, 128):
        for m in (1.0, 1.1, 1.5, 1.9999999):
            values.append(m * 2.0**e)
    for edge in (1e-4, 1e16):
        f = np.float32(edge)
        values += [np.nextafter(f, np.float32(0)), np.nextafter(f, np.float32(np.inf))]
    values = np.array(values, dtype=np.float32)
    return np.concatenate([values, -values])


class TestPly:
    @pytest.mark.parametrize("size", ["0", "1", "B-1", "B", "B+1"])
    def test_ascii_bytes_match_per_value_formatting(self, tmp_path, size):
        """Every value is written as its shortest positional float32 text,
        and read back bit for bit, at cloud sizes around the writer's block
        size B (exponent-form values land in every block)."""
        b = fileio._PLY_BLOCK_ROWS
        n = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1}[size]
        values = float32_edge_values()
        # the last row holds the smallest subnormal, which a truncating writer garbles
        flat = np.resize(values, 3 * n)
        if n:
            flat[-3:] = [1e-45, 3.4e38, -1e16]
        points = flat.reshape(n, 3).astype(np.float64)
        path = str(tmp_path / "edge.ply")
        fileio.write_ply(path, PointCloud(points))

        expected = "".join(
            " ".join(float32_reference_text(v) for v in row) + "\n" for row in points
        )
        payload = open(path, "rb").read().split(b"end_header\n", 1)[1]
        assert payload == expected.encode("ascii")
        back = fileio.read_ply(path).points.astype(np.float32)
        np.testing.assert_array_equal(back.view(np.uint32), points.astype(np.float32).view(np.uint32))

    def test_ascii_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.uniform(-10, 10, (37, 3)))
        path = str(tmp_path / "c.ply")
        fileio.write_ply(path, cloud)
        back = fileio.read_ply(path)
        np.testing.assert_array_equal(
            back.points.astype(np.float32), cloud.points.astype(np.float32)
        )

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-10, 10, (21, 3)))
        path = str(tmp_path / "c.ply")
        fileio.write_ply(path, cloud, binary=True)
        back = fileio.read_ply(path)
        np.testing.assert_array_equal(
            back.points.astype(np.float32), cloud.points.astype(np.float32)
        )

    def test_ascii_and_binary_decode_identically(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.uniform(-5, 5, (11, 3)))
        pa, pb = str(tmp_path / "a.ply"), str(tmp_path / "b.ply")
        fileio.write_ply(pa, cloud)
        fileio.write_ply(pb, cloud, binary=True)
        np.testing.assert_array_equal(fileio.read_ply(pa).points, fileio.read_ply(pb).points)

    def test_empty_cloud(self, tmp_path):
        path = str(tmp_path / "empty.ply")
        fileio.write_ply(path, PointCloud(np.zeros((0, 3))))
        assert len(fileio.read_ply(path)) == 0

    def test_vertex_count_in_header(self, tmp_path):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        path = str(tmp_path / "c.ply")
        fileio.write_ply(path, cloud)
        header = open(path, "rb").read().split(b"end_header")[0]
        assert b"element vertex 2" in header

    def test_rejects_unsupported_layout(self, tmp_path):
        path = str(tmp_path / "bad.ply")
        with open(path, "wb") as f:
            f.write(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                    b"property float x\nproperty float y\nend_header\n0 0\n")
        with pytest.raises(DocumentError):
            fileio.read_ply(path)

    @staticmethod
    def write_raw(path, fmt: bytes, count: int, payload: bytes) -> None:
        with open(path, "wb") as f:
            f.write(b"ply\nformat " + fmt + b" 1.0\nelement vertex %d\n" % count
                    + b"property float x\nproperty float y\nproperty float z\nend_header\n"
                    + payload)

    def test_binary_count_larger_than_file_is_rejected_before_reading(self, tmp_path):
        path = str(tmp_path / "short.ply")
        self.write_raw(path, b"binary_little_endian", 100, np.zeros((5, 3), "<f4").tobytes())
        with pytest.raises(DocumentError, match="header needs 1200 payload bytes"):
            fileio.read_ply(path)

    def test_ascii_count_larger_than_file_is_rejected_before_reading(self, tmp_path):
        path = str(tmp_path / "short.ply")
        self.write_raw(path, b"ascii", 100, b"1 2 3\n" * 5)
        with pytest.raises(DocumentError, match="header needs 599 payload bytes"):
            fileio.read_ply(path)

    @pytest.mark.parametrize("fmt", [b"ascii", b"binary_little_endian"])
    def test_negative_count_is_rejected(self, tmp_path, fmt):
        path = str(tmp_path / "neg.ply")
        self.write_raw(path, fmt, -1, np.zeros((2, 3), "<f4").tobytes())
        with pytest.raises(DocumentError, match="negative"):
            fileio.read_ply(path)

    def test_ascii_shortest_lines_without_final_newline_are_read(self, tmp_path):
        path = str(tmp_path / "tight.ply")
        self.write_raw(path, b"ascii", 2, b"0 0 0\n1 2 3")
        np.testing.assert_array_equal(fileio.read_ply(path).points, [[0, 0, 0], [1, 2, 3]])

    @pytest.mark.parametrize("fmt, payload", [
        (b"ascii", b"0 inf 1\n"),
        (b"ascii", b"1e39 0 0\n"),
        (b"binary_little_endian", np.array([[0.0, np.inf, 1.0]], "<f4").tobytes()),
    ], ids=["ascii-inf", "ascii-beyond-float32", "binary-inf"])
    def test_non_finite_vertex_is_document_error_naming_the_file(self, tmp_path, fmt, payload):
        """An ASCII value beyond float32 becomes inf without a numpy warning."""
        path = str(tmp_path / "inf.ply")
        self.write_raw(path, fmt, 1, payload)
        with pytest.raises(DocumentError, match=re.escape(f"{path}: point coordinates must be finite")):
            fileio.read_ply(path)

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_points_beyond_float32_are_rejected_before_opening(self, tmp_path, binary):
        path = tmp_path / "big.ply"
        with pytest.raises(DocumentError, match="float32"):
            fileio.write_ply(str(path), PointCloud(np.array([[0.0, 1e39, 1.0]])), binary=binary)
        assert not path.exists()

    XYZ = b"property float x\nproperty float y\nproperty float z\n"

    @pytest.mark.parametrize("data, message", [
        (b"plx\nformat ascii 1.0\n", "not a PLY file"),
        (b"ply\nformat ascii 1.0\nelement vertex 1\n", "truncated PLY header"),
        (b"ply\nformat ascii 1.0\nelement face 1\n" + XYZ + b"end_header\n", "only vertex elements"),
        (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nend_header\n",
         "only float properties"),
        (b"ply\nelement vertex 1\n" + XYZ + b"end_header\n0 0 0\n", "unsupported PLY format None"),
        (b"ply\nformat binary_big_endian 1.0\nelement vertex 1\n" + XYZ + b"end_header\n" + bytes(12),
         "unsupported PLY format b'binary_big_endian'"),
        (b"ply\nformat ascii 1.0\nelement vertex 2\n" + XYZ + b"end_header\n0 0 0.0000001\n",
         "truncated PLY payload at vertex 1"),
        (b"ply\nformat ascii 1.0\nelement vertex 1\n" + XYZ + b"end_header\n0 0 x\n",
         "bad vertex line 0"),
    ], ids=["not-ply", "truncated-header", "face-element", "double-property", "no-format",
            "big-endian", "truncated-payload", "bad-vertex-line"])
    def test_format_errors_name_the_file(self, tmp_path, data, message):
        path = tmp_path / "bad.ply"
        path.write_bytes(data)
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: {message}")):
            fileio.read_ply(str(path))

    @pytest.mark.parametrize(
        "header_line", [b"", b"element", b"element vertex abc"], ids=["empty", "bare-element", "count-abc"]
    )
    def test_malformed_header_line_is_document_error(self, tmp_path, header_line):
        path = str(tmp_path / "bad_header.ply")
        with open(path, "wb") as f:
            f.write(b"ply\nformat ascii 1.0\n" + header_line + b"\nelement vertex 1\n"
                    b"property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
        with pytest.raises(DocumentError):
            fileio.read_ply(path)


class TestIntrinsicsDocument:
    def test_round_trip(self, tmp_path):
        k = Intrinsics(fx=500.25, fy=499.75, cx=320.5, cy=240.5, width=640, height=480)
        path = str(tmp_path / "k.json")
        fileio.write_intrinsics(path, k)
        assert fileio.read_intrinsics(path) == k
        assert open(path, encoding="utf-8").read() == (
            "{\n"
            '  "fx": 500.25,\n'
            '  "fy": 499.75,\n'
            '  "cx": 320.5,\n'
            '  "cy": 240.5,\n'
            '  "width": 640,\n'
            '  "height": 480\n'
            "}\n"
        )

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = str(tmp_path / "k.json")
        open(path, "wb").write(b"\x83{}")
        with pytest.raises(DocumentError, match="^" + re.escape(path) + ": invalid JSON"):
            fileio.read_intrinsics(path)

    def test_rays_beyond_float32_name_the_file(self, tmp_path):
        """Finite rays are rejected too once a field file could not hold them."""
        path = str(tmp_path / "k.json")
        fileio.write_intrinsics(path, Intrinsics(1.0, 1.0, -1e39, 1.0, 4, 3))
        with pytest.raises(DocumentError, match="^" + re.escape(path) + ": ray components"):
            fileio.read_intrinsics(path)
        fileio.write_intrinsics(path, Intrinsics(1.0, 1.0, -3e38, 1.0, 4, 3))
        assert fileio.read_intrinsics(path).cx == -3e38

    def test_unknown_field_rejected(self, tmp_path):
        path = str(tmp_path / "k.json")
        path2 = str(tmp_path / "k2.json")
        fileio.write_intrinsics(path, Intrinsics(1.0, 1.0, 0.0, 0.0, 4, 4))
        doc = open(path).read().replace('"fx"', '"skew": 0.0, "fx"')
        open(path2, "w").write(doc)
        with pytest.raises(DocumentError, match="skew"):
            fileio.read_intrinsics(path2)

    def test_missing_field_rejected(self, tmp_path):
        path = str(tmp_path / "k.json")
        open(path, "w").write('{"fx": 1.0}')
        with pytest.raises(DocumentError, match="missing"):
            fileio.read_intrinsics(path)

    def test_non_integer_size_names_the_file(self, tmp_path):
        path = str(tmp_path / "k.json")
        open(path, "w").write('{"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 4.0, "height": 4}')
        with pytest.raises(DocumentError, match="^" + re.escape(
                f"{path}: field 'width' must be an integer, got 4.0")):
            fileio.read_intrinsics(path)

    def test_invalid_values_become_document_errors(self, tmp_path):
        path = str(tmp_path / "k.json")
        open(path, "w").write(
            '{"fx": -5.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 4, "height": 4}'
        )
        with pytest.raises(DocumentError):
            fileio.read_intrinsics(path)


class TestConstraintDocument:
    def test_round_trip(self, tmp_path):
        cons = [
            DistanceConstraint(u1=1.0, v1=2.0, u2=3.0, v2=4.0, d1=1.5, d2=2.5, distance=3.25),
            DistanceConstraint(u1=9.0, v1=8.0, u2=7.0, v2=6.0, d1=2.0, d2=2.0, distance=0.5),
        ]
        path = str(tmp_path / "c.json")
        fileio.write_constraints(path, cons)
        assert fileio.read_constraints(path) == cons
        assert open(path, encoding="utf-8").read() == (
            "[\n"
            "  {\n"
            '    "u1": 1.0,\n'
            '    "v1": 2.0,\n'
            '    "u2": 3.0,\n'
            '    "v2": 4.0,\n'
            '    "d1": 1.5,\n'
            '    "d2": 2.5,\n'
            '    "L": 3.25\n'
            "  },\n"
            "  {\n"
            '    "u1": 9.0,\n'
            '    "v1": 8.0,\n'
            '    "u2": 7.0,\n'
            '    "v2": 6.0,\n'
            '    "d1": 2.0,\n'
            '    "d2": 2.0,\n'
            '    "L": 0.5\n'
            "  }\n"
            "]\n"
        )

    def test_depths_read_from_map_when_missing(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write('[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "L": 4.0}]')
        depth = DepthMap(np.array([[2.0, 9.0], [9.0, 3.0]]), np.ones((2, 2), bool))
        (c,) = fileio.read_constraints(path, depth)
        assert (c.d1, c.d2) == (2.0, 3.0)

    def test_missing_depths_without_map(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write('[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "L": 4.0}]')
        with pytest.raises(DocumentError, match="record 0"):
            fileio.read_constraints(path)

    def test_error_names_offending_record(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write(
            '[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "d1": 1.0, "d2": 2.0, "L": 3.0},'
            ' {"u1": 0, "v1": 0, "u2": 1, "v2": 1, "d1": 1.0, "d2": 2.0, "L": 0.1}]'
        )
        with pytest.raises(DocumentError, match="record 1"):
            fileio.read_constraints(path)

    def test_non_number_distance_names_the_record_once(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write('[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "d1": 1.0, "d2": 2.0, "L": null}]')
        with pytest.raises(DocumentError) as err:
            fileio.read_constraints(path)
        assert str(err.value) == f"{path}: record 0: field 'L' must be a number, got None"

    def test_unknown_field_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write(
            '[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "d1": 1, "d2": 2, "L": 3, "w": 1}]'
        )
        with pytest.raises(DocumentError, match="record 0"):
            fileio.read_constraints(path)

    def test_pixel_outside_map_rejected_even_with_given_depths(self, tmp_path):
        """Given a map, its extent bounds every pixel; without one, a record
        with its own depths may place pixels anywhere (library solves do)."""
        path = str(tmp_path / "c.json")
        open(path, "w").write(
            '[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "d1": 1.0, "d2": 2.0, "L": 3.0},'
            ' {"u1": 2, "v1": 0, "u2": 1, "v2": 1, "d1": 1.0, "d2": 2.0, "L": 3.0}]'
        )
        depth = DepthMap(np.ones((2, 2)), np.ones((2, 2), bool))
        with pytest.raises(DocumentError, match="record 1.*outside the depth map"):
            fileio.read_constraints(path, depth)
        assert len(fileio.read_constraints(path)) == 2

    def test_pixel_without_valid_depth_names_the_record(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write('[{"u1": 0, "v1": 0, "u2": 1, "v2": 1, "L": 4.0}]')
        depth = DepthMap(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[True, True], [False, True]]))
        assert len(fileio.read_constraints(path, depth)) == 1
        open(path, "w").write('[{"u1": 0, "v1": 1, "u2": 1, "v2": 1, "L": 4.0}]')
        with pytest.raises(DocumentError, match="^" + re.escape(
                f"{path}: record 0: pixel (0, 1) has no valid depth")):
            fileio.read_constraints(path, depth)

    def test_invalid_pixel_for_map_lookup(self, tmp_path):
        path = str(tmp_path / "c.json")
        open(path, "w").write('[{"u1": 0.5, "v1": 0, "u2": 1, "v2": 1, "L": 4.0}]')
        depth = DepthMap(np.ones((2, 2)), np.ones((2, 2), bool))
        with pytest.raises(DocumentError, match="integer"):
            fileio.read_constraints(path, depth)


class TestSceneDocument:
    def test_parse_all_primitive_kinds(self, tmp_path):
        path = str(tmp_path / "s.json")
        open(path, "w").write(
            """
            {"primitives": [
              {"type": "plane", "point": [0, 0, 2], "normal": [0, 0, -1]},
              {"type": "sphere", "center": [0, 0, 5], "radius": 1.0},
              {"type": "box", "min": [-1, -1, 2], "max": [1, 1, 3]}
            ]}
            """
        )
        scene = fileio.read_scene(path)
        assert isinstance(scene.primitives[0], Plane)
        assert isinstance(scene.primitives[1], Sphere)
        assert isinstance(scene.primitives[2], Box)

    @pytest.mark.parametrize("doc, message", [
        ('{"primitives": []}', "'primitives' must be a non-empty array"),
        ('{"primitives": {}}', "'primitives' must be a non-empty array"),
        ('{"primitives": [{"center": [0, 0, 5], "radius": 1}]}',
         "primitive 0: each primitive needs a 'type' field"),
    ], ids=["empty", "not-an-array", "untyped"])
    def test_primitive_list_errors_name_the_file(self, tmp_path, doc, message):
        path = str(tmp_path / "s.json")
        open(path, "w").write(doc)
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: {message}")):
            fileio.read_scene(path)

    def test_unknown_primitive_type(self, tmp_path):
        path = str(tmp_path / "s.json")
        open(path, "w").write('{"primitives": [{"type": "torus", "r": 1}]}')
        with pytest.raises(DocumentError, match="torus"):
            fileio.read_scene(path)

    @pytest.mark.parametrize("kind", ['[1]', '{"a": 1}', '3'])
    def test_non_string_primitive_type(self, tmp_path, kind):
        path = str(tmp_path / "s.json")
        open(path, "w").write('{"primitives": [{"type": %s}]}' % kind)
        with pytest.raises(DocumentError, match="primitive 0: unknown primitive type"):
            fileio.read_scene(path)

    def test_bad_field_is_named_once(self, tmp_path):
        path = str(tmp_path / "s.json")
        open(path, "w").write('{"primitives": [{"type": "plane", "point": 1, "normal": [0,0,-1]}]}')
        with pytest.raises(DocumentError) as info:
            fileio.read_scene(path)
        assert str(info.value) == f"{path}: primitive 0: field 'point' must be a list of 3 numbers"

    def test_unknown_field_in_primitive(self, tmp_path):
        path = str(tmp_path / "s.json")
        open(path, "w").write(
            '{"primitives": [{"type": "sphere", "center": [0,0,5], "radius": 1, "rgb": 3}]}'
        )
        with pytest.raises(DocumentError, match="rgb"):
            fileio.read_scene(path)

    @pytest.mark.parametrize("center, radius", [
        ("[1e300, 0, 5]", "1"), ("[0, NaN, 5]", "1"), ("[0, 0, 5]", "1e39"),
    ])
    def test_values_beyond_float32_name_the_primitive(self, tmp_path, center, radius):
        path = str(tmp_path / "s.json")
        open(path, "w").write('{"primitives": [{"type": "plane", "point": [0, 0, 9], '
                              '"normal": [0, 0, -1]}, {"type": "sphere", "center": %s, '
                              '"radius": %s}]}' % (center, radius))
        with pytest.raises(DocumentError, match="^" + re.escape(f"{path}: primitive 1: sphere")
                           + ".*float32"):
            fileio.read_scene(path)

    def test_invalid_primitive_values(self, tmp_path):
        path = str(tmp_path / "s.json")
        open(path, "w").write(
            '{"primitives": [{"type": "sphere", "center": [0,0,5], "radius": -1}]}'
        )
        with pytest.raises(DocumentError):
            fileio.read_scene(path)


class TestTraceDocument:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.json")
        trace = [3.25, 1.0, 0.125]
        fileio.write_trace(path, trace)
        assert fileio.read_trace(path) == trace
        assert open(path, encoding="utf-8").read() == "[\n  3.25,\n  1.0,\n  0.125\n]\n"

    def test_rejects_non_numbers(self, tmp_path):
        path = str(tmp_path / "t.json")
        open(path, "w").write('[1.0, "x"]')
        with pytest.raises(DocumentError):
            fileio.read_trace(path)
