"""File formats: PFM depth maps and fields, PLY point clouds, JSON documents.

Formats are chosen for lossless float payloads and trivially parseable
structure:

- Depth maps: grayscale PFM ("Pf"), little-endian (negative scale marker),
  rows stored bottom-to-top per PFM convention. NaN or non-positive
  samples mean invalid. Incidence fields use the 3-channel variant ("PF").
- Point clouds: PLY with float32 x/y/z vertices, ASCII by default (numbers
  printed with enough digits to round-trip float32 exactly) or binary
  little-endian on request.
- Intrinsics, constraints, scenes, metrics, traces: JSON with fixed field
  names; unknown fields are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import IO, Any

import numpy as np

from .camera import FLOAT32_MAX, DepthMap, Intrinsics, PointCloud
from .errors import DocumentError, MetricShapeError
from .incidence import IncidenceField
from .solver import DistanceConstraint
from .synthetic import Box, Plane, SceneSpec, Sphere


def _named(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a package error becomes a DocumentError led by ``where``."""
    try:
        return build(*args, **kwargs)
    except MetricShapeError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# PFM

def _float32(data: np.ndarray) -> np.ndarray:
    """``data`` cast to little-endian float32; a value beyond its range becomes inf, unwarned."""
    with np.errstate(over="ignore"):
        return data.astype("<f4")


def _write_pfm_payload(stream: IO[bytes], data: np.ndarray, magic: bytes) -> None:
    """Write ``data`` as a float32 PFM, rows bottom to top."""
    height, width = data.shape[:2]
    stream.write(magic + b"\n")
    stream.write(f"{width} {height}\n".encode("ascii"))
    stream.write(b"-1.0\n")
    stream.write(np.flipud(data).astype("<f4", copy=False).tobytes())


def _read_pfm_tokens(stream: IO[bytes]) -> tuple[bytes, int, int, float]:
    def token() -> bytes:
        chars = []
        while True:
            ch = stream.read(1)
            if ch == b"":
                raise DocumentError("truncated PFM header")
            if ch.isspace():
                if chars:
                    return b"".join(chars)
                continue
            chars.append(ch)

    magic = token()
    if magic not in (b"Pf", b"PF"):
        raise DocumentError(f"not a PFM file (magic {magic!r})")
    fields = token(), token(), token()
    try:
        width, height, scale = int(fields[0]), int(fields[1]), float(fields[2])
    except ValueError as exc:
        raise DocumentError(f"malformed PFM header: {exc}") from exc
    if width < 1 or height < 1 or scale == 0.0:
        raise DocumentError("malformed PFM header values")
    return magic, width, height, scale


def _check_payload_fits(stream: IO[bytes], declared: int, what: str) -> None:
    """Reject a header whose payload cannot fit in the rest of the file, before reading it."""
    remaining = os.fstat(stream.fileno()).st_size - stream.tell()
    if declared > remaining:
        raise DocumentError(
            f"{what}: header needs {declared} payload bytes, the file holds {remaining}"
        )


def _read_pfm_payload(path: str) -> np.ndarray:
    """The PFM file's grid, top row first; every format error names the file."""
    with open(path, "rb") as stream:
        magic, width, height, scale = _named(path, _read_pfm_tokens, stream)
        channels = 3 if magic == b"PF" else 1
        count = width * height * channels
        _check_payload_fits(stream, 4 * count, path)
        raw = stream.read(4 * count)
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return np.flipud(data.reshape(shape)).copy()


def write_depth_pfm(path: str, depth: DepthMap) -> None:
    """Write the map with NaN at invalid pixels; a valid depth that is not a positive,
    finite float32 would read back as invalid, an error raised before the file is opened."""
    data = _float32(np.where(depth.valid, depth.values, np.nan))
    kept = data[depth.valid]
    if not (np.isfinite(kept).all() and (kept > 0.0).all()):
        raise DocumentError(f"{path}: valid depths must stay positive and finite in PFM's float32")
    with open(path, "wb") as stream:
        _write_pfm_payload(stream, data, b"Pf")


def read_depth_pfm(path: str) -> DepthMap:
    data = _read_pfm_payload(path)
    if data.ndim != 2:
        raise DocumentError(f"{path}: expected a grayscale PFM depth map")
    return DepthMap.from_values(data)


def write_field_pfm(path: str, field: IncidenceField) -> None:
    """Write the rays; one beyond float32's range is an error raised before the file is opened."""
    rays = _float32(field.rays)
    if not np.isfinite(rays).all():
        raise DocumentError(f"{path}: ray components exceed the float32 range of PFM")
    with open(path, "wb") as stream:
        _write_pfm_payload(stream, rays, b"PF")


def read_field_pfm(path: str) -> IncidenceField:
    data = _read_pfm_payload(path)
    if data.ndim != 3:
        raise DocumentError(f"{path}: expected a 3-channel PFM incidence field")
    return _named(path, IncidenceField, data)


# ---------------------------------------------------------------------------
# PLY

# Rows formatted per block; bounds the text array to ~3 MB for any cloud size.
_PLY_BLOCK_ROWS = 8192


def _float32_text(value: float) -> str:
    return np.format_float_positional(np.float32(value), unique=True, trim="0")


def _ply_ascii_lines(block: np.ndarray) -> str:
    """Vertex lines of a block of float32 rows, each value as `_float32_text` prints it.

    `astype(str)` prints the same shortest float32 digits but switches to
    exponent form outside [1e-4, 1e16); those cells are reformatted in the
    `tolist()` rows, not in the fixed-width array, which would truncate them.
    """
    text = block.astype(str)
    rows = text.tolist()
    for i, j in zip(*np.nonzero(np.char.find(text, "e") >= 0)):
        rows[i][j] = _float32_text(block[i, j])
    return "".join(f"{x} {y} {z}\n" for x, y, z in rows)


def write_ply(path: str, cloud: PointCloud, binary: bool = False) -> None:
    """Write the cloud as float32 vertices; a coordinate beyond float32's range
    is an error raised before the file is opened."""
    points = _float32(cloud.points)
    if not np.isfinite(points).all():
        raise DocumentError(f"{path}: point coordinates exceed the float32 range of PLY")
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    with open(path, "wb") as stream:
        stream.write(header.encode("ascii"))
        if binary:
            stream.write(points.tobytes())
        else:
            for start in range(0, len(points), _PLY_BLOCK_ROWS):
                block = points[start:start + _PLY_BLOCK_ROWS]
                stream.write(_ply_ascii_lines(block).encode("ascii"))


def read_ply(path: str) -> PointCloud:
    with open(path, "rb") as stream:
        first = stream.readline().strip()
        if first != b"ply":
            raise DocumentError(f"{path}: not a PLY file")
        fmt = None
        count = None
        properties: list[bytes] = []
        while True:
            line = stream.readline()
            if line == b"":
                raise DocumentError(f"{path}: truncated PLY header")
            line = line.strip()
            if line == b"end_header":
                break
            parts = line.split()
            if not parts or (parts[0] in (b"format", b"element", b"property") and len(parts) < 3):
                raise DocumentError(f"{path}: malformed PLY header line {line!r}")
            if parts[0] == b"format":
                fmt = parts[1]
            elif parts[0] == b"element":
                if parts[1] != b"vertex":
                    raise DocumentError(f"{path}: only vertex elements are supported")
                try:
                    count = int(parts[2])
                except ValueError:
                    raise DocumentError(f"{path}: vertex count {parts[2]!r} is not an integer") from None
                if count < 0:
                    raise DocumentError(f"{path}: negative vertex count {count}")
            elif parts[0] == b"property":
                if parts[1] != b"float":
                    raise DocumentError(f"{path}: only float properties are supported")
                properties.append(parts[2])
        if fmt not in (b"ascii", b"binary_little_endian"):
            raise DocumentError(f"{path}: unsupported PLY format {fmt!r}")
        if count is None or properties != [b"x", b"y", b"z"]:
            raise DocumentError(f"{path}: expected exactly float x, y, z vertex properties")
        if fmt == b"binary_little_endian":
            _check_payload_fits(stream, 12 * count, path)
            raw = stream.read(12 * count)
            points = np.frombuffer(raw, dtype="<f4").reshape(count, 3).astype(np.float64)
        else:
            # the shortest vertex line is "0 0 0\n"; the last may lack its newline
            _check_payload_fits(stream, 6 * count - 1, path)
            points = np.empty((count, 3))
            for i in range(count):
                line = stream.readline()
                if line == b"":
                    raise DocumentError(f"{path}: truncated PLY payload at vertex {i}")
                try:
                    points[i] = [float(tok) for tok in line.split()]
                except ValueError as exc:
                    raise DocumentError(f"{path}: bad vertex line {i}: {exc}") from exc
            # properties are declared float32; snap so ascii and binary agree
            points = points.astype(np.float32).astype(np.float64)
    return _named(path, PointCloud, points)


# ---------------------------------------------------------------------------
# JSON documents

def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except (ValueError, RecursionError) as exc:
        # also an integer past Python's digit limit, or nesting past the recursion limit
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc


def _check_fields(obj: dict, required: tuple, optional: tuple, where: str) -> None:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise DocumentError(f"{where}: missing fields {missing}")
    unknown = [name for name in obj if name not in required and name not in optional]
    if unknown:
        raise DocumentError(f"{where}: unknown fields {unknown}")


def _number(obj: dict, name: str, where: str) -> float:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{where}: field {name!r} must be a number, got {value!r}")
    return float(value)


def write_intrinsics(path: str, k: Intrinsics) -> None:
    write_json_document(path, asdict(k))


def read_intrinsics(path: str) -> Intrinsics:
    obj = _load_json(path)
    _check_fields(obj, ("fx", "fy", "cx", "cy", "width", "height"), (), path)
    width = obj["width"]
    height = obj["height"]
    for name, value in (("width", width), ("height", height)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DocumentError(f"{path}: field {name!r} must be an integer, got {value!r}")
    numbers = {name: _number(obj, name, path) for name in ("fx", "fy", "cx", "cy")}
    k = _named(path, Intrinsics, width=width, height=height, **numbers)
    # beyond float32 the rays have no field-file form, and points and their
    # squared distances can overflow
    if not k.ray_extent() <= FLOAT32_MAX:
        raise DocumentError(f"{path}: ray components reach {k.ray_extent():g}, "
                            f"beyond float32's {FLOAT32_MAX:g}")
    return k


def write_constraints(path: str, constraints: list[DistanceConstraint]) -> None:
    records = [
        {"u1": c.u1, "v1": c.v1, "u2": c.u2, "v2": c.v2, "d1": c.d1, "d2": c.d2, "L": c.distance}
        for c in constraints
    ]
    write_json_document(path, records)


def _record_depth(rec: dict, name: str, u: float, v: float, depth: DepthMap | None, where: str) -> float:
    """The record's depth ``name`` if given, else the map's depth at (u, v).

    With a map, the pixel must lie inside it either way (which NaN and inf
    never do): a pixel outside the image measures nothing in it.
    """
    if depth is not None and not (0 <= u < depth.width and 0 <= v < depth.height):
        raise DocumentError(f"{where}: pixel ({u}, {v}) is outside the depth map")
    if name in rec:
        return _number(rec, name, where)
    if depth is None:
        raise DocumentError(f"{where}: {name} missing and no depth map supplied")
    iu, iv = int(u), int(v)
    if iu != u or iv != v:
        raise DocumentError(
            f"{where}: pixel ({u}, {v}) must have integer coordinates to read its depth"
        )
    if not depth.valid[iv, iu]:
        raise DocumentError(f"{where}: pixel ({iu}, {iv}) has no valid depth")
    return float(depth.values[iv, iu])


def read_constraints(path: str, depth: DepthMap | None = None) -> list[DistanceConstraint]:
    """Parse constraint records; d1/d2 missing means read from the depth map.

    A given depth map bounds every pixel, also in records with their depths.
    """
    records = _load_json(path)
    if not isinstance(records, list):
        raise DocumentError(f"{path}: expected a JSON array of constraint records")
    out = []
    for i, rec in enumerate(records):
        where = f"{path}: record {i}"
        _check_fields(rec, ("u1", "v1", "u2", "v2", "L"), ("d1", "d2"), where)
        u1 = _number(rec, "u1", where)
        v1 = _number(rec, "v1", where)
        u2 = _number(rec, "u2", where)
        v2 = _number(rec, "v2", where)
        d1 = _record_depth(rec, "d1", u1, v1, depth, where)
        d2 = _record_depth(rec, "d2", u2, v2, depth, where)
        distance = _number(rec, "L", where)
        out.append(_named(
            where, DistanceConstraint, u1=u1, v1=v1, u2=u2, v2=v2, d1=d1, d2=d2, distance=distance
        ))
    return out


# each primitive's class and its document fields, in the order of its constructor
_PRIMITIVES = {
    "plane": (Plane, ("point", "normal")),
    "sphere": (Sphere, ("center", "radius")),
    "box": (Box, ("min", "max")),
}


def _vector3(obj: dict, name: str, where: str) -> tuple[float, float, float]:
    value = obj[name]
    if (
        not isinstance(value, list)
        or len(value) != 3
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise DocumentError(f"{where}: field {name!r} must be a list of 3 numbers")
    return (float(value[0]), float(value[1]), float(value[2]))


def read_scene(path: str) -> SceneSpec:
    obj = _load_json(path)
    _check_fields(obj, ("primitives",), (), path)
    if not isinstance(obj["primitives"], list) or not obj["primitives"]:
        raise DocumentError(f"{path}: 'primitives' must be a non-empty array")
    prims: list = []
    for i, rec in enumerate(obj["primitives"]):
        where = f"{path}: primitive {i}"
        if not isinstance(rec, dict) or "type" not in rec:
            raise DocumentError(f"{where}: each primitive needs a 'type' field")
        kind = rec["type"]
        if not isinstance(kind, str) or kind not in _PRIMITIVES:
            raise DocumentError(f"{where}: unknown primitive type {kind!r}")
        cls, names = _PRIMITIVES[kind]
        _check_fields(rec, ("type",) + names, (), where)
        values = [(_number if name == "radius" else _vector3)(rec, name, where) for name in names]
        prims.append(_named(where, cls, *values))
    return SceneSpec(primitives=tuple(prims))


def write_trace(path: str, trace: list[float]) -> None:
    write_json_document(path, list(trace))


def read_trace(path: str) -> list[float]:
    obj = _load_json(path)
    if not isinstance(obj, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in obj
    ):
        raise DocumentError(f"{path}: expected a JSON array of numbers")
    return [float(v) for v in obj]


def write_json_document(path: str | None, doc: Any) -> str:
    """Write ``doc`` as JSON indented by 2 with a final newline, unless
    ``path`` is None; return the text (for stdout)."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
    return text
