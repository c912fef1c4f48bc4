"""Property tests of the exit-code contract: whatever the documents and
settings hold, `synth`, `calibrate`, `unproject` and `eval` return 0, 1, 2
or 3, raise nothing and warn nothing (a RuntimeWarning fails any test of
the suite); a message that comes with exit code 1 names one of the files
or options of its command line.

Most documents are well formed, with each field sometimes replaced by an
arbitrary JSON value, so the examples reach past the parsers into the
renderer, solvers, refinement and metrics; the rest are arbitrary JSON or
bytes. Every size a document declares is tiny, so a check that fails to run
before an allocation still allocates little; that includes the camera
documents `synth` renders at.
"""

import contextlib
import io
import json
import math
import os

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from metricshape.cli import main

# derandomize: every run draws the same examples, so a tier-1 result repeats;
# no shrink phase: a failing example is reported as drawn, without the many
# further CLI runs that shrinking it would take
FUZZ = settings(
    max_examples=100,
    deadline=None,
    database=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SIDE = st.integers(1, 6)
ANY_FLOAT = st.floats(width=32)
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-8, 8), st.floats(), st.text(max_size=4),
)
JSON_ANY = st.recursive(
    JSON_SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12,
)


def mostly(good: st.SearchStrategy, junk: st.SearchStrategy) -> st.SearchStrategy:
    """A draw from ``good``, except about one draw in eight from ``junk``.

    Three coin flips rather than an integer: hypothesis draws the bounds of
    an integer range far more often than the rest."""
    coins = st.tuples(st.booleans(), st.booleans(), st.booleans())
    return coins.flatmap(lambda c: junk if all(c) else good)


def pfm(w: int, h: int, channels: int) -> st.SearchStrategy:
    """A w x h PFM whose header matches its payload, or arbitrary bytes."""
    if channels == 1:
        sample = mostly(st.floats(0.5, 8.0, width=32), ANY_FLOAT).map(lambda d: [d])
    else:
        sample = st.tuples(ANY_FLOAT, ANY_FLOAT, mostly(st.just(1.0), ANY_FLOAT)).map(list)
    magic = b"Pf" if channels == 1 else b"PF"

    def encode(args) -> bytes:
        samples, little = args
        payload = np.array(samples, dtype="<f4" if little else ">f4").tobytes()
        return magic + f"\n{w} {h}\n{-1.0 if little else 1.0}\n".encode("ascii") + payload

    well_formed = st.tuples(st.lists(sample, min_size=w * h, max_size=w * h), st.booleans())
    return mostly(well_formed.map(encode), st.binary(max_size=96))


def document(value: st.SearchStrategy) -> st.SearchStrategy:
    """The JSON text of a drawn value, or of any JSON value, or arbitrary bytes."""
    junk = st.one_of(JSON_ANY.map(json.dumps), st.binary(max_size=64))
    return mostly(value.map(json.dumps), junk).map(lambda t: t if isinstance(t, bytes) else t.encode())


DROP = object()


def lax(values: dict) -> st.SearchStrategy:
    """The object ``values``; now and then a copy with fields dropped or replaced."""
    fields = {
        name: mostly(st.just(value), st.one_of(st.just(DROP), JSON_SCALAR))
        for name, value in values.items()
    }
    corrupted = st.fixed_dictionaries(fields).map(
        lambda obj: {name: value for name, value in obj.items() if value is not DROP}
    )
    return mostly(st.just(values), corrupted)


@st.composite
def intrinsics(draw, w: int, h: int) -> bytes:
    values = {
        "fx": draw(st.floats(0.5, 50.0)), "fy": draw(st.floats(0.5, 50.0)),
        "cx": draw(st.floats(-3.0, 8.0)), "cy": draw(st.floats(-3.0, 8.0)),
        "width": draw(mostly(st.just(w), SIDE)), "height": draw(mostly(st.just(h), SIDE)),
    }
    return draw(document(lax(values)))


@st.composite
def constraints(draw, w: int, h: int) -> bytes:
    """Pairs whose separations one camera explains exactly, before corruption;
    now and then every separation is scaled by 10^55 to 10^150, so the solve
    leaves float64 though each record is sound."""
    fx, fy = draw(st.floats(1.0, 20.0)), draw(st.floats(1.0, 20.0))
    scale = 10.0 ** draw(mostly(st.just(0), st.integers(55, 150)))
    cx, cy = draw(st.floats(0.0, w)), draw(st.floats(0.0, h))
    pixel = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    depth = st.floats(0.5, 8.0)
    records = []
    for _ in range(draw(st.integers(3, 8))):
        (u1, v1), (u2, v2) = draw(st.tuples(pixel, pixel).filter(lambda p: p[0] != p[1]))
        d1, d2 = draw(depth), draw(depth)
        p1 = ((u1 - cx) / fx * d1, (v1 - cy) / fy * d1, d1)
        p2 = ((u2 - cx) / fx * d2, (v2 - cy) / fy * d2, d2)
        pair = {"u1": u1, "v1": v1, "u2": u2, "v2": v2, "d1": d1, "d2": d2,
                "L": math.dist(p1, p2) * scale}
        records.append(draw(lax(pair)))
    return draw(document(st.just(records)))


@st.composite
def scene(draw) -> bytes:
    """One to three primitives in front of the camera, before corruption; now
    and then a vector holds any floats, NaN, infinities and 1e300 included."""
    coord = st.floats(-3.0, 3.0)
    vector = st.lists(st.floats(), min_size=3, max_size=3)
    ahead = mostly(st.tuples(coord, coord, st.floats(0.5, 6.0)).map(list), vector)
    facing = mostly(st.tuples(coord, coord, st.floats(-2.0, -0.2)).map(list), vector)
    prims = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["plane", "sphere", "box"]))
        if kind == "plane":
            values = {"point": draw(ahead), "normal": draw(facing)}
        elif kind == "sphere":
            values = {"center": draw(ahead), "radius": draw(st.floats(0.1, 2.0))}
        else:
            lo, size = draw(ahead), draw(st.tuples(*[st.floats(0.1, 2.0)] * 3))
            values = {"min": lo, "max": draw(mostly(st.just([a + b for a, b in zip(lo, size)]),
                                                    vector))}
        prims.append(draw(lax({"type": kind, **values})))
    return draw(document(st.just({"primitives": prims})))


def write(directory, name: str, data: bytes) -> str:
    path = os.path.join(str(directory), name)
    with open(path, "wb") as f:
        f.write(data)
    return path


def run(argv: list[str]) -> None:
    """The exit code is one of the contract's, and an exit-1 message names
    one of the command line's files or options."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        named = [a.split("=", 1)[0] if a.startswith("--") else a for a in argv[1:]]
        named = [a for a in named if a.startswith("--") or os.sep in a]
        assert any(a in err.getvalue() for a in named), (argv, err.getvalue())


@FUZZ
@given(data=st.data())
def test_calibrate_any_documents(tmp_path, data):
    w, h = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
    argv = ["calibrate", write(tmp_path, "d.pfm", data.draw(pfm(w, h, 1))),
            write(tmp_path, "c.json", data.draw(constraints(w, h)))]
    run(argv + ["--robust"] * data.draw(st.booleans()))


@FUZZ
@given(data=st.data())
def test_unproject_any_documents(tmp_path, data):
    w, h = data.draw(SIDE), data.draw(SIDE)
    argv = ["unproject", write(tmp_path, "d.pfm", data.draw(pfm(w, h, 1))),
            "--out", str(tmp_path / "c.ply")]
    if data.draw(st.booleans()):
        argv.insert(2, write(tmp_path, "k.json", data.draw(intrinsics(w, h))))
    else:
        fw, fh = data.draw(mostly(st.just((w, h)), st.tuples(SIDE, SIDE)))
        argv += ["--field", write(tmp_path, "f.pfm", data.draw(pfm(fw, fh, 3)))]
    run(argv + ["--binary"] * data.draw(st.booleans()))


@FUZZ
@given(data=st.data())
def test_eval_any_documents(tmp_path, data):
    w, h = data.draw(SIDE), data.draw(SIDE)
    gw, gh = data.draw(mostly(st.just((w, h)), st.tuples(SIDE, SIDE)))
    argv = ["eval", write(tmp_path, "p.pfm", data.draw(pfm(w, h, 1))),
            write(tmp_path, "g.pfm", data.draw(pfm(gw, gh, 1)))]
    if data.draw(st.booleans()):
        argv += ["--pred-intrinsics", write(tmp_path, "kp.json", data.draw(intrinsics(w, h))),
                 "--gt-intrinsics", write(tmp_path, "kg.json", data.draw(intrinsics(gw, gh)))]
    cap = data.draw(st.one_of(st.none(), st.floats()))
    run(argv + ([] if cap is None else [f"--cap={cap!r}"]))


@FUZZ
@given(data=st.data())
def test_refine_any_documents_and_settings(tmp_path, data):
    w, h = data.draw(SIDE), data.draw(SIDE)
    gw, gh = data.draw(mostly(st.just((w, h)), st.tuples(SIDE, SIDE)))
    argv = ["refine", write(tmp_path, "d.pfm", data.draw(pfm(w, h, 1))),
            write(tmp_path, "g.pfm", data.draw(pfm(gw, gh, 1))),
            write(tmp_path, "k.json", data.draw(intrinsics(gw, gh))),
            "--steps", str(data.draw(st.integers(-1, 3))), "--out-prefix", str(tmp_path / "r")]
    setting = {"--init-fov": st.floats(20.0, 120.0), "--lr-depth": st.floats(0.01, 2.0),
               "--lr-theta": st.floats(0.01, 2.0)}
    for flag, good in setting.items():
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(mostly(good, st.floats()))!r}")
    if data.draw(st.booleans()):
        # non-negative, so that no value reads as an option
        weight = mostly(st.floats(0.0, 1.0), st.floats(min_value=0.0))
        argv += ["--weights"] + [repr(data.draw(weight)) for _ in range(4)]
    run(argv)


@FUZZ
@given(data=st.data())
def test_synth_any_documents_and_settings(tmp_path, data):
    argv = ["synth", write(tmp_path, "s.json", data.draw(scene())),
            "--out-prefix", str(tmp_path / "out"),
            "--constraints", str(data.draw(st.integers(0, 4))),
            "--seed", str(data.draw(st.integers(-1, 3)))]
    w, h = data.draw(mostly(st.tuples(st.integers(2, 6), st.integers(2, 6)), st.tuples(SIDE, SIDE)))
    if data.draw(st.booleans()):
        argv += ["--camera", str(data.draw(st.integers(0, 50))), "--width", str(w),
                 "--height", str(h)]
    else:
        argv += ["--camera", write(tmp_path, "k.json", data.draw(intrinsics(w, h)))]
    setting = mostly(st.floats(0.0, 2.0), st.one_of(st.just(math.nan), st.floats()))
    for flag in ("--noise", "--center-jitter"):
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(setting)!r}")
    run(argv)
