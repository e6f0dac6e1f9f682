import json
import math

import numpy as np
import pytest

import bregcheb as bc
from bregcheb import cli

from helpers import SPD_MATRIX, reference_colormap_csv, reference_ppm_bytes, reference_sphere_rows


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_energy(capsys):
    code, out, _ = run_cli(capsys, ["dist", "--gen", "energy", "--x", "3,4", "--y", "1,1"])
    assert code == 0
    assert json.loads(out) == {"distance": 6.5}


def test_dist_zero(capsys):
    code, out, _ = run_cli(capsys, ["dist", "--gen", "negentropy", "--x", "1,1", "--y", "1,1"])
    assert code == 0
    assert json.loads(out) == {"distance": 0.0}


def test_dist_inf(capsys):
    code, out, _ = run_cli(capsys, ["dist", "--gen", "neglog", "--x", "1,1", "--y", "0,1"])
    assert code == 0
    assert json.loads(out) == {"distance": "inf"}


def test_dist_quad_requires_matrix(capsys):
    code, _, err = run_cli(capsys, ["dist", "--gen", "quad", "--x", "1,1", "--y", "0,0"])
    assert code == 2
    assert "matrix" in err


def test_dist_quad_with_matrix(capsys):
    code, out, _ = run_cli(capsys, [
        "dist", "--gen", "quad", "--matrix", "2,0;0,4", "--x", "1,1", "--y", "0,0",
    ])
    assert code == 0
    assert json.loads(out) == {"distance": 3.0}


def test_farthest_command(capsys):
    code, out, _ = run_cli(capsys, [
        "farthest", "--gen", "energy", "--segment", "4", "--samples", "5", "--x", "0,0",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 8.5
    assert doc["argmax"] == [[1.0, 4.0], [4.0, 1.0]]


def test_center_kl(capsys):
    code, out, _ = run_cli(capsys, [
        "center", "--gen", "negentropy", "--segment", "4", "--solver", "subgrad",
    ])
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["center"], [2.0, 2.0], atol=1e-5)
    assert doc["valid"] is True


def test_center_neglog_a32(capsys):
    from bregcheb import g_of

    code, out, _ = run_cli(capsys, [
        "center", "--gen", "neglog", "--segment", "32", "--solver", "both",
    ])
    assert code == 0
    doc = json.loads(out)
    g = g_of(32.0)
    assert np.allclose(doc["fixed_point"]["center"], [g, g], atol=1e-4)
    assert np.allclose(doc["subgradient"]["center"], [g, g], atol=1e-4)
    assert doc["disagreement"] <= 1e-6


def test_center_singleton(capsys):
    code, out, _ = run_cli(capsys, [
        "center", "--gen", "energy", "--points", "1,1", "--solver", "subgrad",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["center"] == [1.0, 1.0]
    assert doc["radius"] <= 1e-15


def test_center_requires_set(capsys):
    code, _, err = run_cli(capsys, ["center", "--gen", "energy"])
    assert code == 2
    assert "set" in err


def test_center_nonconvergence_exit_code(capsys):
    code, out, _ = run_cli(capsys, [
        "center", "--gen", "energy", "--points", "0,0;2,0;1,1.5", "--solver", "fixed",
        "--tol", "1e-15", "--max-iter", "5", "--no-polish", "--x0", "0,0",
    ])
    assert code == 3
    doc = json.loads(out)  # certificate still printed
    assert doc["iterations"] == 5


def test_oracle_neglog(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--gen", "neglog", "--a", "4"])
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["center"], [1.6, 1.6])
    assert doc["mu"] == [0.5, 0.0, 0.5]
    assert abs(doc["threshold"] - 17.63) <= 0.005


def test_oracle_energy(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--gen", "energy", "--a", "8"])
    assert code == 0
    assert json.loads(out)["center"] == [4.5, 4.5]


def test_colormap_values_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "map1.csv"
    out2 = tmp_path / "map2.csv"
    argv = ["colormap", "--gen", "energy", "--segment", "4", "--samples", "5",
            "--region", "0,0,10,10", "--res", "3", "--ppm"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "map1.ppm").read_bytes() == (tmp_path / "map2.ppm").read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 10
    cells = {}
    for line in lines[1:]:
        x, y, v = line.split(",")
        cells[(float(x), float(y))] = float(v)
    # the middle cell sees both endpoints at equal distance
    assert cells[(5.0, 5.0)] == 8.5


def test_colormap_domain_cells(tmp_path):
    out = tmp_path / "kl.csv"
    assert cli.main([
        "colormap", "--gen", "negentropy", "--segment", "4", "--samples", "5",
        "--region=-1,-1,1,1", "--res", "3", "--out", str(out), "--ppm",
    ]) == 0
    rows = {}
    for line in out.read_text().strip().splitlines()[1:]:
        x, y, v = line.split(",")
        rows[(float(x), float(y))] = v
    assert rows[(-1.0, -1.0)] == "inf"      # outside dom f
    assert rows[(0.0, 0.0)] != "inf"        # boundary of the orthant is in dom f
    assert rows[(1.0, 1.0)] != "inf"

    ppm = (tmp_path / "kl.ppm").read_bytes()
    header, pixels = ppm.split(b"\n255\n", 1)
    assert header == b"P6\n3 3"
    assert len(pixels) == 27
    # top-left pixel is (x=-1, y=1): outside dom f, rendered black
    assert pixels[0:3] == b"\x00\x00\x00"
    # bottom row contains y=-1 cells: black, and the (0,-1) cell too
    assert pixels[18:21] == b"\x00\x00\x00"
    # boundary point (0,0) sits outside U: black even though finite
    assert pixels[9 + 3:9 + 6] == b"\x00\x00\x00"
    # (1,1) is the only interior cell, colored (low end of the ramp)
    assert pixels[6:9] == b"\x00\x00\xff"


def test_colormap_neglog_nonpositive_cells(tmp_path):
    out = tmp_path / "is.csv"
    assert cli.main([
        "colormap", "--gen", "neglog", "--segment", "4", "--samples", "5",
        "--region", "0,0,1,1", "--res", "3", "--out", str(out),
    ]) == 0
    rows = {}
    for line in out.read_text().strip().splitlines()[1:]:
        x, y, v = line.split(",")
        rows[(float(x), float(y))] = v
    assert rows[(0.0, 0.0)] == "inf"
    assert rows[(0.0, 1.0)] == "inf"
    assert rows[(0.5, 0.5)] != "inf"


def test_colormap_rejects_degenerate_region(capsys):
    code, _, err = run_cli(capsys, [
        "colormap", "--gen", "energy", "--segment", "4",
        "--region", "0,0,0,10", "--res", "3", "--out", "/tmp/x.csv",
    ])
    assert code == 2


@pytest.mark.parametrize("region", ["0,0,inf,10", "0,nan,10,10", "0,0,10", "0,0,10,10,1"])
def test_colormap_region_needs_four_finite_numbers(tmp_path, capsys, region):
    out = tmp_path / "map.csv"
    code, _, err = run_cli(capsys, [
        "colormap", "--gen", "energy", "--segment", "4",
        "--region=" + region, "--res", "3", "--out", str(out),
    ])
    assert code == 2
    assert "--region must be four finite numbers" in err
    assert not out.exists()


def test_sphere_energy_circle(tmp_path):
    out = tmp_path / "circle.csv"
    assert cli.main([
        "sphere", "--gen", "energy", "--center", "0,0", "--radius", "2",
        "--res", "16", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,x,y,crossing"
    assert len(lines) == 17
    for line in lines[1:]:
        theta, x, y, crossing = line.split(",")
        assert crossing == "1"
        assert abs(math.hypot(float(x), float(y)) - 2.0) <= 1e-8


def test_sphere_zero_radius(capsys):
    code, out, _ = run_cli(capsys, [
        "sphere", "--gen", "energy", "--center", "1,2", "--radius", "0", "--res", "8",
    ])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, x, y, crossing = line.split(",")
        assert (float(x), float(y)) == (1.0, 2.0)


def test_sphere_neglog_small_radius(capsys):
    code, out, _ = run_cli(capsys, [
        "sphere", "--gen", "neglog", "--center", "1,1", "--radius", "0.05",
        "--res", "32",
    ])
    assert code == 0
    import bregcheb as bc

    F = bc.neglog(2)
    z = np.array([1.0, 1.0])
    pts = []
    for line in out.strip().splitlines()[1:]:
        _, x, y, crossing = line.split(",")
        p = np.array([float(x), float(y)])
        assert np.all(p > 0)
        assert abs(bc.distance(F, z, p) - 0.05) <= 1e-8
        pts.append(p)
    assert len(pts) >= 32  # every ray crossed


def test_sphere_sentinel_rows_for_unreachable_radius(capsys):
    code, out, _ = run_cli(capsys, [
        "sphere", "--gen", "energy", "--center", "0,0", "--radius", "1e40",
        "--res", "4",
    ])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, x, y, crossing = line.split(",")
        assert (x, y, crossing) == ("nan", "nan", "0")


def test_center_quadratic_points(capsys):
    code, out, _ = run_cli(capsys, [
        "center", "--gen", "quad", "--matrix", "2,0.5;0.5,1",
        "--points", "1,1;2,0.5;0.2,2", "--solver", "both",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["disagreement"] <= 1e-6
    assert doc["subgradient"]["valid"] is True
    assert len(doc["subgradient"]["farthest"]) >= 2


def test_sphere_rejects_bad_center(capsys):
    code, _, err = run_cli(capsys, [
        "sphere", "--gen", "neglog", "--center", "0,1", "--radius", "1", "--res", "8",
    ])
    assert code == 2


def test_repro_exit_codes(capsys):
    code, out, _ = run_cli(capsys, ["repro"])
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out

    code, out, _ = run_cli(capsys, ["repro", "--tol", "1e-16"])
    assert code == 1
    assert "FAIL" in out


# -- field maps against the one-cell, one-pixel, one-ray reference writers ----

@pytest.mark.parametrize("gen", ["energy", "negentropy", "neglog"])
@pytest.mark.parametrize("region", [(0.7, 1.3, 45.0, 46.1), (-1.0, -2.0, 3.0, 4.0)],
                         ids=["interior", "with-inf-cells"])
def test_colormap_bytes_match_reference(tmp_path, gen, region):
    F = {"energy": bc.energy, "negentropy": bc.negentropy, "neglog": bc.neglog}[gen](2)
    res = 40
    out = tmp_path / "map.csv"
    assert cli.main([
        "colormap", "--gen", gen, "--segment", "32", "--samples", "101",
        "--region=" + ",".join(repr(v) for v in region), "--res", str(res),
        "--out", str(out), "--ppm",
    ]) == 0
    want = reference_colormap_csv(F, bc.make_segment(F, 32.0, 101), region, res)
    assert out.read_bytes() == want.encode("ascii")
    if gen != "energy" and region[0] < 0:
        assert ",inf\n" in want

    rows = [line.split(",") for line in want.splitlines()[1:]]
    values = np.array([float(v) for _, _, v in rows]).reshape(res, res)
    grid = np.array([[float(x), float(y)] for x, y, _ in rows])
    interior = F.in_interior(grid).reshape(res, res)
    assert out.with_suffix(".ppm").read_bytes() == reference_ppm_bytes(values, interior)


@pytest.mark.parametrize("case", ["mixed", "one-value", "none-shown"])
def test_write_ppm_matches_reference(tmp_path, case):
    rng = np.random.default_rng(5)
    values = rng.uniform(-3.0, 40.0, size=(9, 9))
    interior = rng.uniform(size=(9, 9)) < 0.7
    values[0, :3] = np.inf
    values[1, 4] = np.nan
    if case == "one-value":          # span == 0 over the shown pixels
        values[np.isfinite(values)] = 2.5
    elif case == "none-shown":
        interior[:] = False
    path = tmp_path / "img.ppm"
    cli._write_ppm(path, values, interior)
    want = reference_ppm_bytes(values, interior)
    assert path.read_bytes() == want
    assert b"\x00\x00\x00" in want


EPS = np.finfo(float).eps


def _sphere_generator(gen):
    return {"energy": bc.energy(2), "quadratic": bc.quadratic(SPD_MATRIX),
            "negentropy": bc.negentropy(2), "neglog": bc.neglog(2)}[gen]


def _assert_rows_match_reference(F, z, r, got, want, scale=0.0):
    """Rows of ``cli._sphere_rows`` against ``reference_sphere_rows``.

    The thetas and crossings agree, and a row is nan where the reference's
    is, or where the reference's point is off the sphere or outside U.  A
    found point is at least as close to the sphere as the reference's, or
    within 8 ulps of 1 + r + ``scale`` (the size of the terms D is
    computed from), and lies on its dual ray.
    """
    assert [theta for theta, _, _ in got] == [theta for theta, _, _ in want]
    gz = F.grad(z)
    for (theta, p, crossing), (_, q, crossing_ref) in zip(got, want):
        if p is None:
            assert crossing == 0
            assert (q is None or not F.in_interior(q)
                    or abs(bc.distance(F, z, q) - r) > 1e-6 * (1.0 + r)), theta
            continue
        assert q is not None and crossing == crossing_ref == 1, theta
        err = abs(bc.distance(F, z, p) - r)
        assert err <= max(abs(bc.distance(F, z, q) - r), 8 * EPS * (1.0 + r + scale)), theta
        step = F.grad(p) - gz
        u = np.array([math.cos(theta), math.sin(theta)])
        slack = 16 * EPS * (np.abs(gz).sum() + np.abs(F.grad(p)).sum())
        assert abs(step[0] * u[1] - step[1] * u[0]) <= 1e-9 * np.linalg.norm(step) + slack, theta
        assert step @ u >= -slack, theta


SPHERE_CASES = [
    ("energy", (0.3, -1.2), 1.7, 16),
    ("quadratic", (-0.5, 2.0), 0.8, 16),
    ("negentropy", (1.1, 2.5), 1.7, 16),
    ("neglog", (2.7, 0.6), 1.7, 16),
    ("neglog", (1.0, 1.0), 0.0, 8),          # zero radius
    ("energy", (0.0, 0.0), 1e40, 4),         # unreachable: nan rows
    ("negentropy", (1.0, 3.0), 1e40, 4),    # exp overflows before r is met
    # D(z, grad f*(grad f(z))) = 4.8e-17 > r: no sign change in the
    # pre-scan, so each ray reports its scan point nearest the sphere
    ("negentropy", (0.3, 7.0), 1e-300, 4),
    ("neglog", (400.0, 0.5), 1.0, 16),       # grad f(z) near the edge of dom f*
    ("neglog", (1.0, 1.0), 31.0, 8),         # some rays reach the edge first: nan rows
    ("neglog", (2e3, 3e3), 0.3, 16),
]


@pytest.mark.parametrize("gen,z,radius,res", SPHERE_CASES)
def test_sphere_rows_match_per_ray_reference(gen, z, radius, res):
    F = _sphere_generator(gen)
    z = np.array(z)
    got = cli._sphere_rows(F, z, radius, res)
    want = reference_sphere_rows(F, z, radius, res)
    _assert_rows_match_reference(F, z, radius, got, want)
    if gen == "energy" and radius == 1e40:
        assert all(p is None for _, p, _ in got)


def test_sphere_drops_points_that_leave_the_domain():
    # at theta = pi, y = (exp(-t), 3) underflows to (0, 3) long before
    # D(z, y) ~ t reaches r; the last point before that, (5e-324, 3), has
    # D = 743, so these rays give nan rows
    F = bc.negentropy(2)
    z = np.array([1.0, 3.0])
    rows = cli._sphere_rows(F, z, 1e40, 4)
    assert [(theta, crossing) for theta, _, crossing in rows] == [
        (0.0, 1), (0.5 * math.pi, 1), (math.pi, 0), (1.5 * math.pi, 0)]
    for _, p, _ in rows[:2]:
        assert F.in_interior(p)
        # D is f(z) - f(y) - <grad f(y), z - y> with f(y) near 92 r
        assert abs(bc.distance(F, z, p) - 1e40) <= 100 * EPS * 1e40


def test_sphere_rows_random_sweep(monkeypatch):
    # zero, tiny, moderate and unreachable radii around centers spread over
    # six decades.  Every row matches the reference, and no sphere takes
    # more than 100 distance batches: a ray whose |D - r| cannot fall below
    # the rounding of D must stop there instead of shrinking t until the
    # iteration cap (200 batches).
    batches = []
    real_distance = cli.distance

    def counting(*args):
        batches[-1] += 1
        return real_distance(*args)

    monkeypatch.setattr(cli, "distance", counting)
    rng = np.random.default_rng(20)
    gens = ["energy", "quadratic", "negentropy", "neglog"]
    for i in range(120):
        gen = gens[i % 4]
        F = _sphere_generator(gen)
        if gen in ("energy", "quadratic"):
            z = rng.normal(0.0, 3.0, size=2) if i % 5 else np.zeros(2)
        else:
            z = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        radius = [0.0, 10.0 ** rng.uniform(-300.0, -6.0), 10.0 ** rng.uniform(-3.0, 3.0),
                  1e40][(i // 4) % 4]
        batches.append(0)
        got = cli._sphere_rows(F, z, radius, 8)
        assert batches[-1] <= 100, (gen, z, radius)
        want = reference_sphere_rows(F, z, radius, 8)
        scale = abs(F.f(z)) + abs(F.grad(z) @ z)
        _assert_rows_match_reference(F, z, radius, got, want, scale)
