import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import so3density.cli as cli
from so3density.analysis import MiseCurve
from so3density.config import ComponentConfig, ExperimentConfig, parse_angle
from so3density.estimators import EstimatorSpec, kernel_estimate
from so3density.kernels import KernelSpec
from so3density.sampling import RotationSample, sample_uniform
from so3density.svg import line_plot
from so3density.transform import QuadratureGrid


SMALL_CFG = """
[mixture]
uniform_weight = 0.3
component.1.weight = 0.5
component.1.kappa = 8
component.1.axis = 1 0 0
component.1.angle = pi/5
component.2.weight = 0.2
component.2.kappa = 12
component.2.axis = 0 1 1
component.2.angle = 2pi/3

[transform]
bandlimit = 12

[kernels]
vp_orders = 4 8
heat_exponents = 2 4
char_cutoffs = 2 4

[study]
sample_sizes = logspace 1 3 5
sample_size = 60
mc_trials = 25
mc_estimators = wavelet:0.25 characteristic:3
estimate_spec = wavelet:0.25
seed = 3
"""


def write_cfg(tmp_path, text=SMALL_CFG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_parse_angle():
    assert parse_angle("pi/6") == pytest.approx(math.pi / 6, abs=0)
    assert parse_angle("4pi/9") == pytest.approx(4 * math.pi / 9, abs=0)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi, abs=0)
    assert parse_angle("0.5") == 0.5
    assert parse_angle("3/4") == 0.75
    for bad in ("", "pie", "pi/0", "x/2"):
        with pytest.raises(ValueError):
            parse_angle(bad)


def test_default_config_encodes_study_values():
    cfg = ExperimentConfig.default()
    assert cfg.bandlimit == 49
    assert cfg.vp_orders == (1, 8, 17, 22, 29, 36, 43)
    assert cfg.heat_times()[0] == 0.5 and cfg.heat_times()[-1] == 2.0**-9
    assert cfg.char_cutoffs == tuple(range(1, 10))
    assert cfg.sample_sizes[0] == 10.0 and cfg.sample_sizes[-1] == pytest.approx(1e5)
    m = cfg.build_mixture()
    assert m.lmax == 45
    # the configured frame rotation is inverted to give the component center
    frame = np.array([math.cos(math.pi / 12), math.sin(math.pi / 12), 0.0, 0.0])
    assert np.allclose(m.components[0].center.q, frame * np.array([1, -1, -1, -1]))


def test_config_text_round_trip():
    cfg = ExperimentConfig.default()
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg
    small = ExperimentConfig.from_text(SMALL_CFG)
    assert ExperimentConfig.from_text(small.to_text()) == small


def test_config_json_alternative():
    mapping = {
        "mixture": {
            "uniform_weight": 0.3,
            "component": {
                "1": {"weight": 0.5, "kappa": 8, "axis": [1, 0, 0], "angle": "pi/5"},
                "2": {"weight": 0.2, "kappa": 12, "axis": [0, 1, 1], "angle": "2pi/3"},
            },
        },
        "transform": {"bandlimit": 12},
        "study": {"seed": 3},
    }
    cfg = ExperimentConfig.from_text(json.dumps(mapping))
    assert cfg.bandlimit == 12 and cfg.seed == 3
    assert cfg.components[0] == ComponentConfig(0.5, 8, (1.0, 0.0, 0.0), math.pi / 5)


def test_config_rejections():
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_text("[study]\nbogus = 1\n")
    with pytest.raises(ValueError, match="sum to 1"):
        ExperimentConfig.from_text("[mixture]\nuniform_weight = 0.9\n")
    with pytest.raises(ValueError, match="key = value"):
        ExperimentConfig.from_text("nonsense\n")
    with pytest.raises(ValueError, match="missing"):
        ExperimentConfig.from_text(
            "[mixture]\nuniform_weight = 0.5\ncomponent.1.weight = 0.5\n"
        )
    with pytest.raises(ValueError, match="bandlimit"):
        ExperimentConfig.from_text("[transform]\nbandlimit = 500\n")


def test_config_uniform_only_and_heat_zero():
    cfg = ExperimentConfig.from_text("[mixture]\nuniform_weight = 1.0\n")
    assert cfg.components == ()
    assert cfg.build_mixture().norm_squared(8) == 1.0
    # scale exponent 0 (t = 1) is allowed
    cfg = ExperimentConfig.from_text("[kernels]\nheat_exponents = 0 1\n")
    assert cfg.heat_times() == (1.0, 0.5)


def test_profiles_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["profiles", "--config", cfg, "--out", str(out), "--svg"]) == 0
    lines = (out / "profiles.csv").read_text().splitlines()
    assert lines[0] == "kernel,bandwidth,omega,value"
    assert len(lines) == 1 + 6 * 1024
    first = lines[1].split(",")
    assert first[0] == "heat" and float(first[2]) == 0.0
    # value at omega = 0 is the kernel peak, sum (2l+1)^2 a_l
    from so3density.kernels import heat_coefficients

    coeffs = heat_coefficients(0.25, 12)
    peak = sum((2 * l + 1) ** 2 * c for l, c in enumerate(coeffs))
    assert float(first[3]) == pytest.approx(peak, rel=1e-12)
    for fam in ("heat", "vp", "char"):
        assert (out / f"profiles_{fam}.svg").read_text().count("<polyline") == 2
    # golden stability
    before = (out / "profiles.csv").read_bytes()
    assert cli.main(["profiles", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "profiles.csv").read_bytes() == before


def test_mise_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert (
        cli.main(["mise", "--config", cfg, "--out", str(out), "--via-quadrature", "--svg"])
        == 0
    )
    with open(out / "mise.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(MiseCurve.HEADER)
    assert len(rows) == 5 * 6
    for kernel, bw, K, value, bound in rows:
        assert float(value) >= float(bound) - 1e-10
    for fam in ("heat", "vp", "char"):
        assert (out / f"mise_{fam}.svg").exists()


def test_mc_validate_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["mc-validate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "mc_validate.csv").read_text().splitlines()
    assert lines[0] == "estimator,mean_ise,stderr,analytic_mise,z"
    assert len(lines) == 1 + 3  # two estimators + uniform control
    for line in lines[1:]:
        assert abs(float(line.split(",")[4])) <= 3.0


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# the configuration of the pinned outputs in tests/golden/ (sample.csv,
# estimate.csv, mise.csv, mc_validate.csv), written by `so3density sample`,
# `estimate tests/golden/sample.csv`, `mise --via-quadrature` and
# `mc-validate` with this file as --config and --seed 7
GOLDEN_CFG = """
[mixture]
uniform_weight = 0.3
component.1.weight = 0.5
component.1.kappa = 4
component.1.axis = 1 0 0
component.1.angle = pi/5
component.2.weight = 0.2
component.2.kappa = 6
component.2.axis = 0 1 1
component.2.angle = 2pi/3

[transform]
bandlimit = 6

[kernels]
vp_orders = 4 8
heat_exponents = 2 4
char_cutoffs = 2 4

[study]
sample_sizes = logspace 1 3 5
sample_size = 200
mc_trials = 4
mc_estimators = wavelet:0.25 characteristic:3 kernel:vp:4
estimate_spec = wavelet:0.25
seed = 7
"""


def read_columns(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, list(zip(*rows))


def test_golden_outputs(tmp_path):
    # the CLI outputs of a small study, pinned: labels and grid nodes exactly,
    # computed numbers to 1e-12 relative (the sample's unit quaternions to
    # 1e-12 of their norm), and z to 1e-8 absolute, since z divides the
    # mean's rounding by its standard error
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    out = tmp_path / "out"
    sample = os.path.join(GOLDEN_DIR, "sample.csv")
    commands = (["sample"], ["estimate", sample], ["mise", "--via-quadrature"], ["mc-validate"])
    for command in commands:
        assert cli.main(command + ["--config", cfg, "--seed", "7", "--out", str(out)]) == 0

    def compare(name, exact=(), atol=0.0):
        header, got = read_columns(out / name)
        want_header, want = read_columns(os.path.join(GOLDEN_DIR, name))
        assert header == want_header and len(got[0]) == len(want[0]), name
        for col, a, b in zip(header, got, want):
            if col in exact:
                assert a == b, f"{name}: column {col}"
                continue
            a, b = np.array(a, dtype=float), np.array(b, dtype=float)
            if col == "z":
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-8, err_msg=name)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=atol, err_msg=f"{name}: {col}")

    compare("sample.csv", atol=1e-12)
    compare("estimate.csv", exact=("phi", "theta", "psi"))
    compare("mise.csv", exact=("kernel", "bandwidth", "K"))
    compare("mc_validate.csv", exact=("estimator",))


def test_sample_estimate_round_trip(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", cfg, "--out", str(out)]) == 0
    sample_path = out / "sample.csv"
    s = RotationSample.from_csv(sample_path)
    assert len(s) == 60
    # seed flag overrides the config seed
    out2 = tmp_path / "out2"
    assert cli.main(["sample", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    assert (out2 / "sample.csv").read_bytes() == sample_path.read_bytes()
    assert cli.main(["sample", "--config", cfg, "--out", str(out2), "--seed", "4"]) == 0
    assert (out2 / "sample.csv").read_bytes() != sample_path.read_bytes()

    assert cli.main(["estimate", "--config", cfg, "--out", str(out), str(sample_path)]) == 0
    lines = (out / "estimate.csv").read_text().splitlines()
    assert lines[0] == "phi,theta,psi,value"
    values = np.array([float(l.split(",")[3]) for l in lines[1:]])
    grid = QuadratureGrid(12)
    assert values.shape[0] == np.prod(grid.shape)
    mass = float(np.sum(grid.weights().ravel() * values))
    assert abs(mass - 1.0) < 1e-8


def test_estimate_csv_matches_csv_writer(tmp_path):
    # the sliced writer emits exactly the bytes of one csv.writer row per node
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["estimate", "--config", cfg, "--out", str(out), str(out / "sample.csv")]) == 0
    config = ExperimentConfig.from_file(cfg)
    grid = QuadratureGrid(config.bandlimit)
    field = EstimatorSpec.from_text(config.estimate_spec).estimate_on_grid(
        RotationSample.from_csv(out / "sample.csv"), grid
    )
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["phi", "theta", "psi", "value"])
    for i, theta in enumerate(grid.thetas):
        for j, phi in enumerate(grid.phis):
            for k, psi in enumerate(grid.psis):
                w.writerow([f"{phi:.17g}", f"{theta:.17g}", f"{psi:.17g}", f"{field[i, j, k]:.17g}"])
    assert (out / "estimate.csv").read_bytes() == ref.getvalue().encode()


def test_estimate_input_errors(tmp_path):
    cfg = write_cfg(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("w,x,y,z\n1,0,0,0\n0.5,0.5,oops,0.1\n")
    assert cli.main(["estimate", "--config", cfg, str(bad)]) == 2
    bad.write_text("w,x,y,z\n")
    assert cli.main(["estimate", "--config", cfg, str(bad)]) == 2
    bad.write_text("w,x,y,z\n2,0,0,0\n")
    assert cli.main(["estimate", "--config", cfg, str(bad)]) == 2
    # a NaN row passes a norm test (abs(nan - 1) > tol is False); it must not
    # reach the estimator and come out as a NaN field
    out = tmp_path / "out"
    bad.write_text("w,x,y,z\n1,0,0,0\nnan,0,0,0\n")
    assert cli.main(["estimate", "--config", cfg, "--out", str(out), str(bad)]) == 2
    assert not (out / "estimate.csv").exists()
    # the library refuses the same rows, as sample rows and as evaluation
    # points, rather than return NaN or a value at an unnormalized point
    sample = sample_uniform(50, seed=1)
    spec = KernelSpec("heat", 0.25)
    for row in ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite and nonzero"):
            RotationSample(np.array([row]))
        with pytest.raises(ValueError, match="finite and nonzero"):
            kernel_estimate(sample, spec, np.array(row))
        with pytest.raises(ValueError, match="finite and nonzero"):
            kernel_estimate(sample, spec, np.array([[1.0, 0.0, 0.0, 0.0], row]))


def test_config_errors_exit_2(tmp_path):
    assert cli.main(["profiles", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[transform]\nbandlimit = oops\n")
    assert cli.main(["profiles", "--config", str(bad)]) == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-command"])
    assert err.value.code == 2


def test_selfcheck_passes(tmp_path, capsys):
    assert cli.main(["selfcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck passed" in out
    assert "coefficient count" in out


def test_selfcheck_detects_perturbation(monkeypatch, capsys):
    import so3density.kernels as kernels

    real = kernels.heat_coefficients

    def perturbed(t, L=None):
        out = real(t, L)
        out = np.array(out)
        if out.shape[0] > 3:
            out[3] += 1e-3
        return out

    monkeypatch.setattr(cli, "heat_coefficients", perturbed)
    rows = cli.run_selfcheck(seed=0, bandlimit=12)
    by_name = {name: ok for name, _, _, ok in rows}
    assert not by_name["heat semigroup coefficients"]
    assert by_name["character orthogonality (l,l' <= 20)"]


def test_svg_writer(tmp_path):
    path = tmp_path / "plot.svg"
    xs = np.array([1.0, 10.0, 100.0])
    line_plot(
        path,
        [("a", xs, xs**-1.0), ("b", xs, xs**-0.5)],
        title="power laws",
        xlabel="x",
        ylabel="y",
        log_x=True,
        log_y=True,
    )
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "power laws" in text
    with pytest.raises(ValueError):
        line_plot(tmp_path / "none.svg", [("x", np.array([-1.0]), np.array([1.0]))], log_x=True)


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: a fresh interpreter imports the CLI
    # without loading it, then, with scipy blocked, passes every selfcheck row
    # and runs the wavelet scale-integration path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys, so3density.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        "from so3density.estimators import wavelet_density_estimate\n"
        "from so3density.sampling import sample_uniform\n"
        "rows = so3density.cli.run_selfcheck(seed=0)\n"
        "pts = sample_uniform(3, seed=2).quaternions\n"
        "via = wavelet_density_estimate(sample_uniform(50, seed=1), 0.25, pts, via_scales=True)\n"
        "print([name for name, _, _, ok in rows if not ok], via.shape)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[] (3,)"]
