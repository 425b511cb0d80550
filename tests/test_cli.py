"""CLI surface: subcommands, JSON shapes, exit codes, manifests, determinism."""

import contextlib
import csv
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arithdyn
from arithdyn.cli import main, parse_map
from arithdyn.errors import ResourceLimitError
from arithdyn.green import (PAIR_POINT_CAP, EscapeRateField,
                            filled_julia_membership)
from arithdyn.projective import ProjPointQ
from arithdyn.torus import TorusPoint, coordinate_height

Z2P1 = '{"d":2,"U":[1,0,1],"V":[0,0,1]}'
POWER2 = '{"d":2,"U":[1,0,0],"V":[0,0,1]}'
# (z^3 + z + 1) / z; unlike z^2 + 1 and z^2, it has grid points inside
CUBIC = '{"d":3,"U":[1,0,1,1],"V":[0,0,1,0]}'
# Res of this map has a 131-bit cofactor that rho cannot split within its
# budget
UNFACTORABLE = ('{"d":4,"U":[-715337,817236,-190296,-616583,315427],'
                '"V":[-676755,-348182,905102,-521046,715054]}')
# Res = psi_12 = 399165290221 * 798330580441, the least strong pseudoprime
# to the bases 2..37
PSI_12 = 318665857834031151167461
PSI_12_MAP = json.dumps({"d": 2, "U": [1, 1, 0], "V": [0, PSI_12 - 1, PSI_12]})
PSI_12_CANHEIGHT = ["canheight", "--map", PSI_12_MAP, "--point",
                    "399165290221/1", "--tol", "1e-6", "--method", "both"]


def write_unit_cloud(path):
    """The README's cloud.csv: the 8th roots of unity."""
    path.write_text("re,im\n" + "".join(
        f"{math.cos(2 * math.pi * k / 8)!r},"
        f"{math.sin(2 * math.pi * k / 8)!r}\n" for k in range(8)))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


class TestSpecExamples:
    def test_canheight_both(self, capsys):
        code, data = run_cli(["canheight", "--map", Z2P1, "--point", "0/1",
                              "--tol", "1e-8", "--method", "both"], capsys)
        assert code == 0
        assert data["gap"] < 2e-8
        assert data["global"]["error"] <= 1e-8
        assert data["local"]["total_error"] <= 1e-8

    def test_canheight_routes_agree_when_res_is_a_pseudoprime(self, capsys):
        # psi_12 passes Miller-Rabin to the bases 2..37; taken for a prime,
        # it hid the place 399165290221 and the local total read 67.475
        code, data = run_cli(PSI_12_CANHEIGHT, capsys)
        assert code == 0
        assert set(data["local"]["finite_places"]) == {"399165290221",
                                                       "798330580441"}
        assert data["gap"] <= data["global"]["error"] \
            + data["local"]["total_error"]
        assert data["global"]["value"] == pytest.approx(54.1184297, abs=1e-6)

    def test_disjoint_enclosures_end_in_the_error_object(self, capsys,
                                                          monkeypatch):
        import jsonschema
        from arithdyn import dynamics
        from arithdyn.cli import load_schema
        factorize = dynamics.factorize
        monkeypatch.setattr(dynamics, "factorize", lambda n: {PSI_12: 1}
                            if abs(n) == PSI_12 else factorize(n))
        code, data = run_cli(PSI_12_CANHEIGHT, capsys)
        assert code == 1
        jsonschema.validate(data, load_schema("error"))
        assert data["error"] == "InconsistentResultError"

    def test_preperiodic_power_map(self, capsys):
        code, data = run_cli(["preperiodic", "--map", POWER2], capsys)
        assert code == 0
        assert sorted(data["points"]) == ["[0:1]", "[1:-1]", "[1:0]", "[1:1]"]

    def test_mahler_lehmer(self, capsys):
        code, data = run_cli(
            ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], capsys)
        assert code == 0
        assert data["measure"] == pytest.approx(1.1762808182599176, abs=1e-10)

    @pytest.mark.parametrize("b", [10 ** 17, 1000001])
    def test_mahler_bounds_hold_at_50_digits(self, b, capsys):
        # X^2 - b X + 1 has M = its larger root; for b = 10^17 log M lies
        # 1.03e-15 below the float reported, for b = 1000001 M lies 8.6e-12
        # from the float reported
        code, data = run_cli(["mahler", "--poly", f"1,{-b},1"], capsys)
        assert code == 0
        with mpmath.workdps(50):
            M = (b + mpmath.sqrt(mpmath.mpf(b) ** 2 - 4)) / 2
            assert abs(data["measure"] - M) <= data["measure_error"]
            assert abs(data["log_measure"] - mpmath.log(M)) \
                <= data["error_bound"]

    def test_mahler_beyond_the_float_range(self, capsys):
        # X^3 - 10^320 X - 1: M is about 10^320, beyond every float, while
        # log M is finite; its roots multiply to 1, so M = 1 / |r| for its
        # one root r inside the unit circle
        import jsonschema
        from arithdyn.cli import load_schema
        code, data = run_cli(["mahler", f"--poly=-1,{-10 ** 320},0,1"],
                             capsys)
        assert code == 0
        jsonschema.validate(data, load_schema("mahler"))
        assert data["measure"] is None and data["measure_error"] is None
        with mpmath.workdps(50):
            r = mpmath.findroot(lambda x: x ** 3 - mpmath.mpf(10) ** 320 * x
                                - 1, -mpmath.mpf(10) ** -320)
            assert abs(data["log_measure"] + mpmath.log(abs(r))) \
                <= data["error_bound"]

    def test_algheight_beyond_the_float_range(self, capsys):
        import jsonschema
        from arithdyn.cli import load_schema
        code, data = run_cli(["algheight", f"--poly=-1,{-10 ** 320},0,1"],
                             capsys)
        assert code == 0
        jsonschema.validate(data, load_schema("algheight"))
        assert data["mahler"] is None
        assert data["height"] == pytest.approx(320 * math.log(10) / 3)

    def test_algheight_bound_covers_the_division(self, capsys):
        # height = log M / 3 rounds once more than log M does
        code, data = run_cli(["algheight", "--poly=-2,0,0,1"], capsys)
        with mpmath.workdps(50):
            gap = abs(data["height"] - mpmath.log(2) / 3)
        assert code == 0 and gap <= data["error_bound"]


class TestSubcommands:
    def test_height(self, capsys):
        code, data = run_cli(["height", "--point", "3:5:-7"], capsys)
        assert code == 0 and data["h"] == pytest.approx(math.log(7))

    @pytest.mark.parametrize("point", ["3:5:-7", "1/1", "10^40"])
    def test_height_bound_holds_at_50_digits(self, point, capsys):
        # h stays math.log(H), a rounded float; the bound covers the rounding
        point = point.replace("10^40", str(10 ** 40))
        code, data = run_cli(["height", "--point", point], capsys)
        assert code == 0 and data["h"] == math.log(data["H"])
        with mpmath.workdps(50):
            gap = abs(mpmath.mpf(data["h"]) - mpmath.log(data["H"]))
        assert gap <= data["error_bound"] <= gap + 2.0 ** -60 * data["h"]

    def test_height_inf(self, capsys):
        code, data = run_cli(["height", "--point", "inf"], capsys)
        assert code == 0 and data["h"] == 0.0

    def test_enumerate_csv(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, data = run_cli(["enumerate", "--k", "1", "--B", "0.8",
                              "--out", str(out)], capsys)
        assert code == 0 and data["count"] == 8
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x0,x1,H,h"
        assert len(rows) == 9

    def test_enumerate_bound_holds_at_50_digits(self, tmp_path, capsys):
        # the h column holds 17-digit decimals of math.log(H); for H = 9 it
        # reads 2.1972245773362196, not log 9
        out = tmp_path / "pts.csv"
        code, data = run_cli(["enumerate", "--k", "1", "--B", "2.3",
                              "--out", str(out)], capsys)
        assert code == 0 and data["error_bound"] > 0
        with out.open(newline="") as fh, mpmath.workdps(50):
            rows = list(csv.DictReader(fh))
            gaps = [abs(mpmath.mpf(r["h"]) - mpmath.log(int(r["H"])))
                    for r in rows]
        assert len(rows) == data["count"] and "9" in {r["H"] for r in rows}
        assert max(gaps) <= data["error_bound"] <= max(gaps) + 2.0 ** -50

    def test_schanuel(self, capsys):
        code, data = run_cli(["schanuel", "--k", "1", "--B", "100"], capsys)
        assert code == 0 and data["ratio"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("k,B", [(1, "1000"), (2, "50.5"), (3, "12")])
    def test_schanuel_error_bound_covers_the_ratio(self, k, B, capsys):
        from arithdyn.projective import count_points
        code, data = run_cli(["schanuel", "--k", str(k), "--B", B], capsys)
        assert code == 0
        with mpmath.workdps(50):
            ref = count_points(k, int(float(B))) * mpmath.zeta(k + 1) \
                / (2 ** k * mpmath.mpf(B) ** (k + 1))
            assert abs(mpmath.mpf(data["ratio"]) - ref) <= data["error_bound"]
        assert data["error_bound"] <= math.ulp(data["ratio"])

    def test_algheight(self, capsys):
        code, data = run_cli(["algheight", "--poly=-1,2"], capsys)
        assert code == 0
        assert data["height"] == pytest.approx(math.log(2), abs=1e-12)
        assert data["places"]["2"] == pytest.approx(math.log(2), abs=1e-12)
        assert "inf" in data["places"] and "error_bound" in data

    def test_rou(self, capsys):
        code, data = run_cli(["rou", "--poly", "1,0,-1,0,1"], capsys)
        assert code == 0
        assert data["is_root_of_unity"] is True and data["order"] == 12

    @pytest.mark.parametrize("poly,order", [("1,0,-1,0,1", 12),
                                            ("-1,-1,0,1", None)])
    def test_rou_solves_no_roots(self, poly, order, capsys, monkeypatch):
        from arithdyn import polyforms

        def refuse(coeffs, tol):
            raise AssertionError("rou solved for roots")

        monkeypatch.setattr(polyforms, "certified_roots_mp", refuse)
        code, data = run_cli(["rou", f"--poly={poly}"], capsys)
        assert code == 0 and data["order"] == order
        assert data["is_root_of_unity"] is (order is not None)

    def test_goodred(self, capsys):
        code, data = run_cli(
            ["goodred", "--map", '{"d":2,"U":[1,0,0],"V":[0,0,2]}'], capsys)
        assert code == 0
        assert data["bad_primes"] == [2]
        table = {row["p"]: row["good"] for row in data["table"]}
        assert table[2] is False and table[3] is True

    def test_julia_sample(self, tmp_path, capsys):
        out = tmp_path / "julia.csv"
        code, data = run_cli(["julia-sample", "--map", POWER2,
                              "--nx", "9", "--ny", "9", "--out", str(out)],
                             capsys)
        assert code == 0
        assert sum(data["counts"].values()) == 81
        assert out.read_text().startswith("re,im,membership")

    @pytest.mark.parametrize("map_json", [Z2P1, POWER2, CUBIC],
                             ids=["z^2+1", "z^2", "cubic"])
    def test_julia_sample_matches_pointwise_membership(self, map_json,
                                                       tmp_path, capsys):
        # the grid is labelled from one batched escape_vec call; each label
        # must be the one-point call's label at the point the CSV names (the
        # three maps give "outside" only, "outside" and "boundary-uncertain",
        # "outside" and "inside")
        out = tmp_path / "julia.csv"
        re0, re1, im0, im1, nx, ny = -1.9, 1.3, -1.2, 1.5, 9, 7
        code, data = run_cli(["julia-sample", "--map", map_json,
                              "--re0", str(re0), "--re1", str(re1),
                              "--im0", str(im0), "--im1", str(im1),
                              "--nx", str(nx), "--ny", str(ny),
                              "--out", str(out)], capsys)
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (re0 + (re1 - re0) * j / (nx - 1), im0 + (im1 - im0) * i / (ny - 1))
            for i in range(ny) for j in range(nx)]
        field = EscapeRateField(parse_map(map_json), 1e-9)
        want = [filled_julia_membership(field, complex(float(re), float(im)),
                                        1.0) for re, im, _ in rows]
        assert [r[2] for r in rows] == want
        assert data["counts"] == dict(Counter(want))

    def test_tdiam(self, capsys):
        code, data = run_cli(["tdiam", "--map", POWER2, "--n", "3",
                              "--restarts", "4"], capsys)
        assert code == 0
        assert data["delta_n"] == pytest.approx(math.sqrt(3), abs=1e-6)

    def test_tdiam_power_map_no_restarts(self, capsys):
        # power maps return the n-th roots of unity without a search, so
        # they need no start configuration
        code, data = run_cli(["tdiam", "--map", POWER2, "--n", "3",
                              "--restarts", "0"], capsys)
        assert code == 0 and data["converged"] is True
        assert data["delta_n"] == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_discrepancy_power(self, capsys):
        code, data = run_cli(["discrepancy", "--poly=-2,0,1", "--power-d", "2"], capsys)
        assert code == 0
        assert data["gap"] <= 1e-6
        assert data["D_inf"] == pytest.approx(-0.5 * math.log(2), abs=1e-10)

    def test_discrepancy_builds_the_power_map_once(self, capsys,
                                                   monkeypatch):
        from arithdyn import green
        from arithdyn.algebraic import AlgebraicNumber
        from arithdyn.dynamics import RationalMap
        from arithdyn.polyforms import IntPoly
        want = green.discrepancy(EscapeRateField(RationalMap.power(2), 1e-12),
                                 AlgebraicNumber(IntPoly((-2, 0, 1))))
        built, build = [], RationalMap.power.__func__

        def power(cls, d):
            built.append(d)
            return build(cls, d)

        monkeypatch.setattr(RationalMap, "power", classmethod(power))
        code, data = run_cli(["discrepancy", "--poly=-2,0,1", "--power-d", "2"],
                             capsys)
        assert code == 0 and built == [2]
        assert data["D_inf"] == want

    def test_baker_roots_of_unity(self, capsys):
        code, data = run_cli(["baker", "--map", POWER2,
                              "--roots-of-unity", "17"], capsys)
        assert code == 0
        assert data["mean_pairwise_G"] == pytest.approx(-math.log(17) / 16,
                                                        abs=1e-9)

    def test_bilu(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, data = run_cli(["bilu", "--family", "primitive:101",
                              "--exponents", "1,2", "--out", str(out)], capsys)
        assert code == 0
        assert data["moments"]["1"] == pytest.approx(1 / 100, abs=1e-12)
        assert out.read_text().startswith("exponent,moment_magnitude")

    def test_energy(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        rows = ["re,im"] + [f"{math.cos(2*math.pi*k/8):.17g},"
                            f"{math.sin(2*math.pi*k/8):.17g}" for k in range(8)]
        cloud.write_text("\n".join(rows) + "\n")
        code, data = run_cli(["energy", "--map", POWER2,
                              "--cloud", str(cloud)], capsys)
        assert code == 0
        assert data["energy"] == pytest.approx(-math.log(8) / 7, abs=1e-9)

    def test_annulus(self, capsys):
        code, data = run_cli(["annulus", "--poly=-2,0,0,1", "--r", "1.2"],
                             capsys)
        assert code == 0
        assert data["observed_outside_mass"] == 1.0 and data["satisfied"]

    def test_torus_height(self, capsys):
        code, data = run_cli(
            ["torus", "height", "--coords",
             '[{"rational":"2"},{"rational":"1/2"}]'], capsys)
        assert code == 0
        assert data["height"] == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_torus_push(self, capsys):
        code, data = run_cli(
            ["torus", "push", "--coords",
             '[{"rational":"2"},{"rational":"3"}]', "--exp", "1,-1"], capsys)
        assert code == 0 and data["rational"] == "2/3"

    def test_torus_subadd(self, capsys):
        code, data = run_cli(["torus", "subadd", "--alpha", "2",
                              "--beta", "3"], capsys)
        assert code == 0 and data["holds"] is True


def test_import_loads_no_scipy():
    # scipy.optimize took most of the start-up of every CLI process;
    # green.minimize still resolves to scipy's, imported on first read
    code = ("import sys, arithdyn, arithdyn.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from scipy.optimize import minimize\n"
            "print(arithdyn.green.minimize is minimize)\n")
    src = str(Path(arithdyn.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


# README examples that load no numpy
NUMPY_FREE = {"canheight", "preperiodic", "height", "enumerate", "schanuel",
              "goodred", "tdiam", "bilu", "torus", "mahler", "algheight",
              "rou", "annulus", "discrepancy", "baker", "energy"}


def test_numpy_free_commands_load_no_numpy(tmp_path, capsys, monkeypatch):
    # numpy takes about 0.1 s of every CLI process that imports it; the
    # commands above (tdiam on a power map) never touch a float array,
    # certified roots start from a float pass in Python complex numbers, and
    # pairwise means of at most 64 points are summed in Python floats
    examples = [a for a in README_EXAMPLES if a[0] in NUMPY_FREE]
    assert {a[0] for a in examples} == NUMPY_FREE and len(examples) == 18
    julia = next(a for a in README_EXAMPLES if a[0] == "julia-sample")
    code = ("import contextlib, io, json, sys\n"
            "import arithdyn\n"
            "print(json.dumps('numpy' in sys.modules))\n"
            "from arithdyn.cli import main\n"
            "for argv in json.loads(sys.argv[1]) + [json.loads(sys.argv[2])]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        status = main(argv)\n"
            "    print(json.dumps([argv[0], status, 'numpy' in sys.modules,\n"
            "                      json.loads(out.getvalue())]))\n")
    src = str(Path(arithdyn.__file__).parents[1])
    child = tmp_path / "child"
    child.mkdir()
    write_unit_cloud(child / "cloud.csv")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(examples),
                           json.dumps(julia)], capture_output=True, text=True,
                          cwd=child, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[0] is False
    assert [line[:3] for line in lines[1:-1]] == [[a[0], 0, False]
                                                   for a in examples]
    monkeypatch.chdir(tmp_path)
    status, payload = run_cli(julia, capsys)
    assert lines[-1] == ["julia-sample", 0, True, payload] and status == 0
    assert (child / "grid.csv").read_bytes() == (tmp_path / "grid.csv") \
        .read_bytes()


class TestErrorHandling:
    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "arithdyn.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_domain_error_exits_1(self, capsys):
        code, data = run_cli(["mahler", "--poly", "0"], capsys)
        assert code == 1 and "error" in data

    def test_unfactorable_resultant_exits_1(self):
        # factorization must stop, not run on
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "arithdyn.cli", "canheight", "--map",
             UNFACTORABLE, "--point", "1/1"], capture_output=True, text=True,
            timeout=60)
        assert time.monotonic() - start < 10
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "ResourceLimitError"

    @pytest.mark.parametrize("argv", [
        ["julia-sample", "--nx", "3", "--ny", "3"],
        ["tdiam", "--n", "4", "--restarts", "0"]])
    def test_unfactorable_resultant_not_needed(self, argv, capsys):
        # the green layer needs Res but none of its primes
        code, data = run_cli(argv + ["--map", UNFACTORABLE], capsys)
        assert code == 0 and "error" not in data

    def test_degenerate_map_exits_1(self, capsys):
        code, data = run_cli(
            ["canheight", "--map", '{"d":2,"U":[0,1,0],"V":[0,1,0]}',
             "--point", "1/1"], capsys)
        assert code == 1 and "error" in data


class TestRejections:
    """Malformed input ends in exit 1 or 2 with the JSON error object."""

    @staticmethod
    def rejected(args, capsys):
        import jsonschema
        from arithdyn.cli import load_schema
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out.strip().splitlines()

        def refuse(token):
            raise ValueError(f"non-JSON number {token}")

        data = json.loads(out[-1], parse_constant=refuse)
        jsonschema.validate(data, load_schema("error"))
        return code, data

    def test_zero_tolerance(self, capsys):
        code, data = self.rejected(["canheight", "--map", Z2P1, "--point",
                                    "0/1", "--tol", "0"], capsys)
        assert code == 2 and "--tol" in data["message"]

    def test_nan_radius(self, capsys):
        code, data = self.rejected(["annulus", "--poly=-2,0,0,1", "--r", "nan"],
                                   capsys)
        assert code == 2 and "--r" in data["message"]

    def test_argparse_error_is_json(self, capsys):
        code, data = self.rejected(["mahler"], capsys)
        assert code == 2 and data["error"] == "UsageError"

    def test_map_without_v(self, capsys):
        code, data = self.rejected(["canheight", "--map", '{"d":2,"U":[1,0,1]}',
                                    "--point", "0/1"], capsys)
        assert code == 1 and data["error"] == "InvalidInputError"

    def test_negative_grid_size(self, capsys):
        code, data = self.rejected(["julia-sample", "--map", Z2P1,
                                    "--nx", "-5"], capsys)
        assert code == 2 and "--nx" in data["message"]

    @pytest.mark.parametrize("bounds", [
        ["--re0=-1e308", "--re1", "1e308"],    # the span overflows
        ["--im0=-1e308", "--im1", "1e308"],
        ["--re0", "1e308", "--re1", "1.7e308",
         "--im0", "1e308", "--im1", "1.7e308"],  # the moduli overflow
    ])
    def test_grid_that_overflows(self, bounds, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code, data = self.rejected(["julia-sample", "--map", Z2P1,
                                        *bounds, "--nx", "3", "--ny", "2"],
                                       capsys)
        assert code == 1 and data["error"] == "InvalidInputError"

    def test_log_height_bound_beyond_cap(self, capsys):
        code, data = self.rejected(["enumerate", "--k", "1", "--B", "1000"],
                                   capsys)
        assert code == 1 and data["error"] == "ResourceLimitError"

    @pytest.mark.parametrize("nx,ny", [(1025, 1024), (10 ** 9, 10 ** 9)])
    def test_grid_beyond_cap_allocates_nothing(self, nx, ny, capsys):
        # 1025 x 1024 is the smallest such grid above the 2^20-point cap
        start = time.monotonic()
        code, data = self.rejected(["julia-sample", "--map", Z2P1, "--nx",
                                    str(nx), "--ny", str(ny)], capsys)
        assert time.monotonic() - start < 5
        assert code == 1 and data["error"] == "ResourceLimitError"

    def test_power_exponent_beyond_cap(self, capsys):
        start = time.monotonic()
        code, data = self.rejected(["discrepancy", "--poly=-2,0,1",
                                    "--power-d", "65"], capsys)
        assert time.monotonic() - start < 5
        assert code == 1 and data["error"] == "ResourceLimitError"

    def test_count_beyond_cap_allocates_nothing(self, capsys):
        code, data = self.rejected(["schanuel", "--k", "1", "--B", "1e9"],
                                   capsys)
        assert code == 1 and data["error"] == "ResourceLimitError"

    @pytest.mark.parametrize("argv,huge", [
        (["height", "--point", "1e999999999:1"], "1e999999999"),
        (["height", "--point", "1:1E-999999999"], "1E-999999999"),
        (["height", "--point", "1e4300:1"], "1e4300"),
        (["height", "--point", "1" * 4301 + ":1"], "1" * 4301),
        (["torus", "height", "--coords", '[{"rational": "1e999999999"}]'],
         "1e999999999"),
        (["torus", "subadd", "--alpha", "1e999999999", "--beta", "2"],
         "1e999999999"),
        (["torus", "subadd", "--alpha", "2", "--beta=-.5e+999999999"],
         "-.5e+999999999"),
    ], ids=["height", "height-negative-exponent", "height-just-over",
            "height-digits", "torus-height", "torus-subadd-alpha",
            "torus-subadd-beta"])
    def test_rational_beyond_cap(self, argv, huge, capsys, monkeypatch):
        # Fraction('1e999999999') would build 10^999999999, minutes and
        # about 400 MB in one C call; the cap must refuse the string first
        refuse_to_fraction(monkeypatch, huge)
        code, data = self.rejected(argv, capsys)
        assert code == 1 and data["error"] == "ResourceLimitError"

    def test_rational_at_the_cap(self, capsys):
        from arithdyn.numutil import RATIONAL_DIGIT_CAP, parse_rational
        assert RATIONAL_DIGIT_CAP == 4300
        code, data = run_cli(["height", "--point", "1e4299:1"], capsys)
        assert code == 0 and data["H"] == 10 ** 4299
        for s in ("-3/4", " 1.5e-3 ", "1_0e1_0", "-.5E2", 7, "1e4299"):
            assert parse_rational(s) == Fraction(s)
        with pytest.raises(ValueError):
            parse_rational("1/2x")

    @pytest.mark.parametrize("argv", [
        ["baker", "--map", POWER2, "--roots-of-unity", "100000"],
        ["bilu", "--family", "all:100000", "--exponents", "1"],
    ], ids=["baker", "bilu"])
    def test_point_count_beyond_cap(self, argv, capsys):
        # the n x n determinants of 10^5 points would take 160 GB
        start = time.monotonic()
        code, data = self.rejected(argv, capsys)
        assert time.monotonic() - start < 5
        assert code == 1 and data["error"] == "ResourceLimitError"

    def test_energy_cloud_beyond_cap(self, tmp_path, capsys):
        cloud = tmp_path / "big.csv"
        cloud.write_text("re,im\n" + "".join(f"{k},0\n"
                                             for k in range(100000)))
        code, data = self.rejected(["energy", "--map", POWER2, "--cloud",
                                    str(cloud)], capsys)
        assert code == 1 and data["error"] == "ResourceLimitError"

    @pytest.mark.parametrize("argv", [
        ["julia-sample", "--nx", "2", "--ny", "2"],
        ["baker", "--roots-of-unity", "4"],
        ["tdiam", "--n", "3"],
    ], ids=["julia-sample", "baker", "tdiam"])
    def test_map_coefficient_beyond_float(self, argv, capsys):
        # the float layer cannot evaluate 10^320; its field refuses the map
        big = json.dumps({"d": 2, "U": [1, 0, 10 ** 320], "V": [0, 0, 1]})
        code, data = self.rejected([*argv, "--map", big], capsys)
        assert code == 1 and data["error"] == "InvalidInputError"
        assert "U[2]" in data["message"]

    def test_conjugate_beyond_float(self, capsys):
        # a conjugate near 10^320 overflows the moment a complex power
        poly = "poly:-1,-1" + "0" * 320 + ",0,1"
        code, data = self.rejected(["bilu", "--family", poly], capsys)
        assert code == 1 and data["error"] == "OverflowError"

    def test_torus_cloud_beyond_cap_allocates_nothing(self, capsys):
        # 16^6 = 2^24 conjugate products; 5 coordinates (2^20) took 167 MB
        coord = {"minpoly": [-2] + [0] * 15 + [1]}
        start = time.monotonic()
        code, data = self.rejected(["torus", "push", "--coords",
                                    json.dumps([coord] * 6),
                                    "--exp", "1,1,1,1,1,1"], capsys)
        assert time.monotonic() - start < 2
        assert code == 1 and data["error"] == "ResourceLimitError"

    def test_schanuel_k_zero(self, capsys):
        # zeta(1) is a pole; the message names the option
        code, data = self.rejected(["schanuel", "--k", "0", "--B", "10"],
                                   capsys)
        assert code == 1 and data["error"] == "InvalidInputError"
        assert "--k" in data["message"]

    def test_non_finite_result_is_not_printed(self, tmp_path, capsys):
        # a repeated point makes the mean pairing +inf, which is not JSON:
        # the payload reports the mean as null and says why
        import jsonschema
        from arithdyn.cli import load_schema
        cloud = tmp_path / "dup.csv"
        cloud.write_text("re,im\n0.5,0\n0.5,0\n-1,0\n")
        for argv, key in ((["baker", "--points-file"], "mean_pairwise_G"),
                          (["energy", "--cloud"], "energy")):
            code, data = run_cli([argv[0], "--map", POWER2, argv[1],
                                  str(cloud)], capsys)
            assert code == 0 and data["n"] == 3 and data["duplicates"] is True
            assert data["statistic"] is None and data[key] is None
            assert data.get("pass", False) is False
            jsonschema.validate(data, load_schema(argv[0]))
        # two points 2e308 apart: the mean is -inf in floats, not a repeat
        cloud.write_text("1e308,0\n-1e308,0\n")
        code, data = self.rejected(["baker", "--map", POWER2,
                                    "--points-file", str(cloud)], capsys)
        assert code == 1 and data["error"] == "InvalidInputError"

    @pytest.mark.parametrize("text,line", [
        ("re,im\n1\n2,0\n", 2),
        ("1,0\n2,0,0\n", 2),
        ("1,0\n2,nan\n", 2),
        ("1,0\n\n-inf,0\n", 3),
        ("x,y\n1e309,0\n1,0\n", 2),
        ("1,0\n2,x\n", 2),
        ("1,0\n ,0\n", 2),
        ("1,0\nre,im\n2,0\n", 2),   # a header only on line 1
    ], ids=["one-column", "three-columns", "nan", "minus-inf", "1e309",
            "junk", "blank", "late-header"])
    @pytest.mark.parametrize("option", ["--cloud", "--points-file"])
    def test_malformed_cloud_row(self, text, line, option, tmp_path, capsys):
        cloud = tmp_path / "bad.csv"
        cloud.write_text(text)
        command = "energy" if option == "--cloud" else "baker"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy RuntimeWarning
            code, data = self.rejected([command, "--map", POWER2, option,
                                        str(cloud)], capsys)
        assert code == 1 and data["error"] == "InvalidInputError"
        assert f"line {line}:" in data["message"]

    def test_cloud_csv_error(self, tmp_path, capsys):
        # a field beyond the csv module's size limit
        cloud = tmp_path / "big-field.csv"
        cloud.write_text("1,0\n" + "1" * 200000 + ",0\n")
        code, data = self.rejected(["energy", "--map", POWER2, "--cloud",
                                    str(cloud)], capsys)
        assert code == 1 and data["error"] == "InvalidInputError"
        assert "line 2:" in data["message"]

    def test_cloud_read_stops_at_the_cap(self, tmp_path, capsys):
        # the junk after the first point beyond the cap is never read
        cloud = tmp_path / "big.csv"
        cloud.write_text("".join(f"{k},0\n" for k in range(PAIR_POINT_CAP
                                                           + 1)) + "junk\n")
        code, data = self.rejected(["baker", "--map", POWER2,
                                    "--points-file", str(cloud)], capsys)
        assert code == 1 and data["error"] == "ResourceLimitError"

    BOUNDARY_CASES = [
        ("baker-no-points", ["baker", "--map", POWER2], 2),
        ("baker-both-points", ["baker", "--map", POWER2, "--roots-of-unity",
                               "8", "--points-file", "cloud.csv"], 2),
        ("torus-height-no-coords", ["torus", "height"], 2),
        ("torus-push-no-exp", ["torus", "push", "--coords",
                               '[{"rational":"2"}]'], 2),
        ("enumerate-negative-k", ["enumerate", "--k", "-1", "--B", "1"], 2),
        ("schanuel-negative-k", ["schanuel", "--k", "-2", "--B", "10"], 2),
        ("tdiam-negative-restarts", ["tdiam", "--map", POWER2, "--n", "3",
                                     "--restarts", "-1"], 1),
        ("tdiam-power-map-n-above-pool", ["tdiam", "--map", POWER2,
                                          "--n", "5000"], 1),
        ("tdiam-n-above-pool", ["tdiam", "--map", Z2P1, "--n", "5000"], 1),
        ("torus-height-null-rational", ["torus", "height", "--coords",
                                        '[{"rational": null}]'], 1),
        ("torus-height-int-minpoly", ["torus", "height", "--coords",
                                      '[{"minpoly": 5}]'], 1),
        ("torus-height-zero-denominator", ["torus", "height", "--coords",
                                           '[{"rational": "1/0"}]'], 1),
        ("torus-height-float-minpoly", ["torus", "height", "--coords",
                                        '[{"minpoly": [1.5, 2]}]'], 1),
        ("torus-subadd-zero-denominator", ["torus", "subadd", "--alpha", "1/0",
                                           "--beta", "2"], 1),
        ("height-zero-denominator", ["height", "--point", "1/0:1:1"], 1),
    ]

    @pytest.mark.parametrize("argv,expected", [c[1:] for c in BOUNDARY_CASES],
                             ids=[c[0] for c in BOUNDARY_CASES])
    def test_rejected_at_the_boundary(self, argv, expected, capsys):
        code, _ = self.rejected(argv, capsys)
        assert code == expected


# README's CLI examples, with grids, Fekete problems and counts small
# enough that every variant below runs in well under a second
README_EXAMPLES = [
    ["canheight", "--map", Z2P1, "--point", "0/1", "--tol", "1e-8",
     "--method", "both"],
    ["preperiodic", "--map", POWER2],
    ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"],
    ["height", "--point", "3:5:-7"],
    ["enumerate", "--k", "1", "--B", "2.3", "--out", "points.csv"],
    ["schanuel", "--k", "1", "--B", "1000"],
    ["algheight", "--poly=-2,0,0,1"],
    ["rou", "--poly", "1,0,-1,0,1"],
    ["goodred", "--map", '{"d":2,"U":[1,0,0],"V":[0,0,2]}'],
    ["julia-sample", "--map", Z2P1, "--nx", "5", "--ny", "5",
     "--out", "grid.csv"],
    ["tdiam", "--map", POWER2, "--n", "2", "--restarts", "2"],
    ["discrepancy", "--poly=-2,0,1", "--power-d", "2"],
    ["baker", "--map", POWER2, "--roots-of-unity", "64"],
    ["bilu", "--family", "primitive:101", "--exponents", "1,2,3,4,5",
     "--out", "moments.csv"],
    ["energy", "--map", POWER2, "--cloud", "cloud.csv"],
    ["annulus", "--poly=-2,0,0,1", "--r", "1.5"],
    ["torus", "height", "--coords", '[{"rational":"2"},{"rational":"1/2"}]'],
    ["torus", "push", "--coords", '[{"rational":"2"},{"rational":"3"}]',
     "--exp", "1,-1"],
    ["torus", "subadd", "--alpha", "2", "--beta", "3"],
]
TOKENS = ["-1", "0", "1", "2", "nan", "inf", "x", ""]


def _options(argv):
    """Indices of the options in argv (`--name value` or `--name=value`)."""
    return [i for i, a in enumerate(argv) if a.startswith("--")]


def _mutate(argv, i, token):
    """argv with the option at i dropped (token None) or its value replaced."""
    name, eq, _ = argv[i].partition("=")
    if eq:
        return argv[:i] + ([] if token is None else [f"{name}={token}"]) \
            + argv[i + 1:]
    return argv[:i] + ([] if token is None else [name, token]) + argv[i + 2:]


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    write_unit_cloud(work / "cloud.csv")
    return work


def refuse_to_fraction(monkeypatch, huge):
    """Make numutil's Fraction fail on the string `huge`, so a test shows
    that parse_rational refuses it without building the number."""
    from arithdyn import numutil

    def fraction(*args):
        assert args[0] != huge, f"Fraction({huge[:20]!r}...) was called"
        return Fraction(*args)
    monkeypatch.setattr(numutil, "Fraction", fraction)


@pytest.mark.parametrize("build", [
    lambda s: ProjPointQ((s, 1)),
    lambda s: TorusPoint((2, s)),
    lambda s: coordinate_height(s),
], ids=["ProjPointQ", "TorusPoint", "coordinate_height"])
def test_library_rational_beyond_cap(build, monkeypatch):
    # the cap holds for strings handed to the library, not only to the CLI
    refuse_to_fraction(monkeypatch, "1e999999999")
    with pytest.raises(ResourceLimitError):
        build("1e999999999")
    assert build("3/4") == build(Fraction(3, 4))


class ExampleOverrun(Exception):
    """An example ran past its time limit (main() catches no such error)."""


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise ExampleOverrun(f"the example ran over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


EXAMPLE_SECONDS = 30   # a resultant that exhausts the rho budget takes ~1.5 s


def assert_payload_or_error(argv, capsys):
    """main(argv) ends within EXAMPLE_SECONDS in exit 0 and a schema-valid
    payload, or in exit 1/2 and the error object; no exception escapes
    main()."""
    import jsonschema
    from arithdyn.cli import load_schema
    with time_limit(EXAMPLE_SECONDS):
        try:
            code = main(argv)
        except SystemExit as exc:   # usage errors, from the parser
            code = exc.code
    out = capsys.readouterr().out.strip().splitlines()

    def refuse(token):
        raise ValueError(f"non-JSON number {token}")

    data_out = json.loads(out[-1], parse_constant=refuse)
    if code == 0:
        schema = ({"type": "object"} if argv[0] == "torus"
                  else load_schema(argv[0]))
    else:
        assert code in (1, 2)
        schema = load_schema("error")
    jsonschema.validate(data_out, schema)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_argv_ends_in_payload_or_error(data, cli_workdir, capsys,
                                                  monkeypatch):
    """Every README example with one option dropped or given a token from a
    small pool ends in a payload or the error object."""
    argv = data.draw(st.sampled_from(README_EXAMPLES))
    i = data.draw(st.sampled_from(_options(argv)))
    argv = _mutate(argv, i, data.draw(st.sampled_from([None] + TOKENS)))
    monkeypatch.chdir(cli_workdir)   # for the files the examples write
    assert_payload_or_error(argv, capsys)


CLOUD_TOKENS = st.sampled_from(["0", "1", "-1", "0.5", "2e-300", "1e308",
                                 "-1e308", "nan", "inf", "-inf", "1e309",
                                 "x", "", " ", "1/2", "re"]) \
    | st.floats(-3, 3).map(repr)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(CLOUD_TOKENS, max_size=3), max_size=6),
       option=st.sampled_from(["--cloud", "--points-file"]))
def test_cloud_files_end_in_payload_or_error(rows, option, tmp_path, capsys):
    """energy --cloud and baker --points-file on any file of 0-3 column rows
    of numbers, non-finite values and junk."""
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("".join(",".join(row) + "\n" for row in rows))
    command = "energy" if option == "--cloud" else "baker"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy RuntimeWarning
        assert_payload_or_error([command, "--map", POWER2, option,
                                 str(cloud)], capsys)


SIX_DIGITS = st.integers(-10 ** 6, 10 ** 6)


@st.composite
def six_digit_map_argv(draw):
    """canheight, goodred or julia-sample on a random map of degree 2 or 3
    with coefficients up to 10^6 in absolute value."""
    d = draw(st.sampled_from([2, 3]))
    U, V = (draw(st.lists(SIX_DIGITS, min_size=d + 1, max_size=d + 1))
            for _ in "UV")
    f = json.dumps({"d": d, "U": U, "V": V})
    command = draw(st.sampled_from(["canheight", "goodred", "julia-sample"]))
    if command == "canheight":
        a, b = draw(st.integers(-50, 50)), draw(st.integers(1, 50))
        return ["canheight", "--map", f, f"--point={a}/{b}"]
    if command == "goodred":
        return ["goodred", "--map", f]
    return ["julia-sample", "--map", f, "--nx", "3", "--ny", "3"]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=six_digit_map_argv())
def test_six_digit_maps_end_in_payload_or_error(argv, capsys):
    # a resultant rho cannot split within its budget ends in the error
    # object after about a second, so few examples keep this short
    assert_payload_or_error(argv, capsys)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.text("01-/x ", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rational", "minpoly", "x"]), inner,
                      max_size=2),
    max_leaves=6)
WELL_FORMED = st.one_of(
    st.fixed_dictionaries({"rational": st.integers(-9, 9)
                           | st.fractions(max_denominator=9).map(str)}),
    st.fixed_dictionaries({"minpoly": st.lists(st.integers(-2, 2),
                                               max_size=4)}))
# wrong types, nested lists, empty, zero or constant minpolys, zero rationals
MALFORMED = st.one_of(
    st.fixed_dictionaries({"rational": JSON_VALUES}),
    st.fixed_dictionaries({"minpoly": JSON_VALUES}),
    st.sampled_from([{"rational": "0"}, {"rational": 0}, {"rational": "0/7"},
                     {"rational": "1/0"}, {"minpoly": []}, {"minpoly": [0]},
                     {"minpoly": [0, 0, 0]}, {"minpoly": [3]},
                     {"minpoly": [[1, 2]]}, [{"rational": "2"}]]),
    JSON_VALUES)


@st.composite
def torus_argv(draw):
    coords = draw(st.lists(WELL_FORMED | MALFORMED, max_size=3)
                  | st.sampled_from([None, "2", 3, {"rational": "2"}]))
    op = draw(st.sampled_from(["height", "push"]))
    argv = ["torus", op, "--coords", json.dumps(coords)]
    if op == "push":
        exps = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        argv.append("--exp=" + ",".join(map(str, exps)))
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=torus_argv())
def test_malformed_torus_coords_end_in_payload_or_error(argv, capsys):
    assert_payload_or_error(argv, capsys)


class TestSchemas:
    """stdout payloads validate against the shipped JSON schemas."""

    CASES = [
        ("height", ["height", "--point", "2/3"]),
        ("schanuel", ["schanuel", "--k", "1", "--B", "50"]),
        ("mahler", ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"]),
        ("algheight", ["algheight", "--poly=-1,2"]),
        ("rou", ["rou", "--poly", "1,0,1"]),
        ("canheight", ["canheight", "--map", Z2P1, "--point", "1/2",
                       "--tol", "1e-6", "--method", "both"]),
        ("preperiodic", ["preperiodic", "--map", POWER2]),
        ("goodred", ["goodred", "--map", '{"d":2,"U":[1,0,0],"V":[0,0,2]}']),
        ("tdiam", ["tdiam", "--map", POWER2, "--n", "3", "--restarts", "2"]),
        ("discrepancy", ["discrepancy", "--poly=-2,0,1", "--power-d", "2"]),
        ("baker", ["baker", "--map", POWER2, "--roots-of-unity", "8"]),
        ("bilu", ["bilu", "--family", "all:8", "--exponents", "1,8"]),
        ("annulus", ["annulus", "--poly=-2,0,0,1", "--r", "1.5"]),
    ]

    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_payload_validates(self, name, argv, capsys):
        import jsonschema
        from arithdyn.cli import load_schema
        code, data = run_cli(argv, capsys)
        assert code == 0
        jsonschema.validate(data, load_schema(name))

    def test_error_payload_validates(self, capsys):
        import jsonschema
        from arithdyn.cli import load_schema
        code, data = run_cli(["mahler", "--poly", "0"], capsys)
        assert code == 1
        jsonschema.validate(data, load_schema("error"))

    def test_manifest_validates(self, tmp_path, capsys):
        import jsonschema
        from arithdyn.cli import load_schema
        man = tmp_path / "m.json"
        code, _ = run_cli(["--manifest", str(man), "height",
                           "--point", "1/3"], capsys)
        assert code == 0
        jsonschema.validate(json.loads(man.read_text()),
                            load_schema("manifest"))


class TestManifestsAndDeterminism:
    def test_manifest_written(self, tmp_path, capsys):
        man = tmp_path / "manifest.json"
        code, _ = run_cli(["--manifest", str(man), "height",
                           "--point", "2/1"], capsys)
        assert code == 0
        data = json.loads(man.read_text())
        assert data["command"] == "height"
        assert data["versions"]["arithdyn"]
        assert "wall_time_s" in data and "seed" in data

    def test_seeded_csv_bit_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "arithdyn.cli", "--seed", "5",
                 "enumerate", "--k", "1", "--B", "1.7", "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seeded_tdiam_reproducible(self):
        results = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "arithdyn.cli", "--seed", "3",
                 "tdiam", "--map", Z2P1, "--n", "4", "--restarts", "3"],
                capture_output=True, text=True)
            assert proc.returncode == 0
            results.append(proc.stdout)
        assert results[0] == results[1]
