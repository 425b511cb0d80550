"""CLI surface: subcommands, JSON shapes, exit codes, manifests, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arithdyn
from arithdyn.cli import main, parse_map
from arithdyn.green import EscapeRateField, filled_julia_membership

Z2P1 = '{"d":2,"U":[1,0,1],"V":[0,0,1]}'
POWER2 = '{"d":2,"U":[1,0,0],"V":[0,0,1]}'
# (z^3 + z + 1) / z; unlike z^2 + 1 and z^2, it has grid points inside
CUBIC = '{"d":3,"U":[1,0,1,1],"V":[0,0,1,0]}'
# Res of this map has a 131-bit cofactor that rho cannot split within its
# budget
UNFACTORABLE = ('{"d":4,"U":[-715337,817236,-190296,-616583,315427],'
                '"V":[-676755,-348182,905102,-521046,715054]}')


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

    def test_preperiodic_power_map(self, capsys):
        code, data = run_cli(["preperiodic", "--map", POWER2], capsys)
        assert code == 0
        assert sorted(data["points"]) == ["[0:1]", "[1:-1]", "[1:0]", "[1:1]"]

    def test_mahler_lehmer(self, capsys):
        code, data = run_cli(
            ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], capsys)
        assert code == 0
        assert data["measure"] == pytest.approx(1.1762808182599176, abs=1e-10)


class TestSubcommands:
    def test_height(self, capsys):
        code, data = run_cli(["height", "--point", "3:5:-7"], capsys)
        assert code == 0 and data["h"] == pytest.approx(math.log(7))

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

    def test_schanuel(self, capsys):
        code, data = run_cli(["schanuel", "--k", "1", "--B", "100"], capsys)
        assert code == 0 and data["ratio"] == pytest.approx(1.0, abs=0.05)

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

    def test_non_finite_result_is_not_printed(self, tmp_path, capsys):
        # a repeated point makes the mean pairing +inf, which is not JSON
        cloud = tmp_path / "dup.csv"
        cloud.write_text("re,im\n0.5,0\n0.5,0\n-1,0\n")
        code, data = self.rejected(["baker", "--map", POWER2,
                                    "--points-file", str(cloud)], capsys)
        assert code == 1 and data["error"] == "ValueError"

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
    (work / "cloud.csv").write_text(
        "re,im\n" + "".join(f"{math.cos(2 * math.pi * k / 8)!r},"
                            f"{math.sin(2 * math.pi * k / 8)!r}\n"
                            for k in range(8)))
    return work


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_argv_ends_in_payload_or_error(data, cli_workdir, capsys,
                                                  monkeypatch):
    """Every README example with one option dropped or given a token from a
    small pool ends in exit 0 and a schema-valid payload, or in exit 1/2 and
    the error object; no exception escapes main()."""
    import jsonschema
    from arithdyn.cli import load_schema
    argv = data.draw(st.sampled_from(README_EXAMPLES))
    i = data.draw(st.sampled_from(_options(argv)))
    argv = _mutate(argv, i, data.draw(st.sampled_from([None] + TOKENS)))
    monkeypatch.chdir(cli_workdir)   # for the files the examples write
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
