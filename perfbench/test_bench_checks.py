"""Each benchmark check accepts the right answer and rejects a wrong one."""

import cmath
import json
import math
from pathlib import Path

import pytest

import bench_checks as bc
import bench_inputs as bi

HERE = Path(__file__).resolve().parent
SCHEMAS = HERE.parent / "src" / "arithdyn" / "schemas"
Z2M1 = ((1, 0, -1), (0, 0, 1))
POWER2 = ((1, 0, 0), (0, 0, 1))


def schema(name):
    return json.loads((SCHEMAS / f"{name}.json").read_text(encoding="utf-8"))


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert bi.heights_inputs(3) == bi.heights_inputs(3)
    assert bi.heights_inputs(3) != bi.heights_inputs(4)
    assert bi.conjugates_inputs(3) == bi.conjugates_inputs(3)
    assert bi.fekete_inputs(3)["grid"] == bi.fekete_inputs(3)["grid"]


def test_random_inputs_are_admissible():
    for U, V in (s["map"] for s in bi.heights_inputs(1)["singles"]):
        assert bi.form_resultant(U, V) != 0
    for kind, _, cs in bi.conjugates_inputs(1)["corpus"]:
        assert bi.is_squarefree(cs) and cs[0] != 0
    assert bi.cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
    assert len(bi.cyclotomic_coeffs(105)) == 49


# heights ------------------------------------------------------------------

def test_height_routes():
    assert not bc.check_height_routes("x", 1e-6, 1.0, 1e-7, 1.0 + 1e-7, 1e-7)
    assert bc.check_height_routes("x", 1e-6, 1.0, 1e-7, 1.0 + 3e-7, 1e-7)
    assert bc.check_height_routes("x", 1e-6, 1.0, 2e-6, 1.0, 1e-7)


def test_functoriality():
    assert not bc.check_functoriality("x", 2, 2.0, 1e-9, 1.0, 1e-9)
    assert bc.check_functoriality("x", 2, 2.0 + 1e-6, 1e-9, 1.0, 1e-9)


def test_power_map_exactness():
    h = math.log(7)
    assert not bc.check_power_exact("x", (3, -7), h, 0.0)
    assert bc.check_power_exact("x", (3, -7), math.nextafter(h, 2.0), 0.0)
    assert bc.check_power_exact("x", (3, -7), h, 1e-300)


def test_preperiodic_set_missing_a_point_is_rejected():
    full = [(0, 1), (1, -1), (1, 0), (1, 1)]     # z^2 - 1
    assert not bc.check_preperiodic("z^2-1", *Z2M1, full)
    assert bc.check_preperiodic("z^2-1", *Z2M1, full[:-1])
    assert bc.check_preperiodic("z^2-1", *Z2M1, full + [(2, 1)])


def test_commuting():
    assert not bc.check_commuting("x", 1e-8, 1e-6, 6, 6)
    assert bc.check_commuting("x", 2e-6, 1e-6, 6, 6)
    assert bc.check_commuting("x", 1e-8, 1e-6, 5, 6)


# conjugates ---------------------------------------------------------------

def test_mahler_moved_by_ten_times_its_allowance_is_rejected():
    lehmer = bi.LEHMER
    want = bc.expected_log_mahler("lehmer", lehmer, bc.oracle_roots(lehmer))
    assert abs(want - math.log(1.1762808182599176)) < 1e-15
    err = 1e-15
    assert not bc.check_mahler("lehmer", want, want + err, err)
    assert bc.check_mahler("lehmer", want, want + 10 * (err + 1e-12), err)
    assert bc.expected_log_mahler("binomial", (-2, 0, 1), None) == math.log(2)


def test_root_of_unity_verdicts():
    assert not bc.check_root_of_unity("x", "cyclotomic", 12, True, 12)
    assert bc.check_root_of_unity("x", "cyclotomic", 12, True, 24)
    assert bc.check_root_of_unity("x", "cyclotomic", 12, False, None)
    assert not bc.check_root_of_unity("x", "random", 3, False, None)
    assert bc.check_root_of_unity("x", "random", 3, True, 6)


def test_places_and_annulus():
    assert not bc.check_places("x", 0.5, 0.5 + 1e-13, 0.0)
    assert bc.check_places("x", 0.5, 0.5 + 1e-9, 1e-12)
    assert not bc.check_annulus("x", 0.25, 0.3, 0.5)
    assert bc.check_annulus("x", 0.5, 0.3, 0.5)
    assert bc.check_annulus("x", 0.5, 0.9, 0.25)
    assert bc.outside_fraction(bc.root_moduli("binomial", (-2, 0, 1), None), 1.1) == 1
    assert bc.outside_fraction(bc.root_moduli("cyclotomic", (1, 1, 1), None), 1.1) == 0


def test_pushforward_polynomial_must_vanish():
    ra = bc.oracle_roots((-2, 0, 1))
    rb = bc.oracle_roots((-3, 0, 1))
    assert not bc.check_vanishes("x", (-6, 0, 1), ra, rb, (1, 1))   # X^2 - 6
    assert bc.check_vanishes("x", (-5, 0, 1), ra, rb, (1, 1))
    assert not bc.check_vanishes("x", (-2, 0, 3), ra, rb, (1, -1))  # 3X^2 - 2


def test_subadditivity():
    h2, h3 = math.log(2) / 2, math.log(3) / 2
    assert not bc.check_subadditivity("x", True, h2, h3, math.log(6) / 2, h2, h3)
    assert bc.check_subadditivity("x", False, h2, h3, math.log(6) / 2, h2, h3)
    assert bc.check_subadditivity("x", True, h2 + 1e-6, h3, math.log(6) / 2, h2, h3)


# fekete -------------------------------------------------------------------

def test_fekete_configuration_with_a_different_oracle_score_is_rejected():
    n = 10
    config = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    delta = n ** (1 / (n - 1))
    assert not bc.check_fekete_config("z^2", *POWER2, delta, config)
    assert not bc.check_power_delta("z^2", n, delta)
    assert bc.check_fekete_config("z^2", *POWER2, delta + 1e-5, config)
    moved = config[:-1] + [config[-1] * cmath.exp(0.01j)]
    assert bc.check_fekete_config("z^2", *POWER2, delta, moved)
    assert bc.check_power_delta("z^2", n, delta + 1e-5)


def test_fekete_below_capacity_or_increasing_is_rejected():
    assert bc.check_fekete_config("z^2", *POWER2, 0.9, [1, -1])
    assert bc.check_nonincreasing("s", {5: 1.69, 10: 1.40, 15: 1.41})
    assert not bc.check_nonincreasing("s", {5: 1.69, 10: 1.40, 15: 1.4005})
    assert bc.check_reaches_reference("s", 1.2, 1.2289)
    assert not bc.check_reaches_reference("s", 1.2285, 1.2289)


def test_leja_references_match_the_known_values():
    z2p1 = ((1, 0, 1), (0, 0, 1))
    assert abs(bc.leja_reference(*z2p1, 20) - 1.2289) < 1e-4
    assert abs(bc.leja_reference(*z2p1, 5) - 1.6848) < 1e-4
    # z - 1/z: the Julia set is the real line, where Lambda(z, 1) is not 0
    assert abs(bc.leja_reference((1, 0, -1), (0, 1, 0), 12) - 1.3355) < 1e-4


def test_float_escape_agrees_with_the_oracle():
    U, V = (1, 0, -1), (0, 1, 0)
    zs = [0.5 + 0.25j, 2.0 + 0j, -1.5 + 0.1j]
    lam = bc.float_escape(U, V, zs)
    for z, v in zip(zs, lam):
        assert abs(v - bc.oracle_escape(U, V, z)) < 1e-9


def test_membership_verdicts():
    pts = [0j, 3 + 0j]                  # 0 -> -1 -> 0 is bounded; 3 escapes
    assert not bc.check_membership("z^2-1", *Z2M1, pts,
                                   ["boundary-uncertain", "outside"], 4e-11)
    assert bc.check_membership("z^2-1", *Z2M1, pts, ["outside", "outside"], 4e-11)
    assert bc.check_membership("z^2-1", *Z2M1, pts,
                               ["boundary-uncertain", "boundary-uncertain"], 4e-11)


def test_unity_pairing_and_discrepancy():
    n = 64
    assert not bc.check_unity_pairing("x", n, -math.log(n) / (n - 1))
    assert bc.check_unity_pairing("x", n, -math.log(n) / (n - 1) + 1e-8)
    h = math.log(2) / 2
    assert not bc.check_discrepancy("x", h, h, 0.0, h)
    assert bc.check_discrepancy("x", h, h + 1e-6, 1e-6, h)
    assert bc.check_discrepancy("x", h + 1e-6, h + 1e-6, 0.0, h)


# cli ----------------------------------------------------------------------

def test_payload_that_breaks_its_schema_is_rejected():
    good = {"point": "[3:5:-7]", "H": 7, "h": math.log(7), "error_bound": 0.0}
    assert not bc.check_schema("height", good, schema("height"))
    assert bc.check_schema("height", {"point": "[3:5:-7]"}, schema("height"))
    assert bc.check_schema("height", dict(good, H="7"), schema("height"))


def test_cli_success_needs_strict_json_and_the_closed_form():
    expect = bc.cli_expectations(bi.cli_cloud(1))
    out = json.dumps({"point": "[3:5:-7]", "H": 7, "h": math.log(7),
                      "error_bound": 0.0})
    assert not bc.check_cli_success("height", 0, out, schema("height"),
                                    expect["height"])
    assert bc.check_cli_success("height", 0, out.replace("7,", "8,", 1),
                                schema("height"), expect["height"])
    assert bc.check_cli_success("height", 1, out, schema("height"), expect["height"])
    with pytest.raises(ValueError):
        bc.parse_payload('{"bound": NaN}')


def test_rejection_outcomes():
    err = schema("error")
    ok, _ = bc.rejection_outcome(
        1, '{"error": "InvalidInputError", "message": "bad"}\n', "", err)
    assert ok
    ok, how = bc.rejection_outcome(
        1, "", "Traceback (most recent call last):\nOverflowError: math range error\n",
        err)
    assert not ok and "OverflowError" in how
    ok, _ = bc.rejection_outcome(0, '{"bound": NaN}\n', "", err)
    assert not ok
    ok, _ = bc.rejection_outcome(1, '{"error": 3}\n', "", err)
    assert not ok


def test_point_counts():
    assert bc.count_points_brute(1) == 4
    assert bc.count_points_brute(9) == 112
    assert abs(bc.schanuel_ratio_brute(1000) - 1.0007515673253913) < 1e-12


def test_benchmark_json_names_every_reported_metric():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run._layer_metrics()


def test_benchmark_json_lists_workloads_the_command_runs():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        run.parse_args(["--workload", w["name"], "--seed", "1", "--seconds", "1"])


def test_pacer_scales_by_the_kernel_times_around_an_operation():
    import bench_speed
    pacer = bench_speed.Pacer()
    pacer.times = [0.0, 0.5, 3.0, 3.02, 6.0]
    pacer.samples = [1e-3, 2e-3, 3e-3, 3e-3, 9e-3]
    nominal = bench_speed.NOMINAL_S
    # a 2-s operation from 0.6 s: the timings at 0.0 to 3.02 s lie within 1 s
    assert pacer.scaled(0.6, 2.0) == pytest.approx(2.0 * nominal / 2.25e-3)
    # a short one at 3.01 s: within 1 s only the timings at 3.0 and 3.02 s
    assert pacer.scaled(3.01, 0.005) == pytest.approx(0.005 * nominal / 3e-3)
    # a 0.1-s one at 4.1 s: the nearest timing on either side, 3.02 and 6.0 s
    assert pacer.scaled(4.1, 0.1) == pytest.approx(0.1 * nominal / 6e-3)
