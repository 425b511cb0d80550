"""The four workloads: the operations of one round, and the checks on them.

A round is a list of (label, call) pairs run one at a time in order.  Each
call is one operation: it builds the arithdyn objects it needs and calls one
public function.  Results are kept by label; `check` compares them with
bench_checks, outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import bench_checks as bc
import bench_inputs as bi


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        raise NotImplementedError

    def warmup_inputs(self):
        raise NotImplementedError

    def ops(self, inp):
        raise NotImplementedError

    def ordered(self, ops):
        """Builds first, then the rest in an order fixed by the seed.

        Mixing the kinds of operation spreads each kind over the round, so
        that changes in machine speed during a run reach every kind alike.
        """
        builds = [op for op in ops if op[0].endswith(":build")]
        rest = [op for op in ops if not op[0].endswith(":build")]
        random.Random(f"order:{self.name}:{self.seed}").shuffle(rest)
        return builds + rest

    def check(self, inp, results):
        """(failure messages, number of failed operations)."""
        raise NotImplementedError

    def quality(self, inp, results):
        """Extra per-layer values read off the results of a traced round."""
        return {}


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

class Heights(Workload):
    name = "heights"

    def inputs(self):
        return bi.heights_inputs(self.seed)

    def warmup_inputs(self):
        return bi.heights_warmup_inputs()

    def ops(self, inp):
        # functions are looked up on their modules when called, so that the
        # traced run's wrappers apply
        import arithdyn.dynamics as dyn
        import arithdyn.polyforms as pf
        import arithdyn.projective as proj
        objs = {}
        out = []

        def build(key, U, V):
            def call():
                d = len(U) - 1
                objs[key] = dyn.RationalMap(pf.BinaryForm(d, U), pf.BinaryForm(d, V))
                return objs[key]
            out.append((f"{key}:build", call))

        def height(key, route, pt, tol):
            out.append((f"{key}:{pt}:{tol}:{route}", lambda: getattr(
                dyn, f"canonical_height_{route}")(objs[key], proj.ProjPointQ(pt), tol)))

        for j, entry in enumerate(inp["sweeps"] + inp["singles"]):
            key = f"map{j}"
            build(key, *entry["map"])
            for pt in entry["points"]:
                fx = bi.map_image(*entry["map"], pt)
                for tol in entry["tols"]:
                    height(key, "global", pt, tol)
                    height(key, "local", pt, tol)
                    height(key, "local", fx, tol)
        for entry in inp["power"]:
            key = entry["name"]
            build(key, *entry["map"])
            for pt in entry["points"]:
                height(key, "global", pt, 1e-12)
                height(key, "local", pt, 1e-12)
        for key, (U, V) in inp["preperiodic"].items():
            build(key, U, V)
            out.append((f"{key}:preperiodic",
                        lambda key=key: dyn.preperiodic_points_rational(objs[key])))
        for key, (U, V) in inp["chebyshev"].items():
            build(key, U, V)
        out.append(("T2,T3:commuting", lambda: dyn.commuting_height_agreement(
            objs["T2"], objs["T3"],
            [proj.ProjPointQ(p) for p in inp["commuting_samples"]],
            bi.COMMUTING_TOL)))
        return out

    def check(self, inp, results):
        msgs = []
        for j, entry in enumerate(inp["sweeps"] + inp["singles"]):
            key = f"map{j}"
            U, V = entry["map"]
            d = len(U) - 1
            for pt in entry["points"]:
                fx = bi.map_image(U, V, pt)
                for tol in entry["tols"]:
                    g = results[f"{key}:{pt}:{tol}:global"]
                    loc = results[f"{key}:{pt}:{tol}:local"]
                    lfx = results[f"{key}:{fx}:{tol}:local"]
                    label = f"{key} {U},{V} at {pt}, tol {tol}"
                    msgs += bc.check_height_routes(label, tol, g.value, g.error,
                                                   loc.total, loc.total_error)
                    msgs += bc.check_functoriality(label, d, lfx.total,
                                                   lfx.total_error, loc.total,
                                                   loc.total_error)
        for entry in inp["power"]:
            key = entry["name"]
            for pt in entry["points"]:
                g = results[f"{key}:{pt}:1e-12:global"]
                loc = results[f"{key}:{pt}:1e-12:local"]
                msgs += bc.check_power_exact(f"{key} global at {pt}", pt,
                                             g.value, g.error)
                msgs += bc.check_power_exact(f"{key} local at {pt}", pt,
                                             loc.total, loc.total_error)
        for key, (U, V) in inp["preperiodic"].items():
            pts = results[f"{key}:preperiodic"]
            msgs += bc.check_preperiodic(key, U, V, [p.coords for p in pts])
        rep = results["T2,T3:commuting"]
        msgs += bc.check_commuting("T2,T3", rep.max_gap, bi.COMMUTING_TOL,
                                   len(rep.per_point), len(inp["commuting_samples"]))
        return msgs, 0


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

class Conjugates(Workload):
    name = "conjugates"

    def inputs(self):
        return bi.conjugates_inputs(self.seed)

    def warmup_inputs(self):
        return bi.conjugates_warmup_inputs()

    def ops(self, inp):
        import arithdyn.algebraic as algebraic
        import arithdyn.green as green
        import arithdyn.polyforms as pf
        import arithdyn.torus as torus
        objs = {}
        out = []

        def number(key, coeffs):
            """The AlgebraicNumber, built by the first operation that needs it."""
            if key not in objs:
                objs[key] = algebraic.AlgebraicNumber(pf.IntPoly(coeffs))
            return objs[key]

        for i, (kind, param, cs) in enumerate(inp["corpus"]):
            key = f"{kind}{param}#{i}"
            out.append((f"{key}:mahler",
                        lambda cs=cs: algebraic.mahler_measure(pf.IntPoly(cs))))
            out.append((f"{key}:places", lambda key=key, cs=cs:
                        algebraic.local_height_breakdown(number(key, cs))))
            out.append((f"{key}:rou", lambda key=key, cs=cs:
                        algebraic.is_root_of_unity(number(key, cs))))
            r = bi.annulus_radius(i)
            out.append((f"{key}:annulus{r}", lambda key=key, cs=cs, r=r:
                        green.annulus_mass_bound(number(key, cs), r)))
        for i, (ca, cb, exps) in enumerate(inp["pairs"]):
            ka, kb = f"pair{i}a", f"pair{i}b"
            out.append((f"pair{i}:push", lambda ka=ka, kb=kb, ca=ca, cb=cb, e=exps:
                        torus.monomial_pushforward(torus.TorusPoint(
                            (number(ka, ca), number(kb, cb))), e)))
            out.append((f"pair{i}:subadd", lambda ka=ka, kb=kb, ca=ca, cb=cb:
                        torus.subadditivity_check(number(ka, ca), number(kb, cb))))
        return out

    def oracle(self, inp):
        """mpmath roots of every polynomial without closed-form moduli."""
        if getattr(self, "_oracle_for", None) is not inp:
            polys = {cs for kind, _, cs in inp["corpus"]
                     if kind not in bc.CLOSED_FORM_KINDS}
            polys |= {c for ca, cb, _ in inp["pairs"] for c in (ca, cb)}
            self._roots = {cs: bc.oracle_roots(cs) for cs in polys}
            self._oracle_for = inp
        return self._roots

    def check(self, inp, results):
        roots = self.oracle(inp)
        msgs = []
        for i, (kind, param, cs) in enumerate(inp["corpus"]):
            key = f"{kind}{param}#{i}"
            label = f"{kind} {param} {cs}"
            d = len(cs) - 1
            want = bc.expected_log_mahler(kind, cs, roots.get(cs))
            m = results[f"{key}:mahler"]
            msgs += bc.check_mahler(label, want, m.log_measure, m.error_bound)
            places = results[f"{key}:places"]
            msgs += bc.check_places(label, sum(places.values()), want / d,
                                    m.error_bound / d)
            v = results[f"{key}:rou"]
            msgs += bc.check_root_of_unity(label, kind, param, v.is_root_of_unity,
                                           v.order)
            r = bi.annulus_radius(i)
            obs, bound = results[f"{key}:annulus{r}"]
            msgs += bc.check_annulus(f"{label} r={r}", obs, bound, bc.outside_fraction(
                bc.root_moduli(kind, cs, roots.get(cs)), r))
        for i, (ca, cb, exps) in enumerate(inp["pairs"]):
            label = f"pair {ca} {cb} {exps}"
            push = results[f"pair{i}:push"]
            msgs += bc.check_vanishes(label, push.minpoly.coeffs, roots[ca],
                                      roots[cb], exps)
            rep = results[f"pair{i}:subadd"]
            want_a = bc.oracle_log_mahler(ca, roots[ca]) / (len(ca) - 1)
            want_b = bc.oracle_log_mahler(cb, roots[cb]) / (len(cb) - 1)
            msgs += bc.check_subadditivity(label, rep.holds, rep.h_alpha,
                                           rep.h_beta, rep.h_product,
                                           want_a, want_b)
        return msgs, 0


# ---------------------------------------------------------------------------
# fekete
# ---------------------------------------------------------------------------

class Fekete(Workload):
    name = "fekete"

    def inputs(self):
        return bi.fekete_inputs(self.seed)

    def warmup_inputs(self):
        return bi.fekete_warmup_inputs()

    def ops(self, inp):
        import arithdyn.algebraic as algebraic
        import arithdyn.dynamics as dyn
        import arithdyn.green as green
        import arithdyn.polyforms as pf
        fields = self.fields = {}
        out = []

        def field(name, tol):
            if name not in fields:
                U, V = bi.FEKETE_MAPS[name]
                d = len(U) - 1
                f = dyn.RationalMap(pf.BinaryForm(d, U), pf.BinaryForm(d, V))
                fields[name] = green.EscapeRateField(f, tol)
            return fields[name]

        for name, n, restarts in inp["problems"]:
            if isinstance(n, tuple):
                out.append((f"{name}:sweep{n}", lambda name=name, n=n, r=restarts:
                            green.transfinite_diameter_sweep(
                                field(name, bi.FIELD_TOL), n, restarts=r)))
            else:
                out.append((f"{name}:delta{n}", lambda name=name, n=n, r=restarts:
                            green.transfinite_diameter(
                                field(name, bi.FIELD_TOL), n, restarts=r)))
        if "fault" in inp:
            name, n, restarts, seed = inp["fault"]
            out.append((f"{name}:delta{n}:fault", lambda name=name, n=n, r=restarts,
                        s=seed: green.transfinite_diameter(
                            field(name, bi.FIELD_TOL), n, restarts=r, seed=s)))
        # each grid point is asked several times per round; its passes are
        # one operation, timed by the median of its calls (see op_key in
        # run.py)
        for p in range(inp.get("passes", 1)):
            for k, z in enumerate(inp["grid"]):
                out.append((f"z^2-1:member{k}@{p}", lambda z=z:
                            green.filled_julia_membership(
                                field("z^2-1", bi.MEMBERSHIP_TOL), z, 1.0)))
        for pts in inp["unity"]:
            n = len(pts)
            out.append((f"baker{n}", lambda pts=pts: green.baker_mean_pairing(
                field("z^2", bi.FIELD_TOL), pts)))
            out.append((f"energy{n}", lambda pts=pts: green.discrete_energy(
                field("z^2", bi.FIELD_TOL), green.EmpiricalMeasure(pts))))
        for cs in inp["numbers"]:
            out.append((f"discrepancy{cs}", lambda cs=cs: green.height_discrepancy_check(
                algebraic.AlgebraicNumber(pf.IntPoly(cs)))))
        return out

    def problems(self, inp, results):
        """(label, map, n, result) of every Fekete problem of a round."""
        out = []
        for name, n, _ in inp["problems"]:
            if isinstance(n, tuple):
                sweep = results[f"{name}:sweep{n}"]
                out += [(f"{name} n={m}", name, m, sweep[m]) for m in n]
            else:
                out.append((f"{name} n={n}", name, n, results[f"{name}:delta{n}"]))
        return out

    def reference(self, name, n):
        """Leja reference delta_n, for the maps that have one (z^2 has a
        closed form instead)."""
        if not hasattr(self, "_references"):
            self._references = {}
        key = bi.FEKETE_MAPS[name]
        if key not in bc.JULIA_ROOTS:
            return None
        if (name, n) not in self._references:
            self._references[name, n] = bc.leja_reference(*key, n)
        return self._references[name, n]

    def check(self, inp, results):
        msgs = []
        for label, name, n, res in self.problems(inp, results):
            msgs += bc.check_fekete_config(label, *bi.FEKETE_MAPS[name],
                                           res.delta_n, res.config)
            if name == "z^2":
                msgs += bc.check_power_delta(label, n, res.delta_n)
            ref = self.reference(name, n)
            if ref is not None:
                msgs += bc.check_reaches_reference(label, res.delta_n, ref)
        for name, n, _ in inp["problems"]:
            if isinstance(n, tuple):
                sweep = results[f"{name}:sweep{n}"]
                msgs += bc.check_nonincreasing(
                    f"{name} sweep", {m: r.delta_n for m, r in sweep.items()})
        failed = 0
        if "fault" in inp:
            name, n, _, seed = inp["fault"]
            res = results[f"{name}:delta{n}:fault"]
            wrong = bc.check_fekete_config(f"{name} n={n} seed {seed}",
                                           *bi.FEKETE_MAPS[name], res.delta_n,
                                           res.config)
            failed += bool(wrong)
            how = "; ".join(wrong) or "reported delta_n matches its configuration"
            self.modes = {f"{name}:delta{n}:fault": how}
        grid = inp["grid"]
        verdicts = [results[f"z^2-1:member{k}@0"] for k in range(len(grid))]
        msgs += bc.check_membership("z^2-1", *bi.FEKETE_MAPS["z^2-1"], grid,
                                    verdicts, self.fields["z^2-1"].certified_error())
        for p in range(1, inp.get("passes", 1)):
            again = [results[f"z^2-1:member{k}@{p}"] for k in range(len(grid))]
            msgs += [f"z^2-1: {z} is {b!r} in pass {p}, {a!r} in pass 0"
                     for z, a, b in zip(grid, verdicts, again) if a != b]
        for pts in inp["unity"]:
            n = len(pts)
            msgs += bc.check_unity_pairing(f"baker n={n}", n, results[f"baker{n}"])
            msgs += bc.check_unity_pairing(f"energy n={n}", n, results[f"energy{n}"])
        for cs in inp["numbers"]:
            lhs, rhs, gap = results[f"discrepancy{cs}"]
            height = bc.oracle_log_mahler(cs, bc.oracle_roots(cs)) / (len(cs) - 1)
            msgs += bc.check_discrepancy(f"discrepancy {cs}", lhs, rhs, gap, height)
        return msgs, failed

    def quality(self, inp, results):
        return {"green.fekete_log_delta_sum": sum(
            math.log(res.delta_n / res.formula_value)
            for _, _, _, res in self.problems(inp, results))}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_commands(workdir):
    """README's CLI examples: (label, argv, schema name)."""
    w = Path(workdir)
    z2p1 = '{"d":2,"U":[1,0,1],"V":[0,0,1]}'
    power2 = '{"d":2,"U":[1,0,0],"V":[0,0,1]}'
    return [
        ("canheight", ["canheight", "--map", z2p1, "--point", "0/1",
                       "--tol", "1e-8", "--method", "both"], "canheight"),
        ("preperiodic", ["preperiodic", "--map", power2], "preperiodic"),
        ("mahler", ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], "mahler"),
        ("height", ["height", "--point", "3:5:-7"], "height"),
        ("enumerate", ["enumerate", "--k", "1", "--B", "2.3",
                       "--out", str(w / "points.csv")], "enumerate"),
        ("schanuel", ["schanuel", "--k", "1", "--B", "1000"], "schanuel"),
        ("algheight", ["algheight", "--poly=-2,0,0,1"], "algheight"),
        ("rou", ["rou", "--poly", "1,0,-1,0,1"], "rou"),
        ("goodred", ["goodred", "--map", '{"d":2,"U":[1,0,0],"V":[0,0,2]}'],
         "goodred"),
        ("julia-sample", ["julia-sample", "--map", z2p1,
                          "--out", str(w / "grid.csv")], "julia-sample"),
        ("tdiam", ["tdiam", "--map", power2, "--n", "10"], "tdiam"),
        ("discrepancy", ["discrepancy", "--poly=-2,0,1", "--power-d", "2"],
         "discrepancy"),
        ("baker", ["baker", "--map", power2, "--roots-of-unity", "64"], "baker"),
        ("bilu", ["bilu", "--family", "primitive:101", "--exponents", "1,2,3,4,5",
                  "--out", str(w / "moments.csv")], "bilu"),
        ("energy", ["energy", "--map", power2, "--cloud", str(w / "cloud.csv")],
         "energy"),
        ("annulus", ["annulus", "--poly=-2,0,0,1", "--r", "1.5"], "annulus"),
        ("torus-height", ["torus", "height", "--coords",
                          '[{"rational":"2"},{"rational":"1/2"}]'], None),
        ("torus-push", ["torus", "push", "--coords",
                        '[{"rational":"2"},{"rational":"3"}]', "--exp", "1,-1"], None),
        ("torus-subadd", ["torus", "subadd", "--alpha", "2", "--beta", "3"], None),
    ]


# Malformed inputs that must end in exit 1/2 with the JSON error object.
REJECTIONS = [
    ("reject-enumerate-B1000", ["enumerate", "--k", "1", "--B", "1000"]),
    ("reject-canheight-tol0", ["canheight", "--map", '{"d":2,"U":[1,0,1],"V":[0,0,1]}',
                               "--point", "0/1", "--tol", "0"]),
    ("reject-canheight-noV", ["canheight", "--map", '{"d":2,"U":[1,0,1]}',
                              "--point", "0/1"]),
    ("reject-annulus-nan", ["annulus", "--poly=-2,0,0,1", "--r", "nan"]),
    ("reject-julia-nx-5", ["julia-sample", "--map", '{"d":2,"U":[1,0,1],"V":[0,0,1]}',
                           "--nx", "-5"]),
]

CLI_TIMEOUT = 60


def child_env():
    """Environment of a child interpreter that imports arithdyn from ./src."""
    paths = [str(Path.cwd() / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class Cli(Workload):
    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.src = Path.cwd() / "src"
        self.env = child_env()
        self.commands = cli_commands(workdir)
        self.modes = {}

    def schema(self, name):
        return json.loads((self.src / "arithdyn" / "schemas" / f"{name}.json")
                          .read_text(encoding="utf-8"))

    def inputs(self):
        cloud = bi.cli_cloud(self.seed)
        with open(Path(self.workdir) / "cloud.csv", "w", encoding="utf-8") as fh:
            fh.write("re,im\n")
            fh.writelines(f"{z.real!r},{z.imag!r}\n" for z in cloud)
        return {"cloud": cloud}

    def warmup_inputs(self):
        return None

    def process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "arithdyn.cli", *argv],
                              capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=CLI_TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self, inp):
        if inp is None:    # warm-up: one process, not timed
            return [("warmup", lambda: self.process(["height", "--point", "1/2"]))]
        cmds = [(label, argv) for label, argv, _ in self.commands] + REJECTIONS
        return [(label, lambda argv=argv: self.process(argv)) for label, argv in cmds]

    def in_process(self, rec, traced):
        """The README commands through arithdyn.cli.main in this process;
        returns (seconds by label, outputs by label)."""
        import arithdyn.cli
        times, outputs = {}, {}
        rec.on = traced
        try:
            for label, argv, _ in self.commands:
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = arithdyn.cli.main(argv)
                times[label] = time.perf_counter() - t0
                outputs[label] = (code, buf.getvalue(), "")
        finally:
            rec.on = False
        return times, outputs

    def check_in_process(self, inp, outputs):
        return self._check_commands(inp, outputs, "in-process ")

    def _check_commands(self, inp, results, prefix=""):
        if getattr(self, "_expect", None) is None:
            self._expect = bc.cli_expectations(inp["cloud"])
        msgs = []
        for label, _, schema in self.commands:
            code, out, _ = results[label]
            schema = self.schema(schema) if schema else {"type": "object"}
            msgs += bc.check_cli_success(prefix + label, code, out, schema,
                                         self._expect[label])
        return msgs

    def check(self, inp, results):
        msgs = self._check_commands(inp, results)
        failed = 0
        for label, _ in REJECTIONS:
            ok, how = bc.rejection_outcome(*results[label], self.schema("error"))
            failed += not ok
            self.modes[label] = how
        return msgs, failed
