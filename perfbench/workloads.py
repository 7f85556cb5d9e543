"""The four benchmark workloads: seeded inputs, one operation, its checks.

Each workload turns ``--seed`` into a list of rounds before anything is timed.
A round holds one operation of every kind the workload mixes, in a seeded
order, so every run sees the same shares and a seed changes only the data.
A run makes at least one pass over the rounds and cycles through them when
it outlasts them; majgeom caches nothing, so a repeated input costs what a
fresh one does.  The operations of a round are the same objects on every
pass, which is how the timings tell repeats of one input apart.

Every operation is checked against the direct oracle.  A check returns a
``Verdict``: ``failed`` marks a miss of a documented tolerance (the 1e-9
geometric–direct contract, the 1e-10 angle pins), ``wrong`` marks a result
that is not merely imprecise but wrong (a gap above ``WRONG_TOL``, a broken
structural pin, a non-zero exit, output bytes that changed between repeats).
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import majgeom as mg
import majgeom.cli  # noqa: F401  (the cli workload and the tracer need the module)

GAP_TOL = 1e-9        # geometric vs direct, relative to max(1, |A|)
PIN_TOL = 1e-10       # theta_B and theta_C against their closed forms
WRONG_TOL = 1e-6      # beyond this a gap is a wrong value, not lost digits
MIN_OVERLAP = 1e-4    # the only input filter: |<f|i>| >= 1e-4
THETA_B = math.atan(2.0 * math.sqrt(6.0))
THETA_C = math.atan(math.sqrt(1.5))
SQ3 = math.sqrt(3.0)
THREE_BOX_MODULI = (1.0, 1.0, math.sqrt(2.0 + SQ3), math.sqrt(2.0 - SQ3), 1.0, 1.0)
THREE_BOX_VALUES = (1.0, -1.0, 1.0)


@dataclass
class Verdict:
    gap: float = 0.0
    failed: bool = False
    wrong: str | None = None

    def value(self, miss: float, label: str) -> None:
        """Fold in one geometric–direct gap."""
        self.gap = max(self.gap, miss)
        if miss > GAP_TOL:
            self.failed = True
        if miss > WRONG_TOL and self.wrong is None:
            self.wrong = f"{label}: gap {miss:.3e}"

    def pin(self, got, expected: float, label: str) -> None:
        if got is None:
            self.failed = True
            self.wrong = self.wrong or f"{label}: not found"
            return
        miss = abs(got - expected)
        if miss > PIN_TOL:
            self.failed = True
        if miss > WRONG_TOL and self.wrong is None:
            self.wrong = f"{label}: {got!r} misses {expected!r}"

    def require(self, condition: bool, label: str) -> None:
        if not condition:
            self.failed = True
            self.wrong = self.wrong or label


def gap(geometric: complex, direct: complex) -> float:
    """Geometric–direct gap relative to max(1, |direct|), as the CLI's
    ``mismatch`` flag measures it."""
    return abs(geometric - direct) / max(1.0, abs(direct))


def _state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _angle(rng) -> float:
    return float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))


def _overlap_ok(f: np.ndarray, i: np.ndarray) -> bool:
    return abs(complex(np.vdot(f, i))) >= MIN_OVERLAP


class Workload:
    """Subclasses set ``rounds`` and implement ``run`` and ``check``."""

    rounds: list[list[tuple]]
    in_process = False  # traced runs set it; only ``Cli`` runs differently

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Verdict:
        raise NotImplementedError

    def verdict(self, op, out) -> Verdict:
        """``check``, counting output it cannot read as a wrong result."""
        try:
            return self.check(op, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return Verdict(failed=True, wrong=f"unreadable output: {type(exc).__name__}: {exc}")

    def dimension(self, op) -> int | None:
        return None

    def bytes_out(self, op, out) -> int:
        return 0

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class OracleMix(Workload):
    """Random triples in equal shares of four kinds, each by both routes."""

    KINDS = ("qubit-weak", "qubit-modular", "qutrit-weak", "qutrit-modular")
    ROUNDS = 512

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        self.rounds = []
        for _ in range(self.ROUNDS):
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            self.rounds.append([self._draw(rng, kind) for kind in kinds])

    @staticmethod
    def _draw(rng, kind: str) -> tuple:
        while True:
            if kind == "qubit-weak":
                qi, qr, qf = _state(rng, 2), _state(rng, 2), _state(rng, 2)
                op = (kind, qi, qr, qf)
            elif kind == "qubit-modular":
                qi, qf = _state(rng, 2), _state(rng, 2)
                op = (kind, qi, qf, _bloch(rng), _angle(rng), _angle(rng))
            elif kind == "qutrit-weak":
                qi, qr, qf = _state(rng, 3), _state(rng, 3), _state(rng, 3)
                op = (kind, qi, qr, qf, np.outer(qr, qr.conj()))
            else:
                qi, qf = _state(rng, 3), _state(rng, 3)
                observable = mg.GellMannDirection.from_r8(rng.normal(size=8)).operator
                spec = mg.NLevelModularSpec(observable=observable, alpha=_angle(rng),
                                            beta=_angle(rng))
                op = (kind, qi, qf, spec)
            if _overlap_ok(qf, qi):
                return op

    def run(self, op):
        kind = op[0]
        if kind == "qubit-weak":
            _, qi, qr, qf = op
            direct = mg.projector_weak_value_direct(qi, qr, qf)
            geometric, _ = mg.projector_weak_value_geometric(
                mg.qubit_to_bloch(qi), mg.qubit_to_bloch(qr), mg.qubit_to_bloch(qf))
        elif kind == "qubit-modular":
            _, qi, qf, axis, alpha, beta = op
            spec = mg.QubitModularSpec(axis=axis, alpha=alpha, beta=beta)
            direct = mg.qubit_modular_value_direct(qi, spec, qf)
            geometric, _ = mg.qubit_modular_value_geometric(
                mg.qubit_to_bloch(qi), spec, mg.qubit_to_bloch(qf))
        elif kind == "qutrit-weak":
            _, qi, qr, qf, projector = op
            direct = mg.weak_value_direct(qi, projector, qf)
            geometric, _ = mg.qutrit_projector_weak_value_geometric(qi, qr, qf)
        else:
            _, qi, qf, spec = op
            direct = mg.modular_value_direct(qi, spec, qf)
            geometric, _ = mg.qutrit_modular_value_geometric(qi, spec, qf)
        return geometric, direct.rect

    def check(self, op, out) -> Verdict:
        geometric, direct = out
        verdict = Verdict()
        verdict.value(gap(geometric.rect, direct), op[0])
        return verdict


def spin_component(m: int, axis: np.ndarray) -> np.ndarray:
    """``axis . J`` for spin m/2 in majgeom's N-level basis, where basis state
    ``|k>`` has k of its m stellar points at the north pole."""
    k = np.arange(m + 1, dtype=float)
    raise_amp = np.sqrt((m - k[:-1]) * (k[:-1] + 1.0))
    j_plus = np.diag(raise_amp, -1).astype(complex)
    j_minus = j_plus.conj().T
    jx = 0.5 * (j_plus + j_minus)
    jy = -0.5j * (j_plus - j_minus)
    jz = np.diag(k - 0.5 * m).astype(complex)
    return axis[0] * jx + axis[1] * jy + axis[2] * jz


class StellarHighN(Workload):
    """Random N = 4..8 states through points, round trip and factored values."""

    DIMENSIONS = (4, 5, 6, 7, 8)
    ROUNDS = 48

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        self.rounds = []
        for _ in range(self.ROUNDS):
            dims = list(self.DIMENSIONS)
            rng.shuffle(dims)
            self.rounds.append([self._draw(rng, n) for n in dims])

    @staticmethod
    def _draw(rng, n: int) -> tuple:
        m = n - 1
        while True:
            psi = _state(rng, n)
            p_r, p_f, axis = _bloch(rng), _bloch(rng), _bloch(rng)
            alpha, beta = _angle(rng), _angle(rng)
            # Coherent r and f: already canonical, points known in closed form.
            psi_r, _ = mg.symmetrize(np.array([p_r] * m))
            psi_f, _ = mg.symmetrize(np.array([p_f] * m))
            if not _overlap_ok(psi_f, psi):
                continue
            # A = (2/m) axis.J has eigenvalue 1 on the coherent state at
            # ``axis``; exp(-i alpha m/2 A) rotates every point about it.
            spin = spin_component(m, axis)
            evals, evecs = np.linalg.eigh(spin)
            rotation = (evecs * np.exp(-1j * alpha * evals)) @ evecs.conj().T
            psi_s = rotation @ psi
            spec = mg.NLevelModularSpec(observable=(2.0 / m) * spin, alpha=alpha,
                                        beta=beta)
            return (n, psi, p_r, p_f, np.outer(psi_r, psi_r.conj()), psi_f, axis,
                    psi_s / np.linalg.norm(psi_s), spec)

    def run(self, op):
        n, psi, p_r, p_f, projector, psi_f, axis, psi_s, spec = op
        rep = mg.majorana_points(psi)
        back, _ = mg.symmetrize(rep.points)
        weak, _ = mg.factored_weak_value(rep.points, p_r, p_f)
        weak_direct = mg.weak_value_direct(psi, projector, psi_f)
        s_rep = mg.majorana_points(psi_s)
        modular, _ = mg.factored_modular_value(
            rep.points, s_rep.points, axis, p_f,
            alpha=spec.alpha, beta=spec.beta, eigenvalue=1.0)
        modular_direct = mg.modular_value_direct(psi, spec, psi_f)
        return back, (weak, weak_direct.rect), (modular, modular_direct.rect)

    def check(self, op, out) -> Verdict:
        n, psi = op[0], op[1]
        back, *pairs = out
        verdict = Verdict()
        verdict.value(1.0 - abs(complex(np.vdot(back, psi))) ** 2, f"N={n} round trip")
        for (geometric, direct), label in zip(pairs, ("weak", "modular")):
            verdict.value(gap(geometric.rect, direct), f"N={n} {label}")
        return verdict

    def dimension(self, op) -> int:
        return op[0]


def _scan_record_gaps(verdict: Verdict, records, label: str) -> None:
    """Compare every scan record that carries both routes."""
    for r in records:
        if r["wv_mod"] is None or r["wv_direct"] is None:
            continue
        d = r["wv_direct"]
        verdict.value(gap(cmath.rect(r["wv_mod"], r["wv_arg"]),
                          complex(d["re"], d["im"])), label)


def _omega2_single_jump(verdict: Verdict, thetas, omega2) -> None:
    steps = [(k, omega2[k + 1] - omega2[k]) for k in range(len(omega2) - 1)
             if omega2[k] is not None and omega2[k + 1] is not None]
    big = [(k, s) for k, s in steps if abs(s) > 0.1]
    verdict.require(len(big) == 1, f"omega2 has {len(big)} steps above 0.1 rad")
    if len(big) == 1:
        k, jump = big[0]
        verdict.require(abs(jump - 2.0 * math.pi) <= 0.05, f"omega2 jump {jump} is not +2pi")
        verdict.require(thetas[k] < THETA_C < thetas[k + 1], "omega2 jump not across theta_C")


class Scan(Workload):
    """Singularity scans: the paper's setting, then three random ones."""

    RANDOM_PER_ROUND = 3
    ROUNDS = 2

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        paper = ("paper", 4096, None)
        self.rounds = []
        for _ in range(self.ROUNDS):
            ops = [paper]
            for _ in range(self.RANDOM_PER_ROUND):
                setting = (float(rng.uniform(0.0, 0.5 * math.pi)),
                           float(rng.uniform(0.0, 2.0 * math.pi)),
                           float(rng.uniform(0.0, 2.0 * math.pi)))
                ops.append(("random", 1024, setting))
            self.rounds.append(ops)

    def run(self, op):
        kind, count, setting = op
        if setting is None:
            return mg.singularity_scan(count=count)
        epsilon, chi1, chi2 = setting
        return mg.singularity_scan(count=count, epsilon=epsilon, chi1=chi1, chi2=chi2)

    def check(self, op, scan) -> Verdict:
        kind, count, _ = op
        verdict = Verdict()
        verdict.require(len(scan.records) == count, f"{len(scan.records)} records != {count}")
        records = [{"wv_mod": r.wv_modulus, "wv_arg": r.wv_argument,
                    "wv_direct": None if r.wv_direct is None else
                    {"re": r.wv_direct.rect.real, "im": r.wv_direct.rect.imag}}
                   for r in scan.records]
        _scan_record_gaps(verdict, records, f"{kind} scan record")
        if kind == "paper":
            verdict.pin(scan.theta_bifurcation, THETA_B, "theta_B")
            verdict.pin(scan.theta_singular, THETA_C, "theta_C")
            _omega2_single_jump(verdict, [r.theta for r in scan.records],
                                [r.omega2 for r in scan.records])
        return verdict


def _amplitudes(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


class Cli(Workload):
    """One ``python -m majgeom`` process per operation over a command mix.

    With ``in_process`` set, ``majgeom.cli.run`` is called directly with stdout
    captured instead (the traced run does this).  Every round runs the same
    seven commands (one seeded scenario file per scenario kind) in a seeded
    order.  A process costs a few hundred milliseconds and a run fits about a
    dozen rounds, so few commands give each one a dozen repeats.
    """

    ROUNDS = 4

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.seen: dict[tuple, str] = {}
        self.peak_child_kb = 0
        rng = np.random.default_rng(seed)
        folder = root / ".perfbench_out" / "scenarios" / f"seed-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        ops = [("three-box", ("three-box", "--format", "json"), None),
               ("three-box", ("three-box", "--format", "csv"), None),
               ("scan", ("scan-singularity", "--count", "512", "--format", "json"), None),
               ("scan", ("scan-singularity", "--count", "512", "--format", "csv"), None)]
        for kind in ("qutrit-weak", "qutrit-modular", "majorana"):
            path, expected = self._scenario(rng, kind, folder / f"{kind}.json")
            ops.append((kind, (kind, "--scenario", str(path)), expected))
        self.rounds = [[ops[k] for k in rng.permutation(len(ops))]
                       for _ in range(self.ROUNDS)]

    @staticmethod
    def _scenario(rng, kind: str, path: Path):
        """Write one scenario at full precision; return its path and the
        in-process reference the output is checked against."""
        while True:
            if kind == "majorana":
                state = _state(rng, 8)
                doc, expected = {"state": _amplitudes(state)}, state
                break
            qi, qf = _state(rng, 3), _state(rng, 3)
            if not _overlap_ok(qf, qi):
                continue
            doc = {"i": _amplitudes(qi), "f": _amplitudes(qf)}
            if kind == "qutrit-weak":
                qr = _state(rng, 3)
                doc["r"] = _amplitudes(qr)
                expected = mg.weak_value_direct(qi, np.outer(qr, qr.conj()), qf).rect
            else:
                r8 = rng.normal(size=8)
                spec = {"r8": [float(x) for x in r8], "alpha": _angle(rng),
                        "beta": _angle(rng)}
                doc["spec"] = spec
                direction = mg.GellMannDirection.from_r8(r8)
                expected = mg.modular_value_direct(qi, mg.NLevelModularSpec(
                    observable=direction.operator, alpha=spec["alpha"],
                    beta=spec["beta"]), qf).rect
            break
        path.write_text(json.dumps({"version": 1, **doc}), encoding="utf-8")
        return path, expected

    def run(self, op):
        argv = list(op[1])
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = mg.cli.run(argv)
            return code, buffer.getvalue().encode("utf-8")
        child = subprocess.Popen([sys.executable, "-m", "majgeom", *argv], cwd=self.root,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with child.stdout:
            raw = child.stdout.read()
        # Reaping the child with wait4 gives its own peak RSS, which
        # RUSAGE_CHILDREN would mix with the worker's import probes.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return child.returncode, raw

    def check(self, op, out) -> Verdict:
        kind, argv, expected = op
        code, raw = out
        verdict = Verdict()
        verdict.require(code == 0, f"{' '.join(argv)} exited with {code}")
        if code != 0:
            return verdict
        digest = hashlib.sha256(raw).hexdigest()
        verdict.require(self.seen.setdefault(argv, digest) == digest,
                        f"{' '.join(argv)} output bytes changed between repeats")
        text = raw.decode("utf-8")
        if "csv" in argv:
            self._check_csv(kind, text, verdict)
            return verdict
        doc = json.loads(text)
        results = doc["results"]
        if kind == "three-box":
            moduli = [f["modulus"] for box in results["boxes"] for f in box["factors"]]
            for k, (got, want) in enumerate(zip(moduli, THREE_BOX_MODULI)):
                verdict.value(abs(got - want), f"three-box factor {k} modulus")
            for box, want in zip(results["boxes"], THREE_BOX_VALUES):
                got = complex(box["weak_value"]["re"], box["weak_value"]["im"])
                verdict.pin(abs(got - want), 0.0, f"{box['name']} weak value")
            verdict.require(all(results["symmetry_checks"].values()),
                            "three-box symmetry check false")
        elif kind == "scan":
            verdict.pin(results["theta_bifurcation"], THETA_B, "theta_B")
            verdict.pin(results["theta_singular"], THETA_C, "theta_C")
            records = results["records"]
            _scan_record_gaps(verdict, records, "cli scan record")
            _omega2_single_jump(verdict, [r["theta"] for r in records],
                                [r["omega2"] for r in records])
        elif kind == "majorana":
            points = np.array(results["points"], dtype=float)
            back, _ = mg.symmetrize(points)
            verdict.value(1.0 - abs(complex(np.vdot(back, expected))) ** 2,
                          "majorana round trip")
        else:
            verdict.require(doc["mismatch"] is False, f"{kind} reports a mismatch")
            for route in ("geometric", "direct"):
                value = results[route]
                verdict.value(gap(complex(value["re"], value["im"]), expected),
                              f"{kind} {route}")
        return verdict

    @staticmethod
    def _check_csv(kind: str, text: str, verdict: Verdict) -> None:
        lines = text.rstrip("\n").split("\n")
        if kind == "three-box":
            verdict.require(len(lines) == 10, f"three-box csv has {len(lines)} lines")
            rows = [line.split(",") for line in lines[1:]]
            for k, (row, want) in enumerate(zip(rows[:6], THREE_BOX_MODULI)):
                verdict.value(abs(float(row[2]) - want), f"three-box csv factor {k}")
            for row, want in zip(rows[6:], THREE_BOX_VALUES):
                verdict.pin(abs(complex(float(row[4]), float(row[5])) - want), 0.0,
                            "three-box csv total")
        else:
            verdict.require(len(lines) == 513, f"scan csv has {len(lines)} lines")
            thetas = [float(line.split(",")[0]) for line in lines[1:]
                      if "singular" in line.split(",")[-1].split(";")]
            verdict.require(len(thetas) == 2 and thetas[0] < THETA_C < thetas[1],
                            "scan csv singular flags do not bracket theta_C")

    def bytes_out(self, op, out) -> int:
        return len(out[1])

    def peak_rss_kb(self) -> int:
        if self.in_process:
            return super().peak_rss_kb()
        return self.peak_child_kb


WORKLOADS = {
    "oracle-mix": OracleMix,
    "stellar-highN": StellarHighN,
    "scan": Scan,
    "cli": Cli,
}
