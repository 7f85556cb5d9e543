"""Acceptance suite: every release-gating check at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failing run).
"""

import math
import time

import numpy as np

from helpers import ang_dist, random_bloch, random_hermitian, random_qubit, random_state
from majgeom.bloch import qubit_to_bloch, rodrigues_rotate, solid_angle_quadrangle, \
    solid_angle_triangle
from majgeom.experiments import singularity_scan, three_box_report
from majgeom.majorana import majorana_points, nlevel_state, symmetrize
from majgeom.nlevel_values import (
    GellMannDirection,
    NLevelModularSpec,
    abl_distribution,
    abl_probability,
    modular_value_direct,
    qutrit_modular_value_geometric,
    qutrit_projector_weak_value_geometric,
    weak_value_direct,
)
from majgeom.numerics import cayley_hamilton_exp_spin1, unitary_exp
from majgeom.qubit_values import (
    QubitModularSpec,
    modular_value_direct as qubit_modular_direct,
    modular_value_geometric as qubit_modular_geometric,
    projector_weak_value_direct,
    projector_weak_value_geometric,
)

SQ3 = math.sqrt(3.0)
THETA_B = math.atan(2.0 * math.sqrt(6.0))
THETA_C = math.atan(math.sqrt(1.5))


def report(number: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def check(failures: list, condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def test_criterion_1_three_box_table():
    start = time.perf_counter()
    rep = three_box_report()
    elapsed = time.perf_counter() - start
    failures = []
    corner = 2.0 * math.atan(math.sqrt(3.0 + 2.0 * SQ3))
    expected_moduli = [1.0, 1.0, math.sqrt(2.0 + SQ3), math.sqrt(2.0 - SQ3), 1.0, 1.0]
    expected_angles = [-corner, corner, 0.0, 2.0 * math.pi, 0.0, 0.0]
    flat = [f for box in rep.boxes for f in box.factors]
    for k, (factor, mod, ang) in enumerate(zip(flat, expected_moduli, expected_angles)):
        check(failures, abs(factor.modulus - mod) <= 1e-9,
              f"factor {k} modulus {factor.modulus} != {mod}")
        check(failures, abs(factor.solid_angle - ang) <= 1e-9,
              f"factor {k} angle {factor.solid_angle} != {ang}")
    for box, expected in zip(rep.boxes, (1.0, -1.0, 1.0)):
        check(failures, abs(box.weak_value - expected) <= 1e-10,
              f"{box.name} weak value {box.weak_value} != {expected}")
    check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    report(1, "three-box table", failures, f"runtime {elapsed * 1e3:.0f} ms")


def test_criterion_2_singularity_scan():
    start = time.perf_counter()
    scan = singularity_scan(count=512)
    elapsed = time.perf_counter() - start
    failures = []
    check(failures, scan.theta_bifurcation is not None
          and abs(scan.theta_bifurcation - THETA_B) <= 1e-10,
          f"theta_B {scan.theta_bifurcation} != {THETA_B}")
    check(failures, scan.theta_singular is not None
          and abs(scan.theta_singular - THETA_C) <= 1e-10,
          f"theta_C {scan.theta_singular} != {THETA_C}")
    check(failures, abs(scan.theta_bifurcation / math.pi - 0.436) < 5e-4,
          "theta_B not approx 0.43(6) pi")
    check(failures, abs(scan.theta_singular / math.pi - 0.282) < 5e-4,
          "theta_C not approx 0.28(2) pi")

    recs = scan.records
    check(failures, len(recs) == 512, "grid size != 512")
    omega2_steps = [(k, recs[k + 1].omega2 - recs[k].omega2)
                    for k in range(len(recs) - 1)
                    if recs[k].omega2 is not None and recs[k + 1].omega2 is not None]
    big = [(k, s) for k, s in omega2_steps if abs(s) > 0.1]
    check(failures, len(big) == 1, f"omega2 has {len(big)} steps > 0.1 rad")
    if len(big) == 1:
        k, jump = big[0]
        check(failures, jump > 0 and abs(jump - 2 * math.pi) <= 0.05,
              f"omega2 step {jump} is not +2pi")
        check(failures, recs[k].theta < THETA_C < recs[k + 1].theta,
              "omega2 step not across theta_C")
    omega1_steps = [abs(recs[k + 1].omega1 - recs[k].omega1)
                    for k in range(len(recs) - 1)
                    if recs[k].omega1 is not None and recs[k + 1].omega1 is not None]
    check(failures, max(omega1_steps) < 0.1,
          f"omega1 max step {max(omega1_steps):.3f} >= 0.1 rad")
    for r in recs:
        if r.omega1 is None or r.omega2 is None:
            continue
        target = 0.0 if r.theta < scan.theta_singular else 2.0 * math.pi
        check(failures, abs(r.omega1 + r.omega2 - target) <= 1e-8,
              f"omega sum at theta {r.theta}")
    check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    report(2, "singularity scan", failures, f"runtime {elapsed:.2f} s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2026)
    failures = []

    def agree(label, geometric, direct):
        mod_err = abs(geometric.modulus - abs(direct)) / max(1.0, abs(direct))
        check(failures, mod_err <= 1e-9, f"{label} modulus error {mod_err:.2e}")
        if abs(direct) > 1e-12:
            arg_err = ang_dist(geometric.argument, np.angle(direct))
            check(failures, arg_err <= 1e-9, f"{label} argument error {arg_err:.2e}")

    done = 0
    while done < 1000:
        qi, qr, qf = random_qubit(rng), random_qubit(rng), random_qubit(rng)
        if abs(np.vdot(qf, qi)) < 1e-4:
            continue
        direct = projector_weak_value_direct(qi, qr, qf).rect
        value, _ = projector_weak_value_geometric(
            qubit_to_bloch(qi), qubit_to_bloch(qr), qubit_to_bloch(qf))
        agree("qubit weak", value, direct)
        done += 1

    done = 0
    while done < 1000:
        qi, qf = random_qubit(rng), random_qubit(rng)
        if abs(np.vdot(qf, qi)) < 1e-4:
            continue
        spec = QubitModularSpec(axis=random_bloch(rng),
                                alpha=rng.uniform(-2 * math.pi, 2 * math.pi),
                                beta=rng.uniform(-2 * math.pi, 2 * math.pi))
        direct = qubit_modular_direct(qi, spec, qf).rect
        value, _ = qubit_modular_geometric(qubit_to_bloch(qi), spec, qubit_to_bloch(qf))
        agree("qubit modular", value, direct)
        done += 1

    done = 0
    while done < 500:
        psi_i, psi_r, psi_f = (random_state(rng, 3) for _ in range(3))
        if abs(np.vdot(psi_f, psi_i)) < 1e-4:
            continue
        projector = np.outer(psi_r, psi_r.conj())
        direct = weak_value_direct(psi_i, projector, psi_f).rect
        value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        agree("qutrit weak", value, direct)
        done += 1

    done = 0
    while done < 500:
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        if abs(np.vdot(psi_f, psi_i)) < 1e-4:
            continue
        spec = NLevelModularSpec(
            observable=GellMannDirection.from_r8(rng.normal(size=8)).operator,
            alpha=rng.uniform(-2 * math.pi, 2 * math.pi),
            beta=rng.uniform(-2 * math.pi, 2 * math.pi))
        direct = modular_value_direct(psi_i, spec, psi_f).rect
        value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        agree("qutrit modular", value, direct)
        done += 1

    report(3, "oracle equivalence", failures)


def test_criterion_4_derivative_relation():
    rng = np.random.default_rng(2027)
    failures = []
    h = 1e-5
    for dim in (2, 3):
        done = 0
        while done < 100:
            observable = random_hermitian(rng, dim)
            psi_i, psi_f = random_state(rng, dim), random_state(rng, dim)
            if abs(np.vdot(psi_f, psi_i)) < 1e-2:
                continue
            plus = modular_value_direct(
                psi_i, NLevelModularSpec(observable=observable, generic_theta=h),
                psi_f).rect
            minus = modular_value_direct(
                psi_i, NLevelModularSpec(observable=observable, generic_theta=-h),
                psi_f).rect
            derived = 1j * (plus - minus) / (2.0 * h)
            expected = weak_value_direct(psi_i, observable, psi_f).rect
            check(failures, abs(derived - expected) <= 1e-6,
                  f"dim {dim}: |derivative - weak value| = {abs(derived - expected):.2e}")
            done += 1
    report(4, "derivative relation", failures)


def test_criterion_5_majorana_round_trips():
    rng = np.random.default_rng(2028)
    failures = []

    def round_trip(state, label):
        rep = majorana_points(state)
        back, _ = symmetrize(rep.points)
        fid = abs(np.vdot(back, state))
        check(failures, fid >= 1.0 - 1e-9, f"{label} fidelity {fid}")

    for _ in range(1000):
        round_trip(nlevel_state(random_state(rng, 3)), "qutrit")
    for dim in (4, 5):
        for _ in range(100):
            round_trip(nlevel_state(random_state(rng, dim)), f"dim-{dim}")
    # engineered roots at infinity: vanishing leading coefficients
    for dim in (3, 4, 5):
        for n_zero in range(1, dim - 1):
            coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            coeffs[dim - n_zero:] = 0.0
            round_trip(nlevel_state(coeffs / np.linalg.norm(coeffs)),
                       f"dim-{dim} with {n_zero} infinite roots")
    report(5, "stellar round trips", failures)


def test_criterion_6_three_box_entropy():
    rep = three_box_report()
    expected = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
    failures = []
    by_name = {box.name: box for box in rep.boxes}
    for name in ("box1", "box3"):
        entropy = by_name[name].entropy
        check(failures, abs(entropy - expected) <= 1e-9,
              f"{name} entropy {entropy} != {expected}")
        check(failures, round(entropy, 2) == 0.81, f"{name} entropy not 0.81")
    report(6, "pointer-state entanglement entropy", failures,
           f"value {by_name['box1'].entropy:.4f}")


def test_criterion_7_abl_contextuality():
    psi_i = np.ones(3) / SQ3
    psi_f = np.array([1.0, -1.0, 1.0]) / SQ3
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    boxes = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    failures = []
    single = abl_probability(psi_i, [p1, np.eye(3) - p1], psi_f, 0)
    check(failures, abs(single - 1.0) <= 1e-12, f"single-box probability {single}")
    full = abl_distribution(psi_i, boxes, psi_f)
    check(failures, np.max(np.abs(full - 1.0 / 3.0)) <= 1e-12,
          f"three-box probabilities {full}")
    report(7, "ABL contextuality", failures)


def test_criterion_8_property_suite():
    rng = np.random.default_rng(2029)
    failures = []

    # projector-sum identity over random orthonormal qutrit bases
    done = 0
    while done < 200:
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        if abs(np.vdot(psi_f, psi_i)) < 1e-3:
            continue
        basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        total = sum(weak_value_direct(
            psi_i, np.outer(basis[:, k], basis[:, k].conj()), psi_f).rect
            for k in range(3))
        check(failures, abs(total - 1.0) <= 1e-10, f"projector sum {total}")
        done += 1

    # gauge invariance under random global phases
    done = 0
    while done < 200:
        qi, qr, qf = random_qubit(rng), random_qubit(rng), random_qubit(rng)
        if abs(np.vdot(qf, qi)) < 1e-4:
            continue
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=3))
        base = projector_weak_value_direct(qi, qr, qf).rect
        phased = projector_weak_value_direct(phases[0] * qi, phases[1] * qr,
                                             phases[2] * qf).rect
        check(failures, abs(base - phased) <= 1e-10, "gauge invariance broken")
        done += 1

    # rotation conservation laws
    for _ in range(200):
        i, r = random_bloch(rng), random_bloch(rng)
        alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
        s = rodrigues_rotate(i, r, alpha)
        check(failures, abs(np.linalg.norm(s) - 1.0) <= 1e-12, "rotation norm")
        check(failures, abs(float(r @ s) - float(r @ i)) <= 1e-12, "rotation cone angle")

    # quadrangle equals triangle sum modulo 4 pi
    for _ in range(200):
        i, r, s, f = (random_bloch(rng) for _ in range(4))
        total = solid_angle_quadrangle(i, r, s, f)
        parts = solid_angle_triangle(i, r, s) + solid_angle_triangle(i, s, f)
        check(failures, ang_dist(total, parts, period=4 * math.pi) <= 1e-9,
              "quadrangle decomposition")

    # closed-form spin-1 exponential against the eigendecomposition route
    from helpers import random_spin1_operator
    for _ in range(200):
        lam = random_spin1_operator(rng)
        alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
        gap = np.max(np.abs(cayley_hamilton_exp_spin1(lam, alpha)
                            - unitary_exp(lam, 0.0, alpha)))
        check(failures, gap <= 1e-10, f"exponential routes differ by {gap:.2e}")

    report(8, "property suite", failures)
