"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the status lines.
Criteria 4 and 5 drive the two scan protocols (symmetric length scan,
fixed-length offset scan) end to end at desk scale; the rest are property
suites.  Stated runtime budgets are printed next to each verdict rather
than asserted (they depend on the host).
"""

import time

import numpy as np
import pytest

from nesscorr.asymptotics import (
    negativity_asym_symmetric,
    q_fun,
    q_n,
    q_tilde_fun,
    q_tilde_n,
    renyi_mi_asym,
    vn_mi_asym,
)
from nesscorr.correlation import build_corr_matrix
from nesscorr.fisher_hartwig import gamma_identities, gamma_range
from nesscorr.harness import run_fh_validation
from nesscorr.measures import (
    fermionic_negativity,
    mutual_information,
    renyi_entropy,
    renyi_negativity_det,
    renyi_negativity_eig,
)
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite

BIAS = BiasConfig.from_fermi_momenta(np.pi / 2 + 0.2, np.pi / 2)


def _verdict(index, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index}: {status} [{time.time() - started:.1f}s] {detail}")
    return ok


def _measure_set(model, bias, g, cache, names):
    out = {}
    c_a = build_corr_matrix(model, bias, g, "A", cache=cache)
    if "MI" in names or "MI2" in names:
        c_l, c_r = c_a.blocks()
        if "MI" in names:
            out["MI"] = mutual_information(c_l, c_r, c_a).value
        if "MI2" in names:
            out["MI2"] = mutual_information(c_l, c_r, c_a, 2).value
    if "E" in names:
        out["E"] = fermionic_negativity(c_a, c_a.n_left).value
    if "E4" in names:
        out["E4"] = renyi_negativity_eig(c_a, c_a.n_left, 4).value
    return out


def test_criterion_1_identity_suite():
    started = time.time()
    failures = []
    for n in (2, 3, 4, 5, 6):
        for t in np.round(np.arange(0.1, 0.95, 0.1), 10):
            res = gamma_identities(float(t), n)
            checked = ["square_log", "index_log", "cross_log"]
            if n in (2, 4, 6):
                checked.append("negativity_log")
            for name in checked:
                if name not in res:
                    continue
                if res[name] > 1e-7:
                    failures.append(f"{name}(n={n},T={t})={res[name]:.2e}")
    for n in (2.0, 3.0, 4.0, 5.0):
        if abs(q_n(1.0, n)) > 1e-9:
            failures.append(f"Q_{n}(1) != 0")
        if abs(q_n(0.0, n) - (1 / n - n) / 12) > 1e-9:
            failures.append(f"Q_{n}(0) closed form")
        if abs(q_tilde_n(0.0, 1.0, n)) > 1e-8 or abs(q_tilde_n(1.0, 0.0, n)) > 1e-8:
            failures.append(f"Qt_{n} endpoints")
    if abs(q_fun(0.0, 1.0)) > 1e-9 or abs(q_fun(1.0, 0.0)) > 1e-9:
        failures.append("q endpoints")
    if abs(q_tilde_fun(0.0, 1.0)) > 1e-9 or abs(q_tilde_fun(1.0, 0.0)) > 1e-9:
        failures.append("qt endpoints")
    if not (q_fun(0.5, 0.5) < 0 < q_tilde_fun(0.5, 0.5)):
        failures.append("q/qt signs")
    for n in range(2, 9):
        if abs(np.sum(gamma_range(n) ** 2) - (n ** 3 - n) / 12) > 1e-10:
            failures.append(f"sum gamma^2 at n={n}")
    summary = "; ".join(failures) if failures else "all residuals in tolerance"
    ok = _verdict(1, not failures,
                  f"gamma-sum and special-function identities ({summary}); "
                  f"budget 1 min", started)
    assert ok


def test_criterion_2_route_equivalence():
    started = time.time()
    worst = 0.0
    for model in (ConstantS.beamsplitter(0.5), SingleSite(eps0=1.0)):
        g = Geometry(m0=0, d_l=9, ell_l=70, d_r=4, ell_r=90)  # dim 160
        c_a = build_corr_matrix(model, BIAS, g, "A")
        for n in (2, 4):
            a = renyi_negativity_eig(c_a, c_a.n_left, n).value
            b = renyi_negativity_det(c_a, c_a.n_left, n).value
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-10))
    ok = _verdict(2, worst <= 1e-8,
                  f"eig vs determinant negativity routes, worst relative "
                  f"difference {worst:.2e}; budget seconds", started)
    assert ok


def test_criterion_3_vanishing_theorems():
    started = time.time()
    worst = {"MI": 0.0, "E": 0.0, "EN": 0.0}
    cases = [
        (ConstantS.beamsplitter(0.0), BIAS),
        (ConstantS.beamsplitter(1.0), BIAS),
        (ConstantS.beamsplitter(0.4), BiasConfig.from_fermi_momenta(1.4, 1.4)),
    ]
    for model, bias in cases:
        # modest lengths keep the occupation spectrum away from the
        # square-root branch points, where double precision would
        # otherwise cap the attainable cancellation near sqrt(eps)
        g = Geometry(m0=0, d_l=5, ell_l=6, d_r=3, ell_r=7)
        c_l = build_corr_matrix(model, bias, g, "A_L")
        c_r = build_corr_matrix(model, bias, g, "A_R")
        c_a = build_corr_matrix(model, bias, g, "A")
        worst["MI"] = max(worst["MI"],
                          abs(mutual_information(c_l, c_r, c_a).value))
        worst["E"] = max(worst["E"],
                         abs(fermionic_negativity(c_a, c_a.n_left).value))
        for n in (2, 4):
            s_n = renyi_entropy(c_a, n).value
            e_n = renyi_negativity_eig(c_a, c_a.n_left, n).value
            worst["EN"] = max(worst["EN"], abs(e_n - (1 - n) * s_n))
    ok = _verdict(3, all(v <= 1e-8 for v in worst.values()),
                  f"trivial impurity / zero bias: MI {worst['MI']:.1e}, "
                  f"E {worst['E']:.1e}, |E_n-(1-n)S_A| {worst['EN']:.1e}; "
                  f"budget seconds", started)
    assert ok


# Frequency of the oscillating finite-size corrections of the symmetric
# configuration: the sum of the two Fermi momenta, fixed by the bias.
OSC_OMEGA = BIAS.kf_l + BIAS.kf_r
# Criterion 4 fits each window length ell0 from the consecutive lengths
# ell0 - OSC_HALF_BLOCK ... ell0 + OSC_HALF_BLOCK.
OSC_HALF_BLOCK = 2


def _split_oscillation(ells, values, omega):
    """Least-squares c + a cos(omega l) + b sin(omega l); return (c, |a, b|).

    ``omega`` is given, not fitted.  Lengths enter relative to their mean,
    which leaves both c and the amplitude unchanged.
    """
    x = np.asarray(ells, dtype=float)
    x = x - x.mean()
    design = np.column_stack([np.ones_like(x), np.cos(omega * x),
                              np.sin(omega * x)])
    (c, a, b), *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return float(c), float(np.hypot(a, b))


def test_criterion_4_symmetric_scaling_reproduction():
    """Symmetric-configuration scaling of MI, MI_2, E, E_4.

    Window: the dyadic lengths {128, 256, 512}, for eps0/eta in
    {0.5, 1.0, 2.0}.  The closed forms predict a volume term, a logarithm
    and an O(1) constant; they say nothing about the oscillating
    finite-size corrections, which for free-fermion Renyi quantities decay
    only as a small power of ell (Calabrese & Essler 2010: ell^(-2/n)).
    Near each window length the E_4 deviation numeric - prediction reads
    c + A cos(omega ell + phi), with omega = k_F,L + k_F,R.  Sampling
    only even ell aliases omega = pi + 0.2 to 0.2, an apparent period of
    about 31 sites, so single samples at 128, 256, 512 land on arbitrary
    phases of that oscillation.

    At each window length ell0 the deviation is evaluated at ell0 - 2 ...
    ell0 + 2 and fitted by least squares to c + a cos(omega ell) +
    b sin(omega ell), with omega from ``BIAS`` (not fitted).  Then, per
    series:

    - one fitted constant: the mean of c(ell0) over the window;
    - budget: |c(ell0) - const| <= 0.05 nats at every window length;
    - shrink: the whole discrepancy |c(ell0) - const| + sqrt(a^2 + b^2)
      is smaller at 512 than at 128, so an oscillation that does not
      decay still fails.
    """
    started = time.time()
    window = (128, 256, 512)
    rows = []
    for eps in (0.5, 1.0, 2.0):
        model = SingleSite(eps0=eps, eta=1.0)
        cache = {}
        smooth = {m: {} for m in ("MI", "MI2", "E", "E4")}
        amplitude = {m: {} for m in smooth}
        for ell0 in window:
            ells = range(ell0 - OSC_HALF_BLOCK, ell0 + OSC_HALF_BLOCK + 1)
            deviation = {m: [] for m in smooth}
            for ell in ells:
                g = Geometry(m0=0, d_l=0, ell_l=ell, d_r=0, ell_r=ell)
                numeric = _measure_set(model, BIAS, g, cache,
                                       ("MI", "MI2", "E", "E4"))
                deviation["MI"].append(numeric["MI"] - vn_mi_asym(
                    model, BIAS, g).total())
                deviation["MI2"].append(numeric["MI2"] - renyi_mi_asym(
                    model, BIAS, g, 2).total())
                deviation["E"].append(numeric["E"] - negativity_asym_symmetric(
                    model, BIAS, g).total())
                deviation["E4"].append(
                    numeric["E4"] - negativity_asym_symmetric(
                        model, BIAS, g, 4).total())
            for name, dev in deviation.items():
                smooth[name][ell0], amplitude[name][ell0] = \
                    _split_oscillation(ells, dev, OSC_OMEGA)
        for name in smooth:
            const = np.mean([smooth[name][ell] for ell in window])
            resid = {ell: abs(smooth[name][ell] - const) for ell in window}
            envelope = {ell: resid[ell] + amplitude[name][ell]
                        for ell in window}
            budget = max(resid.values())
            shrinks = envelope[512] < envelope[128]
            rows.append((eps, name, budget, envelope[128], envelope[512],
                         budget <= 0.05 and shrinks))
    ok = all(r[-1] for r in rows)
    detail = "; ".join(
        f"eps={eps} {name}: max|r|={budget:.2e} env128={e1:.2e} "
        f"env512={e5:.2e}{'' if good else ' VIOLATED'}"
        for eps, name, budget, e1, e5, good in rows)
    ok = _verdict(4, ok, f"omega={OSC_OMEGA:.4f}, block +-{OSC_HALF_BLOCK}; "
                  f"{detail}; budget 10 min", started)
    assert ok


def test_criterion_5_offset_scan_reproduction():
    started = time.time()
    model = SingleSite(eps0=1.0, eta=1.0)
    cache = {}
    base_d = 400
    wins = {"MI": 0, "MI2": 0}
    total = 0
    numeric_mi = {}
    for offset in range(-350, 151, 10):
        g = Geometry(m0=0, d_l=base_d + offset, ell_l=100, d_r=base_d,
                     ell_r=200)
        c_a = build_corr_matrix(model, BIAS, g, "A", cache=cache)
        c_l, c_r = c_a.blocks()
        mi = mutual_information(c_l, c_r, c_a).value
        mi2 = mutual_information(c_l, c_r, c_a, 2).value
        numeric_mi[offset] = mi
        degeneracy = min(abs(g.ell_l + g.d_l - g.ell_r - g.d_r),
                         abs(g.d_l - g.d_r), abs(g.ell_r + g.d_r - g.d_l),
                         abs(g.ell_l + g.d_l - g.d_r))
        if degeneracy <= 5:
            continue
        total += 1
        p1 = vn_mi_asym(model, BIAS, g)
        p2 = renyi_mi_asym(model, BIAS, g, 2)
        if abs(mi - p1.total()) < abs(mi - p1.linear_part):
            wins["MI"] += 1
        if abs(mi2 - p2.total()) < abs(mi2 - p2.linear_part):
            wins["MI2"] += 1
    peak = max(numeric_mi, key=numeric_mi.get)
    # full containment of the mirrored left interval: 0 <= d_l - d_r <= 100
    ok = (wins["MI"] >= 0.9 * total and wins["MI2"] >= 0.9 * total
          and 0 <= peak <= 100)
    ok = _verdict(
        5, ok,
        f"with-log closer at MI {wins['MI']}/{total}, MI2 {wins['MI2']}/"
        f"{total}; numeric peak at offset {peak} (plateau [0, 100]); "
        f"budget 15 min", started)
    assert ok


def test_criterion_6_equal_length_entropy_flatness():
    started = time.time()
    worst = 0.0
    details = []
    for eps in (0.0, 1.0, 2.0):
        model = SingleSite(eps0=eps, eta=1.0)
        cache = {}
        spectra = {}
        for ell in (64, 128, 256, 512):
            g = Geometry(m0=0, d_l=0, ell_l=ell, d_r=0, ell_r=ell)
            spectra[ell] = build_corr_matrix(model, BIAS, g, "A", cache=cache)
        for n in (2, 3):
            xs = [np.log(ell) for ell in spectra]
            ys = [renyi_entropy(c, n).value - (1 + n) / (3 * n) * np.log(ell)
                  for ell, c in spectra.items()]
            slope = float(np.polyfit(xs, ys, 1)[0])
            worst = max(worst, abs(slope))
            details.append(f"eps={eps},n={n}:{slope:+.4f}")
    ok = _verdict(6, worst <= 0.02,
                  f"S_A - (1+n)/(3n) ln(ell) residual slopes "
                  f"[{', '.join(details)}]; budget 5 min", started)
    assert ok


def test_criterion_7_fisher_hartwig_engine():
    started = time.time()
    report = run_fh_validation()
    failures = []
    for entry in report:
        d = entry["diff_re"]
        d1, d2 = abs(d[1] - d[0]), abs(d[2] - d[1])
        if d2 > d1 / 2:
            failures.append(
                f"{entry['case']}/{entry['family']}: dd {d1:.1e}->{d2:.1e}")
        fit, want = entry["lnm_coeff_fit"], entry["lnm_coeff_expected"]
        if abs(fit - want) > 0.02 * abs(want):
            failures.append(
                f"{entry['case']}/{entry['family']}: lnM {fit:.4f} vs {want:.4f}")
    summary = "; ".join(failures) if failures else "all within tolerance"
    ok = _verdict(7, not failures,
                  f"exact-vs-asymptotic convergence and ln M coefficients "
                  f"({summary}); budget 2 min", started)
    assert ok


def test_criterion_8_deviation_envelope_decay():
    started = time.time()
    model = SingleSite(eps0=1.0, eta=1.0)
    cache = {}
    base_d = 400
    deviations = {}
    for ell in (32, 48, 64, 96, 128, 192, 256):
        g = Geometry(m0=0, d_l=base_d + ell // 2, ell_l=ell, d_r=base_d,
                     ell_r=2 * ell)
        c_a = build_corr_matrix(model, BIAS, g, "A", cache=cache)
        c_l, c_r = c_a.blocks()
        mi = mutual_information(c_l, c_r, c_a).value
        deviations[ell] = mi - vn_mi_asym(model, BIAS, g).total()
    blocks = [(32, 64), (64, 128), (128, 257)]
    envelope = [max(abs(v) for ell, v in deviations.items() if lo <= ell < hi)
                for lo, hi in blocks]
    decreasing = all(a > b for a, b in zip(envelope, envelope[1:]))
    ok = _verdict(8, decreasing,
                  f"dyadic-block deviation envelope "
                  f"{[f'{e:.5f}' for e in envelope]}; budget 5 min", started)
    assert ok
