"""Output checks.  Each check is one operation that passes or fails.

A failed check counts toward the benchmark's ``failed``; it never aborts a
run.  Tolerances come from the package's own gates:

- seed 0: scan CSVs agree with the committed reference to REL_TOL,
  relative to the largest field of the row (the residual column is a
  difference of the others, so its rounding follows their scale);
- acceptance criterion 1: identity residuals (IDENTITY_TOL);
- acceptance criterion 2: eig and det routes of E_n agree to ROUTE_REL_TOL;
- acceptance criterion 7: fitted ln M coefficients within FH_LNM_REL of
  -sum beta^2, and the exact-minus-asymptotic gap at least halving;
- beamsplitter T in {0, 1}: E is exactly 0, so |E| <= ZERO_NEG_MAX.  The
  current C_Xi route leaves 5.8e-6 to 9.2e-6 at ell = 512 over seeds
  0-24 (6.4e-6 at seed 0); the ceiling is about twice the largest.  Those
  rows are checked against it, not against the reference, whose digits
  there are rounding noise.
"""

from __future__ import annotations

import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-10
ROUTE_REL_TOL = 1e-8
ZERO_NEG_MAX = 2e-5
MI_FLOOR = -1e-10          # von Neumann mutual information is >= 0
FH_LNM_REL = 0.02
IDENTITY_TOL = {
    "square_log": 1e-7, "index_log": 1e-7, "cross_log": 1e-7,
    "negativity_log": 1e-7,
    "Q_n(1)=0": 1e-9, "Q_n(0)": 1e-9, "Qt_n(0)=0": 1e-8, "Qt_n(1)=0": 1e-8,
    "sum_gamma^2": 1e-10,
    "q(0)=0": 1e-9, "q(1)=0": 1e-9, "qt(0)=0": 1e-9, "qt(1)=0": 1e-9,
    "q(1/2)<0": 0.5, "qt(1/2)>0": 0.5,   # residual is 0 (holds) or 1
}
EXACT_ZERO_SCANS = ("exact_T0", "exact_T1")

# which traced calls each workload exists to exercise (a prefix matches a
# whole layer); the timed stage, and the route-gap check stage
EXPECTED_CALLS = {
    "length_scan": ("quadrature.adaptive_gauss_legendre", "correlation.build_corr_matrix",
                    "densela.herm_eigvals", "densela.gen_eigvals",
                    "measures.build_c_xi", "asymptotics", "harness.run_scan"),
    "offset_scan": ("quadrature.adaptive_gauss_legendre", "correlation.build_corr_matrix",
                    "densela.herm_eigvals", "measures", "asymptotics",
                    "harness.run_scan"),
    "full_mode": ("quadrature.adaptive_gauss_legendre", "correlation.build_corr_matrix",
                  "correlation.corr_entry_full", "densela.herm_eigvals",
                  "densela.gen_eigvals", "harness.run_scan"),
    "exact_cases": ("quadrature.adaptive_gauss_legendre", "correlation.build_corr_matrix",
                    "densela.gen_eigvals", "densela.lu_logdet", "measures.build_c_xi",
                    "asymptotics.q_n", "asymptotics.q_tilde_n", "asymptotics.q_fun",
                    "asymptotics.q_tilde_fun", "fisher_hartwig.toeplitz_from_symbol",
                    "harness.run_scan", "harness.run_identities",
                    "harness.run_fh_validation"),
}
EXPECTED_CHECK_CALLS = ("correlation.build_corr_matrix", "measures.renyi_negativity_det",
                        "densela.lu_logdet")
FORBIDDEN_CALLS = {"offset_scan": ("densela.gen_eigvals", "measures.build_c_xi")}


def _op(name: str, ok: bool, detail: str = "") -> dict:
    return {"check": name, "ok": bool(ok), "detail": detail}


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_reference(scan: str, text: str) -> list[dict]:
    """One check per reference row: same key, fields within REL_TOL."""
    header, rows = _parse_csv(text)
    ref_header, ref_rows = _parse_csv((REFERENCE / f"{scan}.csv").read_text())
    if header != ref_header:
        return [_op(f"{scan}:header", False, f"{header} != {ref_header}")]
    got = {tuple(r[:3]): r[3:] for r in rows}
    ops = []
    for ref in ref_rows:
        key, want = tuple(ref[:3]), [float(x) for x in ref[3:]]
        name = f"{scan}:reference:{'/'.join(key)}"
        if key[1] == "E" and scan in EXACT_ZERO_SCANS:
            continue   # exact zero: checked by zero_negativity
        if key not in got:
            ops.append(_op(name, False, "row missing"))
            continue
        have = [float(x) for x in got[key]]
        scale = max(abs(x) for x in want)
        worst = max(abs(a - b) for a, b in zip(have, want))
        ops.append(_op(name, worst <= REL_TOL * scale,
                       f"max abs diff {worst:.3e}, row scale {scale:.3e}"))
    extra = set(got) - {tuple(r[:3]) for r in ref_rows}
    if extra:
        ops.append(_op(f"{scan}:reference:extra", False, f"unexpected rows {sorted(extra)}"))
    return ops


def row_checks(scan: str, rows) -> list[dict]:
    """One check per scan row: no error, finite, nonnegative where a theorem says so."""
    ops = []
    for scan_value, measure, n, numeric, error in rows:
        name = f"{scan}:row:{scan_value}/{measure}/{n:g}"
        if error is not None:
            ops.append(_op(name, False, error))
        elif not math.isfinite(numeric):
            ops.append(_op(name, False, f"value {numeric}"))
        elif measure == "MI" and numeric < MI_FLOOR:
            ops.append(_op(name, False, f"negative mutual information {numeric:.3e}"))
        elif measure == "E" and numeric < -ZERO_NEG_MAX:
            ops.append(_op(name, False, f"negative negativity {numeric:.3e}"))
        else:
            ops.append(_op(name, True))
    return ops


def zero_negativity(scans) -> float:
    """max |E| over the exact-zero beamsplitter scans."""
    return max(abs(numeric) for scan in EXACT_ZERO_SCANS
               for _, measure, _, numeric, _ in scans[scan]["rows"] if measure == "E")


def zero_negativity_check(value: float) -> dict:
    return _op("exact_cases:zero_negativity", value <= ZERO_NEG_MAX,
               f"max |E| = {value:.3e} (ceiling {ZERO_NEG_MAX:g})")


def route_gap_checks(points) -> list[dict]:
    return [_op(f"length_scan:route_gap:{p['ell']}/E_{p['n']}",
                p["abs_diff"] <= ROUTE_REL_TOL * max(abs(p["eig"]), abs(p["det"])),
                f"|eig - det| = {p['abs_diff']:.3e}") for p in points]


def identity_checks(report) -> list[dict]:
    return [_op(f"identities:{e['identity']}:n={e['n']}:T={e['T']}",
                e["residual"] <= IDENTITY_TOL[e["identity"]],
                f"residual {e['residual']:.3e}") for e in report]


def fh_checks(report) -> list[dict]:
    ops = []
    for e in report:
        d = e["diff_re"]
        fit, want = e["lnm_coeff_fit"], e["lnm_coeff_expected"]
        converging = abs(d[2] - d[1]) <= abs(d[1] - d[0]) / 2
        ops.append(_op(f"fh:{e['case']}/{e['family']}",
                       converging and abs(fit - want) <= FH_LNM_REL * abs(want),
                       f"lnM {fit:.4f} vs {want:.4f}"))
    return ops


def cold_start_check(sample) -> dict:
    cold = sample["cold_start"]
    hits = sum(h for h, _ in cold["q_cache"].values())
    misses = sum(m for _, m in cold["q_cache"].values())
    return _op("cold_start", hits == 0 and misses == 0 and cold["gl_rules"] == 0,
               f"Q-cache hits {hits}, misses {misses}, GL rules {cold['gl_rules']}")


def _called(calls: dict, prefix: str) -> int:
    return sum(n for name, n in calls.items()
               if name == prefix or name.startswith(prefix + "."))


def coverage_checks(workload: str, calls: dict, check_calls: dict | None) -> list[dict]:
    """Every wrapped layer the workload exists to exercise records a call."""
    ops = [_op(f"coverage:{p}", _called(calls, p) > 0, f"{_called(calls, p)} calls")
           for p in EXPECTED_CALLS[workload]]
    ops += [_op(f"coverage:no {p}", _called(calls, p) == 0, f"{_called(calls, p)} calls")
            for p in FORBIDDEN_CALLS.get(workload, ())]
    if check_calls is not None:
        ops += [_op(f"coverage:check {p}", _called(check_calls, p) > 0,
                    f"{_called(check_calls, p)} calls") for p in EXPECTED_CHECK_CALLS]
    return ops
