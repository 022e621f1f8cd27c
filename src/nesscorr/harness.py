"""Experiment orchestration: scans, constant fitting, identity suites.

A scan walks a grid of one geometry variable (subsystem length or the
offset d_l - d_r) once.  At each point it evaluates every requested
measure by the two routes that ``MEASURES`` pairs for it: exact
correlation-matrix spectra and the closed-form asymptotics.  Each series
then fits its one free additive constant by least squares over a tail
window (the upper half of the grid), and the rows are plot-ready.
``measure_point`` evaluates its one point with the same function as a
scan's grid point: a route that raises costs only its own measure, and a
scan row reports the numeric route's error before the closed form's.

Each grid point builds C_A once; C_L and C_R are its diagonal blocks.
Within a scan, a side block equal bit for bit to the previous point's
reuses that point's block and its occupation spectrum, so an offset scan
diagonalises each distinct C_L and C_R once (in long-range mode neither
depends on the offset).  The reuse changes no output bit.

Configuration files are flat ``key = value`` text (``#`` comments); see
:func:`parse_config` for the schema.  Scans run sequentially so that a
given configuration always produces bit-identical output at a fixed
BLAS thread count.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics, fisher_hartwig, measures
from .correlation import build_corr_matrix
from .densela import lu_logdet
from .errors import ConfigError, DomainError, NesscorrError, SpectrumError
from .model import (BiasConfig, ConstantS, Geometry, ImpurityModel, SingleSite,
                    mirror_overlap)

DEGENERACY_RADIUS = 5  # sites: a nonzero edge difference this close flags a row


def _entropy_pair(c_a, c_l, c_r, n: int) -> measures.MeasureResult:
    """S_n(A_L) + S_n(A_R), with both clamp counts."""
    left = measures.renyi_entropy(c_l, n)
    right = measures.renyi_entropy(c_r, n)
    return measures.MeasureResult(value=left.value + right.value,
                                  clamped_count=left.clamped_count + right.clamped_count)


def _entropy_pair_asym(model, bias, g, n: float) -> asymptotics.AsymptoticPrediction:
    left = asymptotics.single_interval_entropy_asym(model, bias, g, "L", n)
    right = asymptotics.single_interval_entropy_asym(model, bias, g, "R", n)
    return asymptotics.AsymptoticPrediction(
        linear_coeff=left.linear_coeff,
        linear_length=float(g.ell_l + g.ell_r),
        log_terms=left.log_terms + right.log_terms)


class Measure(NamedTuple):
    """A measure's Renyi indices, numeric route and closed form."""

    indices: str | None   # None: one n = 1 series; "any", "even": one per index
    numeric: Callable     # (C_A, C_L, C_R, int n) -> MeasureResult
    closed_form: Callable  # (model, bias, g, float n) -> AsymptoticPrediction


# Entries look the layer function up when called, so a patched module
# attribute is the one that runs.
MEASURES = {
    "S_n": Measure("any", _entropy_pair, _entropy_pair_asym),
    "MI_n": Measure(
        "any", lambda c_a, c_l, c_r, n: measures.mutual_information(c_l, c_r, c_a, n),
        lambda m, b, g, n: asymptotics.renyi_mi_asym(m, b, g, n)),
    "MI": Measure(
        None, lambda c_a, c_l, c_r, n: measures.mutual_information(c_l, c_r, c_a),
        lambda m, b, g, n: asymptotics.vn_mi_asym(m, b, g)),
    "E_n": Measure(
        "even", lambda c_a, c_l, c_r, n: measures.renyi_negativity_eig(c_a, c_a.n_left, n),
        lambda m, b, g, n: asymptotics.negativity_asym_symmetric(m, b, g, int(n))),
    "E": Measure(
        None, lambda c_a, c_l, c_r, n: measures.fermionic_negativity(c_a, c_a.n_left),
        lambda m, b, g, n: asymptotics.negativity_asym_symmetric(m, b, g)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One scan: model, bias, geometry template, grid, measures."""

    model: ImpurityModel
    bias: BiasConfig
    geometry: Geometry
    scan_variable: str                    # "length" | "offset"
    scan_values: tuple[int, ...]
    measures: tuple[str, ...]
    n_values: tuple[int, ...] = (2,)
    mode: str = "longrange"
    ell_r_ratio: int = 1                  # length scans: ell_r = ratio * ell

    def __post_init__(self):
        if self.scan_variable not in ("length", "offset"):
            raise ConfigError(f"scan variable {self.scan_variable!r} unknown")
        if self.scan_variable == "offset" and self.ell_r_ratio != 1:
            raise ConfigError(
                f"scan.ell_r_ratio = {self.ell_r_ratio}: an offset scan does not "
                "read it; only length scans do")
        if len(self.scan_values) == 0:
            raise ConfigError("scan grid must be nonempty")
        if any(b <= a for a, b in zip(self.scan_values, self.scan_values[1:])):
            raise ConfigError("scan grid must be strictly increasing")
        for label, values in (("measure", self.measures),
                              ("Renyi index", self.n_values)):
            repeated = sorted({v for v in values if values.count(v) > 1}, key=values.index)
            if repeated:
                raise ConfigError(
                    f"repeated {label} {', '.join(map(str, repeated))}: "
                    "each would emit its series twice")
        for m in self.measures:
            if m not in MEASURES:
                raise ConfigError(f"unknown measure {m!r}")
            if MEASURES[m].indices and any(n < 2 or n % 1 for n in self.n_values):
                raise ConfigError(f"n_values = {','.join(map(str, self.n_values))}: "
                                  f"measure {m} needs integer Renyi indices >= 2")
            if MEASURES[m].indices == "even" and any(n % 2 for n in self.n_values):
                raise ConfigError(f"measure {m} needs even Renyi indices")
            # E_n's closed form takes the Q functions at n / 2, the others at n
            top = asymptotics.Q_INDEX_MAX * (2 if MEASURES[m].indices == "even" else 1)
            if MEASURES[m].indices and any(n > top for n in self.n_values):
                raise ConfigError(
                    f"n_values = {','.join(map(str, self.n_values))}: measure {m} "
                    f"needs Renyi indices <= {top}, where its closed form is checked")
        negativities = [m for m in self.measures if m in ("E", "E_n")]
        if negativities and (self.scan_variable == "offset" or self.ell_r_ratio != 1):
            raise ConfigError(
                f"{', '.join(negativities)}: the negativity closed forms hold only in "
                "the symmetric limit ell_l = ell_r, d_l = d_r; use a length scan with "
                "scan.ell_r_ratio = 1")
        if self.mode not in ("longrange", "full"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for value in self.scan_values:
            try:
                geometry_at(self, value)
            except DomainError as exc:
                raise ConfigError(
                    f"scan.values point {value}, scan.ell_r_ratio = {self.ell_r_ratio}: "
                    f"{exc}") from exc


@dataclass
class ScanRow:
    """One (grid point, measure, index) record of a scan."""

    scan_value: int
    measure: str
    n: float
    numeric: float
    lin_term: float
    log_term: float
    const_fit: float
    residual: float
    degenerate: bool = False      # a nonzero edge difference within the radius
    error: str | None = None
    clamped_count: int = 0        # spectrum eigenvalues clamped into [0, 1]
    imag_residual: float = 0.0    # E, E_n: max |Im| of the C_Xi eigenvalues
    exact_zero: bool = False      # an edge difference is 0: the omission rule


def geometry_at(cfg: ExperimentConfig, value: int) -> Geometry:
    g = cfg.geometry
    if cfg.scan_variable == "length":
        return replace(g, ell_l=int(value), ell_r=int(cfg.ell_r_ratio * value), d_l=g.d_r)
    return replace(g, d_l=g.d_r + int(value) if value >= 0 else g.d_r,
                   d_r=g.d_r if value >= 0 else g.d_r - int(value))


def _measure_keys(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    return [(m, float(n)) for m in cfg.measures
            for n in (cfg.n_values if MEASURES[m].indices else (1,))]


def _error_text(exc: NesscorrError) -> str:
    return f"{type(exc).__name__}: {exc}"


# appended to a SpectrumError of a constant_s model in full mode
CONSTANT_S_FULL_CAUSE = (
    "; constant_s in full mode: a momentum-independent S-matrix has no lattice "
    "realisation near the impurity, so C_A need not be a correlation matrix at "
    "small d_l, d_r (use larger distances or mode = longrange)")


def _attempt(route: Callable, args: tuple, spectrum_cause: str = ""):
    """``route(*args)``, or its error's text, ``spectrum_cause`` after a SpectrumError's."""
    try:
        return route(*args)
    except NesscorrError as exc:
        return _error_text(exc) + (spectrum_cause if isinstance(exc, SpectrumError) else "")


def _evaluate(cfg: ExperimentConfig, g: Geometry, cache: dict | None = None,
              previous: tuple | None = None) -> tuple[dict, tuple]:
    """Both routes of every measure at one point, from one build of C_A.

    Returns, per measure key, the pair (numeric ``MeasureResult``,
    ``AsymptoticPrediction``), in which a route that raised is the text
    of its error, so the other routes of the point keep their values; and
    the point's (C_L, C_R).  A side block equal to its counterpart in
    ``previous``, the (C_L, C_R) of an earlier point, is replaced by it,
    so its memoised spectrum is reused.  A failed build of C_A raises.
    """
    c_a = build_corr_matrix(cfg.model, cfg.bias, g, "A", cfg.mode, cache)
    c_l, c_r = c_a.blocks()
    if previous is not None:  # array_equal compares shapes before entries
        c_l, c_r = (old if np.array_equal(old.mat, new.mat) else new
                    for new, old in zip((c_l, c_r), previous))
    cause = (CONSTANT_S_FULL_CAUSE
             if cfg.mode == "full" and isinstance(cfg.model, ConstantS) else "")
    return {(m, n): (_attempt(MEASURES[m].numeric, (c_a, c_l, c_r, int(n)), cause),
                     _attempt(MEASURES[m].closed_form, (cfg.model, cfg.bias, g, n)))
            for m, n in _measure_keys(cfg)}, (c_l, c_r)


def fit_constant(numeric, analytic_no_const, window) -> tuple[float, float]:
    """Least-squares additive constant over the window, plus its rms.

    With a single free constant the least-squares fit is the mean of the
    differences over the window indices.
    """
    window = list(window)
    if not window:
        raise DomainError("fit window must be nonempty")
    diffs = np.asarray([numeric[i] - analytic_no_const[i] for i in window])
    constant = float(np.mean(diffs))
    rms = float(np.sqrt(np.mean((diffs - constant) ** 2)))
    return constant, rms


def run_scan(cfg: ExperimentConfig) -> list[ScanRow]:
    """Execute a scan; failed grid points are recorded, not fatal."""
    keys = _measure_keys(cfg)
    series: dict = {key: [] for key in keys}
    # window integrals, and the last full-mode C_A whose entries the next
    # point copies for the site pairs it shares; one model and bias per scan
    entry_cache: dict = {}
    sides = None  # the last point's (C_L, C_R), for _evaluate to reuse
    for value in cfg.scan_values:
        g = geometry_at(cfg, value)
        diffs = asymptotics.edge_differences(g)
        degenerate = any(0 < abs(d) <= DEGENERACY_RADIUS for d in diffs)
        if sides is not None and (sides[0].dim, sides[1].dim) != (g.ell_l, g.ell_r):
            # a length scan: no side can match; free the old C_A first
            # (in full mode entry_cache keeps it until this build replaces it)
            sides = None
        try:
            point, sides = _evaluate(cfg, g, entry_cache, sides)
        except NesscorrError as exc:
            point = dict.fromkeys(keys, (_error_text(exc),) * 2)
        for (measure, n), (measured, pred) in point.items():
            row = ScanRow(value, measure, n, np.nan, np.nan, np.nan, np.nan, np.nan,
                          degenerate, exact_zero=0 in diffs)
            series[(measure, n)].append(row)
            errors = [x for x in (measured, pred) if isinstance(x, str)]
            if errors:  # the numeric route's error first
                row.error = errors[0]
                continue
            row.numeric, row.lin_term, row.log_term = (
                measured.value, pred.linear_part, pred.log_part)
            row.clamped_count = measured.clamped_count
            row.imag_residual = measured.imag_residual

    first = len(cfg.scan_values) // 2
    for rows in series.values():
        window = [i for i in range(first, len(rows)) if rows[i].error is None]
        const = fit_constant([r.numeric for r in rows],
                             [r.lin_term + r.log_term for r in rows],
                             window)[0] if window else 0.0
        for r in rows:
            if r.error is None:
                r.const_fit = const
                r.residual = r.numeric - r.lin_term - r.log_term - const
    return [r for key in keys for r in series[key]]


CSV_HEADER = ("scan_value", "measure", "n", "numeric", "lin_term", "log_term",
              "const_fit", "residual")


def rows_to_csv(rows) -> str:
    """Serialize rows with 12 significant digits, deterministically."""
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for r in rows:
        fields = [str(r.scan_value), r.measure, f"{r.n:.12g}"]
        fields += [f"{x:.12g}" for x in
                   (r.numeric, r.lin_term, r.log_term, r.const_fit, r.residual)]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()


def scan_summary(rows) -> dict:
    failed = [r for r in rows if r.error is not None]
    degenerate = sorted({r.scan_value for r in rows if r.degenerate})
    exact_zero = sorted({r.scan_value for r in rows if r.exact_zero})
    return {
        "rows": len(rows),
        "failed_rows": len(failed),
        "clamped_count": sum(r.clamped_count for r in rows),
        "max_imag_residual": max((r.imag_residual for r in rows), default=0.0),
        "errors": [{"scan_value": r.scan_value, "measure": r.measure,
                    "n": r.n, "error": r.error} for r in failed],
        "degenerate_scan_values": degenerate,
        "exact_zero_scan_values": exact_zero,
    }


# ---------------------------------------------------------------------------
# identity suite


def run_identities() -> list[dict]:
    """Execute the gamma-sum and special-function identity suite.

    Returns one record per identity instance with its residual; failures
    are entries with large residuals, never exceptions.  ``T`` is None for
    the identities that do not depend on it.
    """
    n_values, even_n_values = (2, 3, 4, 5), (2, 4, 6)
    t_grid = np.round(np.arange(0.1, 0.95, 0.1), 10)
    report: list[dict] = []

    def add(name, n, t, residual):
        report.append({"identity": name, "n": n, "T": t,
                       "residual": float(residual)})

    for n in sorted(set(n_values) | set(even_n_values)):
        for t in t_grid:
            res = fisher_hartwig.gamma_identities(float(t), int(n))
            wanted = ("square_log", "index_log", "cross_log")
            if n in even_n_values and "negativity_log" in res:
                wanted = wanted + ("negativity_log",)
            for key in wanted:
                add(key, n, float(t), res[key])
    for n in n_values:
        nf = float(n)
        add("Q_n(1)=0", n, 1.0, abs(asymptotics.q_n(1.0, nf)))
        add("Q_n(0)", n, 0.0,
            abs(asymptotics.q_n(0.0, nf) - (1.0 / nf - nf) / 12.0))
        add("Qt_n(0)=0", n, 0.0, abs(asymptotics.q_tilde_n(0.0, 1.0, nf)))
        add("Qt_n(1)=0", n, 1.0, abs(asymptotics.q_tilde_n(1.0, 0.0, nf)))
    for n in range(2, 9):
        gammas = fisher_hartwig.gamma_range(n)
        add("sum_gamma^2", n, None,
            abs(np.sum(gammas ** 2) - (n ** 3 - n) / 12.0))
    add("q(0)=0", 1, 0.0, abs(asymptotics.q_fun(0.0, 1.0)))
    add("q(1)=0", 1, 1.0, abs(asymptotics.q_fun(1.0, 0.0)))
    add("qt(0)=0", 1, 0.0, abs(asymptotics.q_tilde_fun(0.0, 1.0)))
    add("qt(1)=0", 1, 1.0, abs(asymptotics.q_tilde_fun(1.0, 0.0)))
    add("q(1/2)<0", 1, 0.5, 0.0 if asymptotics.q_fun(0.5, 0.5) < 0 else 1.0)
    add("qt(1/2)>0", 1, 0.5, 0.0 if asymptotics.q_tilde_fun(0.5, 0.5) > 0 else 1.0)
    return report


# ---------------------------------------------------------------------------
# Fisher-Hartwig validation suite


def run_fh_validation() -> list[dict]:
    """Exact-vs-asymptotic Toeplitz log-determinants for the symbol families.

    For each window case and symbol family, reports Re(ln det) exact and
    asymptotic per M, the fitted ln M coefficient and -sum beta^2.
    """
    m_values, transmission, n, gamma = (256, 512, 1024), 0.3, 2, 0.5
    # windows chosen so the leading finite-M transient still dominates the
    # oscillatory remainder at M = 256: the convergence of (exact - asym)
    # is then monotone at the probed sizes for either symbol family
    windows = {
        "containment": ((0.57, 2.10), (0.29, 2.41)),
        "disjoint": ((0.19, 0.62), (1.92, 2.65)),
        "partial": ((0.20, 0.80), (0.50, 1.20)),
    }
    out = []
    for case, (theta_l, theta_r) in windows.items():
        for family in ("mi", "negativity"):
            if family == "mi":
                symbol = fisher_hartwig.mi_symbol("A", gamma, n, theta_l,
                                                  theta_r, transmission)
            else:
                symbol = fisher_hartwig.negativity_symbol(gamma, n, theta_l,
                                                          theta_r, transmission)
            beta = symbol.beta_exponents()
            target = complex(-np.sum(beta ** 2))
            exact, asym = [], []
            for m in m_values:
                exact.append(lu_logdet(fisher_hartwig.toeplitz_from_symbol(symbol, m)))
                asym.append(fisher_hartwig.fh_logdet_asym(symbol, m))
            diffs = [e.real - a.real for e, a in zip(exact, asym)]
            # remove the known linear term, then fit b*ln M + c through the ends
            lin = fisher_hartwig.symbol_linear_coeff(symbol).real
            y = [e.real - lin * m for e, m in zip(exact, m_values)]
            b_fit = (y[-1] - y[0]) / (np.log(m_values[-1]) - np.log(m_values[0]))
            out.append({
                "case": case, "family": family,
                "m_values": list(m_values),
                "exact_re": [e.real for e in exact],
                "asym_re": [a.real for a in asym],
                "diff_re": diffs,
                "lnm_coeff_fit": float(b_fit),
                "lnm_coeff_expected": float(target.real),
            })
    return out


# ---------------------------------------------------------------------------
# configuration parsing


def _parse_kv(text: str) -> dict[str, str]:
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"key {key!r} is set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        out[key] = value
    return out


def _int_list(value: str) -> tuple[int, ...]:
    if ":" in value:
        parts = [int(x) for x in value.split(":")]
        if len(parts) == 2:
            parts.append(1)
        start, stop, step = parts
        return tuple(range(start, stop + 1, step))
    return tuple(int(x) for x in value.split(","))


CONFIG_KEYS = frozenset("""
    model.kind model.eps0 model.eta model.transmission
    bias.kf_l bias.kf_r
    geometry.m0 geometry.d_l geometry.ell_l geometry.d_r geometry.ell_r
    scan.variable scan.values scan.ell_r_ratio
    measures n_values mode""".split())


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value experiment configuration; unknown keys raise,
    and so does a key set twice, naming both lines.

    Every number must be finite: NaN and +-inf raise, naming their key.

    Keys (defaults in brackets):
      model.kind            single_site | constant_s; a model key that the
                            kind does not read is rejected
      model.eps0            single_site: on-site energy in units of the hopping
      model.eta             single_site: divides model.eps0 (> 0) [1]
      model.transmission    constant_s: beamsplitter transmission
      bias.kf_l, bias.kf_r  Fermi momenta in [0, pi], kept as given
      geometry.d_l, geometry.ell_l, geometry.d_r, geometry.ell_r
                            a scan places d_l from geometry.d_r and the offset,
                            and a length scan takes ell_l, ell_r from
                            scan.values; those template values serve measure
                            only
      geometry.m0           adds to geometry.d_l and geometry.d_r (>= 0) [0]
      scan.variable         length | offset
      scan.values           comma list, or start:stop[:step]
      scan.ell_r_ratio      length scans: ell_r = ratio * ell [1]; an offset
                            scan rejects any other value
      measures              comma subset of S_n, MI_n, MI, E_n, E (E, E_n only
                            on length scans at ratio 1)
      n_values              comma list of integer Renyi indices >= 2 (even
                            for E_n), at most 640 (1280 for E_n) [2]
      mode                  longrange | full [longrange]

    A scan fits each series' constant over the upper half of its grid.
    """
    kv = _parse_kv(text)
    unknown = sorted(set(kv) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    def need(key):
        if key not in kv:
            raise ConfigError(f"missing required key {key!r}")
        return kv[key]

    def value(key, convert, default=None):
        raw = need(key) if default is None else kv.get(key, default)
        try:
            out = convert(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} = {raw}: {exc}") from exc
        if isinstance(out, float) and not math.isfinite(out):
            raise ConfigError(f"{key} = {raw}: the value must be finite")
        return out

    def checked(keys, build):
        # a value that build() rejects: name the keys it read from the file
        try:
            return build()
        except ValueError as exc:
            given = ", ".join(f"{key} = {kv[key]}" for key in keys if key in kv)
            raise ConfigError(f"{given}: {exc}") from exc

    kind = need("model.kind")
    reads = {"single_site": ("model.eps0", "model.eta"),
             "constant_s": ("model.transmission",)}.get(kind)
    if reads is None:
        raise ConfigError(f"unknown model.kind {kind!r}")
    stray = sorted({"model.eps0", "model.eta", "model.transmission"} & set(kv) - set(reads))
    if stray:  # a key that no branch below reads would be dropped silently
        raise ConfigError(f"{', '.join(f'{k} = {kv[k]}' for k in stray)}: "
                          f"model.kind = {kind} reads only {', '.join(reads)}")
    if kind == "single_site":
        eps0, eta = value("model.eps0", float), value("model.eta", float, "1")
        if eta <= 0:
            raise ConfigError(f"model.eta = {kv['model.eta']}: the hopping must be > 0")
        model: ImpurityModel = checked(("model.eps0", "model.eta"),
                                       lambda: SingleSite(eps0 / eta))
    else:
        transmission = value("model.transmission", float)
        model = checked(("model.transmission",),
                        lambda: ConstantS.beamsplitter(transmission))

    kf_l, kf_r = value("bias.kf_l", float), value("bias.kf_r", float)
    bias = checked(("bias.kf_l", "bias.kf_r"), lambda: BiasConfig(kf_l, kf_r))

    m0 = value("geometry.m0", int, "0")
    if m0 < 0:
        raise ConfigError(f"geometry.m0 = {kv['geometry.m0']}: the value must be >= 0")
    sizes = {name: value(f"geometry.{name}", int, default)
             for name, default in (("d_l", "0"), ("ell_l", "1"), ("d_r", "0"), ("ell_r", "1"))}
    keys = ["geometry.m0"] + [f"geometry.{name}" for name in sizes]
    given = checked(keys, lambda: Geometry(**sizes))
    geometry = checked(keys, lambda: replace(given, d_l=given.d_l + m0, d_r=given.d_r + m0))

    return ExperimentConfig(
        model=model, bias=bias, geometry=geometry,
        scan_variable=need("scan.variable"),
        scan_values=value("scan.values", _int_list),
        measures=tuple(m.strip() for m in need("measures").split(",")),
        n_values=value("n_values", lambda v: tuple(int(x) for x in v.split(",")), "2"),
        mode=kv.get("mode", "longrange"),
        ell_r_ratio=value("scan.ell_r_ratio", int, "1"))


def measure_point(cfg: ExperimentConfig) -> dict:
    """Single-configuration evaluation for the `measure` subcommand."""
    g = cfg.geometry
    point, _ = _evaluate(cfg, g)
    result = {}
    for (measure, n), (measured, pred) in sorted(point.items()):
        record = ({"numeric_error": measured} if isinstance(measured, str)
                  else {"numeric": measured.value})
        record.update({"analytic_error": pred} if isinstance(pred, str)
                      else {"lin_term": pred.linear_part, "log_term": pred.log_part})
        result[f"{measure}[n={n:g}]"] = record
    ell_mirror, dl_l, dl_r = mirror_overlap(g)
    return {"geometry": {"ell_mirror": ell_mirror, "delta_ell_l": dl_l,
                         "delta_ell_r": dl_r},
            "measures": result}


def to_json(obj) -> str:
    """Strict JSON: a NaN or infinite value raises ``ValueError``."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
