"""Scan orchestration, constant fitting, configuration parsing and the CLI."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nesscorr.harness as harness_module
from nesscorr import asymptotics, fisher_hartwig, measures
from nesscorr.cli import main
from nesscorr.errors import BranchError, ConfigError, DomainError, SpectrumError
from nesscorr.harness import (
    CSV_HEADER,
    ExperimentConfig,
    fit_constant,
    geometry_at,
    measure_point,
    parse_config,
    rows_to_csv,
    run_fh_validation,
    run_identities,
    run_scan,
    scan_summary,
)
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite
from oracles import toeplitz_gather

BIAS = BiasConfig(np.pi / 2 + 0.2, np.pi / 2)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALL_MEASURES = ("S_n", "MI_n", "MI", "E_n", "E")

# each measure's numeric route in nesscorr.measures and closed form in
# nesscorr.asymptotics, with their calls per grid point
LAYER_FUNCTIONS = {
    "S_n": ("renyi_entropy", "single_interval_entropy_asym", 2),
    "MI_n": ("mutual_information", "renyi_mi_asym", 1),
    "MI": ("mutual_information", "vn_mi_asym", 1),
    "E_n": ("renyi_negativity_eig", "negativity_asym_symmetric", 1),
    "E": ("fermionic_negativity", "negativity_asym_symmetric", 1),
}


def small_config(**overrides):
    defaults = dict(
        model=ConstantS.beamsplitter(0.5),
        bias=BIAS,
        geometry=Geometry(d_l=0, ell_l=4, d_r=0, ell_r=4),
        scan_variable="length",
        scan_values=(8, 16, 32),
        measures=("MI", "MI_n"),
        n_values=(2,),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


CONFIG_TEXT = """
# minimal scan configuration
model.kind = constant_s
model.transmission = 0.5
bias.kf_l = 1.7707963267948966
bias.kf_r = 1.5707963267948966
geometry.d_r = 0
scan.variable = length
scan.values = 8,16,32
measures = MI,MI_n
n_values = 2
output.csv = out.csv
"""


def _count_spectra(monkeypatch) -> list[int]:
    """Record the dimension of every Hermitian spectrum the measures compute."""
    sizes: list[int] = []
    real = harness_module.measures.herm_eigvals

    def counting(m):
        sizes.append(np.shape(m)[0])
        return real(m)

    monkeypatch.setattr(harness_module.measures, "herm_eigvals", counting)
    return sizes


def _assert_rows_match_fresh_points(cfg, rows):
    """Each row equals an evaluation of its grid point on its own."""
    fresh = {}
    for r in rows:
        if r.scan_value not in fresh:
            g = geometry_at(cfg, r.scan_value)
            fresh[r.scan_value], _ = harness_module._evaluate(cfg, g)
        measured, pred = fresh[r.scan_value][(r.measure, r.n)]
        assert r.error is None
        assert (r.numeric, r.clamped_count, r.imag_residual, r.lin_term, r.log_term) == (
            measured.value, measured.clamped_count, measured.imag_residual,
            pred.linear_part, pred.log_part)


class TestFitConstant:
    def test_exact_offset(self):
        numeric = {0: 4.7, 1: 5.7, 2: 6.7}
        analytic = {0: 1.0, 1: 2.0, 2: 3.0}
        const, rms = fit_constant(numeric, analytic, [0, 1, 2])
        assert const == pytest.approx(3.7)
        assert rms == pytest.approx(0.0)

    def test_single_point_window(self):
        const, rms = fit_constant({0: 2.0}, {0: 0.5}, [0])
        assert const == pytest.approx(1.5)
        assert rms == 0.0

    def test_alternating_noise_rms(self):
        noise = 0.01
        numeric = {i: i + noise * (-1) ** i for i in range(10)}
        analytic = {i: float(i) for i in range(10)}
        const, rms = fit_constant(numeric, analytic, range(10))
        assert const == pytest.approx(0.0, abs=1e-12)
        assert rms == pytest.approx(noise, rel=1e-9)

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            fit_constant({}, {}, [])


class TestGeometryTemplates:
    def test_length_scan_symmetric(self):
        g = geometry_at(small_config(), 16)
        assert (g.ell_l, g.ell_r, g.d_l, g.d_r) == (16, 16, 0, 0)

    def test_length_scan_with_ratio_and_offset(self):
        cfg = small_config(ell_r_ratio=2, offset_ratio=0.5)
        g = geometry_at(cfg, 32)
        assert (g.ell_l, g.ell_r) == (32, 64)
        assert g.d_l - g.d_r == 16

    def test_offset_scan_both_signs(self):
        cfg = small_config(scan_variable="offset", scan_values=(-7, 0, 7),
                           geometry=Geometry(0, 5, 3, 5))
        assert geometry_at(cfg, 7).d_l - geometry_at(cfg, 7).d_r == 7
        assert geometry_at(cfg, -7).d_l - geometry_at(cfg, -7).d_r == -7


class TestRunScan:
    def test_trivial_impurity_scan_vanishes(self):
        cfg = small_config(model=ConstantS.beamsplitter(1.0))
        rows = run_scan(cfg)
        assert all(r.error is None for r in rows)
        for r in rows:
            assert abs(r.numeric) <= 1e-8
            assert abs(r.lin_term + r.log_term) <= 1e-8

    def test_single_site_trivial_impurity_has_no_error_rows(self):
        # at eps0 = 0, T(k) rounds to just below 1 at many quadrature nodes
        cfg = small_config(model=SingleSite(eps0=0.0), measures=("MI", "E", "E_n"),
                           scan_values=(8, 16))
        rows = run_scan(cfg)
        assert [r.error for r in rows if r.error is not None] == []
        assert all(r.lin_term == 0.0 for r in rows if r.measure == "E")

    def test_single_site_near_trivial_negativity_has_no_error_rows(self):
        # at eps0 = 2e-8, R(k_F) is about 1e-16: Q_{1/2}(R) of E's log term
        # sits where the kernels once divided rounding noise by x
        cfg = small_config(model=SingleSite(eps0=2e-8), measures=("E",),
                           scan_values=(8, 16))
        rows = run_scan(cfg)
        assert [r.error for r in rows if r.error is not None] == []
        assert all(np.isfinite(r.log_term) for r in rows)

    def test_residuals_are_consistent(self):
        rows = run_scan(small_config())
        for r in rows:
            assert r.residual == pytest.approx(
                r.numeric - r.lin_term - r.log_term - r.const_fit, abs=1e-12)

    @pytest.mark.parametrize("geometry", [
        dict(scan_variable="offset", scan_values=(-7, 0, 7),
             geometry=Geometry(20, 40, 20, 60)),
        dict(ell_r_ratio=2), dict(offset_ratio=0.5)])
    @pytest.mark.parametrize("measures", [("MI", "E"), ("E_n",)])
    def test_asymmetric_negativity_is_a_config_error(self, geometry, measures):
        # the closed forms exist only in the symmetric limit
        with pytest.raises(ConfigError, match="ell_l = ell_r, d_l = d_r"):
            small_config(measures=measures, **geometry)

    def test_distance_shift_leaves_rows_unchanged(self):
        cfg1 = small_config(geometry=Geometry(0, 4, 0, 4))
        cfg2 = small_config(geometry=Geometry(9, 4, 9, 4))
        csv1 = rows_to_csv(run_scan(cfg1))
        csv2 = rows_to_csv(run_scan(cfg2))
        assert csv1 == csv2

    def test_determinism_bit_identical(self):
        cfg = small_config(model=SingleSite(eps0=1.0))
        assert rows_to_csv(run_scan(cfg)) == rows_to_csv(run_scan(cfg))

    def test_degenerate_offsets_flagged(self):
        cfg = small_config(scan_variable="offset",
                           scan_values=(-20, -3, 0, 3, 20),
                           geometry=Geometry(0, 8, 30, 8))
        rows = run_scan(cfg)
        flagged = {r.scan_value for r in rows if r.degenerate}
        assert {-3, 3}.issubset(flagged)
        assert -20 not in flagged and 20 not in flagged
        summary = scan_summary(rows)
        # at offset 0 two differences vanish exactly (the omission rule)
        # and the other two are ell = 8, outside the radius
        assert sorted(summary["degenerate_scan_values"]) == [-3, 3]
        assert summary["exact_zero_scan_values"] == [0]
        # equal lengths and distances: d_l - d_r is exactly 0 everywhere
        summary = scan_summary(run_scan(small_config()))
        assert summary["degenerate_scan_values"] == []
        assert summary["exact_zero_scan_values"] == [8, 16, 32]

    def test_failing_measure_leaves_the_others_of_its_point(self, monkeypatch):
        cfg = small_config(measures=("MI", "E"),
                           geometry=Geometry(2, 4, 2, 4))
        clean = run_scan(cfg)
        real_negativity = harness_module.measures.fermionic_negativity

        def failing_at_16(c_a, size_left):
            if size_left == 16:
                raise BranchError("injected")
            return real_negativity(c_a, size_left)

        monkeypatch.setattr(harness_module.measures, "fermionic_negativity",
                            failing_at_16)
        rows = run_scan(cfg)
        errors = {(r.scan_value, r.measure): r.error for r in rows
                  if r.error is not None}
        assert errors == {(16, "E"): "BranchError: injected"}
        mi = [(r.scan_value, r.numeric) for r in rows if r.measure == "MI"]
        assert mi == [(r.scan_value, r.numeric) for r in clean if r.measure == "MI"]
        assert scan_summary(rows)["failed_rows"] == 1

    def test_constant_s_near_the_impurity_in_full_mode_names_the_cause(self):
        # at d = 1, k_F,L = 3.0 the full-mode C_A of a momentum-independent
        # S-matrix has spectrum [3.637e-02, 1.010e+00]; the long-range C_A of
        # the same model and the full-mode C_A of a lattice impurity are
        # correlation matrices
        base = dict(bias=BiasConfig(3.0, np.pi / 2),
                    geometry=Geometry(1, 4, 1, 4), scan_values=(4,),
                    measures=("MI",))
        (row,) = run_scan(small_config(mode="full", **base))
        assert row.error == ("SpectrumError: correlation spectrum [3.637e-02, 1.010e+00] "
                             "strays outside [0, 1] beyond 1e-06"
                             + harness_module.CONSTANT_S_FULL_CAUSE)
        assert run_scan(small_config(mode="longrange", **base))[0].error is None
        assert run_scan(small_config(mode="full", model=SingleSite(eps0=1.0),
                                     **base))[0].error is None

    def test_constant_s_full_mode_negativities_fail_where_mi_does(self, monkeypatch):
        # at T = 0, d = 1, k_F,L = 3.0 the full-mode C_A spectrum reaches
        # 1.007-1.070 for ell = 2-16; E and E_n detect it in the C_Xi build,
        # still without a Hermitian spectrum of C_A
        sizes = _count_spectra(monkeypatch)
        rows = run_scan(small_config(
            model=ConstantS.beamsplitter(0.0), mode="full",
            bias=BiasConfig(3.0, np.pi / 2), geometry=Geometry(1, 4, 1, 4),
            scan_values=(2, 4, 8, 16), measures=("E", "E_n"), n_values=(2, 4)))
        assert sizes == []
        assert len(rows) == 3 * 4
        for row in rows:
            assert row.error == ("SpectrumError: correlation spectrum strays outside "
                                 "[0, 1] beyond 1e-06"
                                 + harness_module.CONSTANT_S_FULL_CAUSE)

    def test_failed_build_fails_every_row_of_its_point(self, monkeypatch):
        cfg = small_config(model=SingleSite(eps0=1.0), measures=ALL_MEASURES,
                           n_values=(2, 4), scan_values=(4, 6, 8, 10, 12, 14))
        clean = run_scan(cfg)
        real_build = harness_module.build_corr_matrix

        def failing_at_12(model, bias, g, *args):
            if g.ell_l == 12:
                raise SpectrumError("injected")
            return real_build(model, bias, g, *args)

        monkeypatch.setattr(harness_module, "build_corr_matrix", failing_at_12)
        rows = run_scan(cfg)
        assert [(r.scan_value, r.measure, r.n) for r in rows] == [
            (r.scan_value, r.measure, r.n) for r in clean]
        for r, c in zip(rows, clean):
            if r.scan_value == 12:
                assert r.error == "SpectrumError: injected"
                assert all(np.isnan(x) for x in (r.numeric, r.lin_term, r.log_term,
                                                  r.const_fit, r.residual))
                continue
            assert r.error is None
            assert r.numeric == c.numeric
        # upper-half window {10, 12, 14}: the constant is the mean over 10 and 14
        for key in harness_module._measure_keys(cfg):
            series = [r for r in rows if (r.measure, r.n) == key]
            window = [r for r in series if r.scan_value in (10, 14)]
            want = np.mean([r.numeric - (r.lin_term + r.log_term) for r in window])
            for r in series:
                if r.error is None:
                    assert r.const_fit == pytest.approx(want, rel=1e-12, abs=1e-14)
                    assert r.residual == r.numeric - r.lin_term - r.log_term - r.const_fit
        assert scan_summary(rows)["failed_rows"] == 8  # S_n, MI_n, E_n at 2 and 4; MI; E

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_routes_call_the_layer_module_attributes(self, monkeypatch, measure):
        # patched module attributes are what a tracer sees: the measure
        # table must reach its layer functions through them
        numeric_name, closed_name, per_point = LAYER_FUNCTIONS[measure]
        calls = {numeric_name: [], closed_name: []}
        for module, name in ((measures, numeric_name), (asymptotics, closed_name)):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name):
                calls[_name].append(args[-1])
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        cfg = small_config(model=SingleSite(eps0=1.0), measures=(measure,),
                           geometry=Geometry(2, 8, 2, 8))
        rows = run_scan(cfg)
        assert all(r.error is None for r in rows)
        points = len(cfg.scan_values)
        assert len(calls[numeric_name]) == len(calls[closed_name]) == per_point * points
        if measure not in ("MI", "E"):
            # numeric routes take an int n; E_n's closed form too, the others a float
            assert {type(n) for n in calls[numeric_name]} == {int}
            want = int if measure == "E_n" else float
            assert {type(n) for n in calls[closed_name]} == {want}
        for log in calls.values():
            log.clear()
        out = measure_point(cfg)["measures"]
        assert "numeric" in out[f"{measure}[n={rows[0].n:g}]"]
        assert len(calls[numeric_name]) == len(calls[closed_name]) == per_point

    def test_csv_header_and_digits(self):
        rows = run_scan(small_config())
        lines = rows_to_csv(rows).splitlines()
        assert lines[0] == ("scan_value,measure,n,numeric,lin_term,log_term,"
                            "const_fit,residual")
        assert len(lines) == 1 + len(rows)

    @pytest.mark.parametrize("mode", ["longrange", "full"])
    def test_one_matrix_build_per_grid_point(self, monkeypatch, mode):
        built = []
        real_build = harness_module.build_corr_matrix

        def counting_build(*args, **kwargs):
            built.append(args[3])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(harness_module, "build_corr_matrix", counting_build)
        cfg = small_config(model=SingleSite(eps0=1.0), scan_values=(2, 3, 4),
                           measures=("MI", "MI_n", "S_n", "E", "E_n"), mode=mode)
        rows = run_scan(cfg)
        assert all(r.error is None for r in rows)
        assert built == ["A"] * len(cfg.scan_values)

    def test_longrange_offset_scan_diagonalises_each_side_once(self, monkeypatch):
        # long-range C_L and C_R do not depend on d_l - d_r: one spectrum
        # each for the scan, plus one of C_A per point
        cfg = small_config(model=SingleSite(eps0=1.0), scan_variable="offset",
                           scan_values=(-6, -3, 0, 3, 6),
                           geometry=Geometry(0, 4, 10, 6),
                           measures=("MI", "MI_n", "S_n"))
        sizes = _count_spectra(monkeypatch)
        rows = run_scan(cfg)
        assert sizes == [4, 6] + [10] * len(cfg.scan_values)
        _assert_rows_match_fresh_points(cfg, rows)

    def test_full_mode_offset_scan_reuses_the_side_at_fixed_distance(
            self, monkeypatch):
        # offsets <= 0 keep d_l fixed, offsets >= 0 keep d_r fixed; the side
        # whose distance equals the previous point's is not diagonalised again
        cfg = small_config(model=SingleSite(eps0=1.0), mode="full",
                           scan_variable="offset", scan_values=(-4, -2, 0, 2, 4),
                           geometry=Geometry(0, 3, 6, 4), measures=("MI",))
        sizes = _count_spectra(monkeypatch)
        rows = run_scan(cfg)
        assert sizes == [3, 4, 7,   # -4: first point, nothing to reuse
                         4, 7,      # -2: C_L reused
                         4, 7,      # 0: C_L reused
                         3, 7,      # 2: C_R reused
                         3, 7]      # 4: C_R reused
        _assert_rows_match_fresh_points(cfg, rows)

    def test_negativity_scan_computes_no_hermitian_spectrum(self, monkeypatch):
        # the occupation term of E and E_n comes from the C_Xi build's
        # ln det(I + Gamma_+ Gamma_-), not from the spectrum of C_A
        cfg = small_config(model=SingleSite(eps0=1.0), scan_values=(4, 8),
                           measures=("E", "E_n"), n_values=(2, 4))
        sizes = _count_spectra(monkeypatch)
        rows = run_scan(cfg)
        assert sizes == []
        assert len(rows) == 3 * len(cfg.scan_values)
        _assert_rows_match_fresh_points(cfg, rows)

    def test_length_scan_reuses_no_side(self, monkeypatch):
        cfg = small_config(model=SingleSite(eps0=1.0), scan_values=(4, 8, 12),
                           measures=("MI", "MI_n"))
        sizes = _count_spectra(monkeypatch)
        rows = run_scan(cfg)
        assert len(sizes) == 3 * len(cfg.scan_values)
        _assert_rows_match_fresh_points(cfg, rows)

    def test_full_mode_length_scan_matches_fresh_points(self):
        # each point reuses the entries of the site pairs the last one held
        cfg = small_config(model=SingleSite(eps0=1.0), mode="full", scan_values=(2, 4, 6),
                           geometry=Geometry(0, 1, 5, 1), measures=ALL_MEASURES,
                           n_values=(2, 4))
        _assert_rows_match_fresh_points(cfg, run_scan(cfg))

    def test_full_mode_scan_tracks_longrange_at_large_distance(self):
        geometry = Geometry(300, 4, 300, 4)
        base = dict(scan_values=(4, 6), measures=("MI_n",),
                    geometry=geometry, model=SingleSite(eps0=1.0))
        full = run_scan(small_config(mode="full", **base))
        longrange = run_scan(small_config(mode="longrange", **base))
        for a, b in zip(full, longrange):
            assert a.error is None
            assert a.numeric == pytest.approx(b.numeric, abs=5e-3)

    def test_rows_carry_measure_diagnostics(self, monkeypatch):
        # tag each negativity result with a distinct imaginary residual so
        # the test sees it travel to its row
        real_negativity = harness_module.measures.fermionic_negativity
        expected = {}

        def tagged_negativity(c_a, size_left):
            result = real_negativity(c_a, size_left)
            tagged = replace(result, imag_residual=1e-12 * c_a.dim)
            expected[size_left] = tagged
            return tagged

        monkeypatch.setattr(harness_module.measures, "fermionic_negativity",
                            tagged_negativity)
        cfg = small_config(scan_values=(4, 8, 12), measures=("MI", "E"),
                           geometry=Geometry(2, 4, 2, 4))
        rows = run_scan(cfg)
        e_rows = [r for r in rows if r.measure == "E"]
        assert [r.clamped_count for r in e_rows] == [
            expected[ell].clamped_count for ell in cfg.scan_values]
        assert [r.imag_residual for r in e_rows] == [
            expected[ell].imag_residual for ell in cfg.scan_values]
        assert any(r.clamped_count for r in e_rows)
        summary = scan_summary(rows)
        assert summary["clamped_count"] == sum(r.clamped_count for r in rows)
        assert summary["max_imag_residual"] == 1e-12 * 2 * 12
        # the CSV does not depend on the diagnostics
        bare = [replace(r, clamped_count=0, imag_residual=0.0) for r in rows]
        assert rows_to_csv(rows) == rows_to_csv(bare)
        assert rows_to_csv(rows).splitlines()[0] == ",".join(CSV_HEADER)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.scan_values == (8, 16, 32)
        assert cfg.measures == ("MI", "MI_n")
        assert cfg.output_csv == "out.csv"
        assert cfg.bias.delta_k == pytest.approx(0.2)

    def test_range_syntax(self):
        cfg = parse_config(CONFIG_TEXT.replace("8,16,32", "8:32:8"))
        assert cfg.scan_values == (8, 16, 24, 32)

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            parse_config("model.kind = constant_s\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config("model.kind constant_s\n")

    def test_unknown_measure(self):
        with pytest.raises(ConfigError):
            parse_config(CONFIG_TEXT.replace("MI,MI_n", "MI,XX"))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(CONFIG_TEXT.replace("8,16,32", "32,16,8"))

    def test_odd_negativity_index_rejected(self):
        text = CONFIG_TEXT.replace("MI,MI_n", "E_n").replace(
            "n_values = 2", "n_values = 3")
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("measure", ["S_n", "MI_n"])
    @pytest.mark.parametrize("n", [2.5, 1, 0])
    def test_renyi_index_must_be_an_integer_from_two(self, measure, n):
        # at 2.5 the numeric route would evaluate int(n) = 2 against the closed form at 2.5
        with pytest.raises(ConfigError, match=f"^n_values = 2,{n}: measure {measure} "):
            small_config(measures=(measure,), n_values=(2, n))
        assert small_config(measures=(measure,), n_values=(2.0, 3)).n_values == (2.0, 3)

    @pytest.mark.parametrize("line", ["scan.ell_r_ratio = 3", "scan.offset_ratio = 0.5"])
    def test_offset_scan_rejects_length_scan_ratios(self, line, tmp_path, capsys):
        with open(os.path.join(ROOT, "configs", "offset_scan.cfg")) as fh:
            text = fh.read() + line + "\n"
        with pytest.raises(ConfigError, match=re.escape(line)):
            parse_config(text)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text.replace("offset_scan.csv", str(tmp_path / "out.csv")))
        assert main(["scan", str(cfg_file)]) == 1
        assert line in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("line, first", [("model.eps0 = 3.0", 5), ("measures = MI", 17)])
    def test_key_set_twice_rejected(self, line, first):
        # keeping the last value would give eps0 = 3.0, or MI without MI_n
        with open(os.path.join(ROOT, "configs", "offset_scan.cfg")) as fh:
            text = fh.read()
        last = len(text.splitlines()) + 1
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=re.escape(
                f"key {key!r} is set twice, on lines {first} and {last}")):
            parse_config(text + line + "\n")

    def test_repeated_measure_rejected(self):
        with pytest.raises(ConfigError, match="repeated measure MI:"):
            parse_config(CONFIG_TEXT.replace("MI,MI_n", "MI,MI_n,MI"))

    def test_repeated_renyi_index_rejected(self):
        with pytest.raises(ConfigError, match="repeated Renyi index 2:"):
            parse_config(CONFIG_TEXT.replace("n_values = 2", "n_values = 2,3,2"))

    def test_unknown_key_rejected(self):
        # bias.eta, fit.window and fit.degeneracy_radius were keys once
        for typo in ("mod = full", "fit.windw = all", "bias.eta = 1",
                     "fit.window = all", "fit.degeneracy_radius = 3"):
            with pytest.raises(ConfigError, match=typo.split(" =")[0]):
                parse_config(CONFIG_TEXT + typo + "\n")

    def test_committed_configs_parse(self):
        names = sorted(os.listdir(os.path.join(ROOT, "configs")))
        assert names
        for name in names:
            with open(os.path.join(ROOT, "configs", name)) as fh:
                assert parse_config(fh.read()).scan_values

    def test_scans_place_d_l_from_d_r(self):
        # the template's d_l, and in length scans its lengths, serve measure only
        with open(os.path.join(ROOT, "configs", "symmetric_length_scan.cfg")) as fh:
            text = fh.read().replace("geometry.d_l = 0", "geometry.d_l = 10")
        cfg = parse_config(text)
        assert cfg.geometry.d_l == 10
        g = geometry_at(cfg, 16)
        assert (g.d_l, g.d_r, g.ell_l, g.ell_r) == (0, 0, 16, 16)
        with open(os.path.join(ROOT, "configs", "offset_scan.cfg")) as fh:
            cfg = parse_config(fh.read() + "geometry.d_l = 7\n")
        g = geometry_at(cfg, -350)
        assert (g.d_l, g.d_r, g.ell_l, g.ell_r) == (400, 750, 100, 200)

    def test_band_edge_fermi_momentum_kept_exactly(self):
        with open(os.path.join(ROOT, "configs", "beamsplitter_point.cfg")) as fh:
            text = fh.read().replace("bias.kf_l = 1.7707963267948966", "bias.kf_l = 1e-06")
        cfg = parse_config(text.replace("bias.kf_r = 1.5707963267948966", "bias.kf_r = 0.0"))
        assert (cfg.bias.kf_l, cfg.bias.kf_r) == (1e-06, 0.0)

    def test_chemical_potential_keys_are_unknown(self, tmp_path, capsys):
        # bias.mu_l, bias.mu_r were keys once: convert with model.fermi_momentum
        text = CONFIG_TEXT.replace(
            "bias.kf_l = 1.7707963267948966", "bias.mu_l = 0.2").replace(
            "bias.kf_r = 1.5707963267948966", "bias.mu_r = 0.0")
        with pytest.raises(ConfigError,
                           match="^unknown configuration keys: bias.mu_l, bias.mu_r$"):
            parse_config(text)
        with pytest.raises(ConfigError, match="bias.mu_l"):
            parse_config(CONFIG_TEXT + "bias.mu_l = 0.2\n")
        cfg_file = tmp_path / "mu.cfg"
        cfg_file.write_text(text)
        assert main(["scan", str(cfg_file)]) == 1
        assert "bias.mu_l" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,line", [
        ("constant_s", "model.eps0 = 3.0"), ("constant_s", "model.eta = 1.0"),
        ("single_site", "model.transmission = 0.3")])
    def test_model_key_the_kind_never_reads_is_rejected(self, kind, line, tmp_path,
                                                        capsys):
        name = {"constant_s": "beamsplitter_point.cfg",
                "single_site": "symmetric_length_scan.cfg"}[kind]
        with open(os.path.join(ROOT, "configs", name)) as fh:
            text = fh.read() + line + "\n"
        with pytest.raises(ConfigError, match=f"^{re.escape(line)}: model.kind = {kind} "
                           "reads only "):
            parse_config(text)
        cfg_file = tmp_path / "stray.cfg"
        cfg_file.write_text(text.replace("symmetric_length_scan.csv",
                                         str(tmp_path / "out.csv")))
        assert main(["scan", str(cfg_file)]) == 1
        assert line in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind", ["single_site", "constant_s"])
    @pytest.mark.parametrize("eta", ["0", "-1", "nan"])
    def test_nonpositive_hopping_names_model_eta(self, kind, eta):
        # single_site checks the value; constant_s rejects the key it never reads
        text = CONFIG_TEXT
        if kind == "single_site":
            text = text.replace("model.kind = constant_s\nmodel.transmission = 0.5",
                                "model.kind = single_site\nmodel.eps0 = 1.0")
        with pytest.raises(ConfigError, match=f"^model.eta = {eta}: "):
            parse_config(text + f"model.eta = {eta}\n")

    FOLD_TEXT = """model.kind = single_site
bias.kf_l = 1.7707963267948966
bias.kf_r = 1.5707963267948966
scan.variable = length
scan.values = 4,6
measures = MI,MI_n,E
"""

    @pytest.mark.parametrize("mode, eps0", [("longrange", 2.6), ("full", 2.6),
                                            ("full", -2.6)])
    def test_m0_and_eta_fold_into_the_distances_and_eps0(self, mode, eps0):
        # the library has neither: m0 adds to both distances, eta divides
        # eps0; at eps0 < 0 full mode also fills the bound state
        legacy = self.FOLD_TEXT + (f"mode = {mode}\nmodel.eps0 = {eps0}\nmodel.eta = 2.0\n"
                                   "geometry.m0 = 3\ngeometry.d_l = 5\ngeometry.d_r = 9\n")
        twin = self.FOLD_TEXT + (f"mode = {mode}\nmodel.eps0 = {eps0 / 2}\n"
                                 "geometry.d_l = 8\ngeometry.d_r = 12\n")
        cfg, folded = parse_config(legacy), parse_config(twin)
        assert repr(cfg) == repr(folded)
        rows = run_scan(cfg)
        assert all(r.error is None for r in rows)
        assert rows_to_csv(rows) == rows_to_csv(run_scan(folded))

    @pytest.mark.parametrize("lines, named", [
        pytest.param("model.eps0 = 1.0\ngeometry.m0 = -1", "geometry.m0 = -1", id="m0<0"),
        pytest.param("model.eps0 = 1.0\nmodel.eta = 0", "model.eta = 0", id="eta=0"),
        # eps0 / eta overflows to inf, which SingleSite rejects at once
        pytest.param("model.eps0 = 1e308\nmodel.eta = 1e-308",
                     "model.eps0 = 1e308, model.eta = 1e-308", id="overflow"),
    ])
    def test_a_bad_fold_is_a_config_error_naming_its_keys(self, lines, named):
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}: "):
            parse_config(self.FOLD_TEXT + lines + "\n")

    @pytest.mark.parametrize("kind,line", [
        ("single_site", "model.eps0 = one"), ("single_site", "geometry.d_l = 2.5"),
        ("single_site", "geometry.d_r = -3"), ("single_site", "geometry.m0 = -1"),
        ("single_site", "bias.kf_l = 4.0"),
        ("single_site", "model.eta = -1"), ("single_site", "model.eps0 = nan"),
        ("single_site", "model.eta = inf"), ("single_site", "scan.offset_ratio = nan"),
        ("single_site", "scan.offset_ratio = inf"), ("constant_s", "bias.kf_r = -inf"),
        ("constant_s", "n_values = 1"), ("constant_s", "n_values = 0"),
        # the offset places sites beyond int64, or overflows to an infinite offset
        ("constant_s", "scan.offset_ratio = 1e+18"),
        ("constant_s", "scan.offset_ratio = 1e+308")])
    def test_invalid_value_is_a_config_error_naming_its_key(self, kind, line, tmp_path,
                                                             capsys):
        key = line.split(" =")[0]
        kept = CONFIG_TEXT if kind == "constant_s" else CONFIG_TEXT.replace(
            "model.kind = constant_s\nmodel.transmission = 0.5",
            "model.kind = single_site\nmodel.eps0 = 1.0")
        kept = kept.splitlines()
        text = "\n".join(k for k in kept if not k.startswith(key + " ")) + f"\n{line}\n"
        with pytest.raises(ConfigError, match=re.escape(line)):
            parse_config(text)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text)
        assert main(["scan", str(cfg_file)]) == 1
        assert line in capsys.readouterr().err


class TestIdentitySuite:
    def test_report_residuals_small(self):
        worst: dict[str, float] = {}
        for entry in run_identities():
            name = entry["identity"]
            worst[name] = max(worst.get(name, 0.0), entry["residual"])
        for name, value in worst.items():
            assert value <= 1e-7, f"{name}: {value}"

    def test_q_rows_present(self):
        report = run_identities()
        names = {entry["identity"] for entry in report}
        assert {"Q_n(1)=0", "Q_n(0)", "Qt_n(0)=0", "sum_gamma^2",
                "q(1/2)<0"} <= names

    def test_report_is_strict_json(self):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        report = json.loads(harness_module.to_json(run_identities()), parse_constant=reject)
        # sum_gamma^2 depends on n alone
        assert [e["T"] for e in report if e["identity"] == "sum_gamma^2"] == [None] * 7
        with pytest.raises(ValueError):
            harness_module.to_json({"value": float("nan")})


class TestFhValidation:
    # Re ln det of the M = 256, 512, 1024 Toeplitz matrices, per window case
    # and symbol family, as the index-gather fill gave them
    EXACT_RE = {
        ("containment", "mi"): [-7.9977758577645135, -14.67981172476932, -27.909303709012427],
        ("containment", "negativity"): [-7.997775857764515, -14.679811724769321,
                                        -27.909303709012438],
        ("disjoint", "mi"): [-14.065165923910016, -27.07089806520468, -52.95140149058397],
        ("disjoint", "negativity"): [-14.065165923910016, -27.07089806520468,
                                     -52.95140149058397],
        ("partial", "mi"): [-9.032571571534938, -16.934192893946147, -32.60517675849214],
        ("partial", "negativity"): [-9.032571571534936, -16.934192893946154,
                                    -32.60517675849215],
    }

    def test_values_equal_the_index_gather_fill(self, monkeypatch):
        got = run_fh_validation()
        monkeypatch.setattr(fisher_hartwig, "toeplitz", toeplitz_gather)
        assert repr(got) == repr(run_fh_validation())
        # LAPACK's blocking (its thread count) moves the last bits only
        assert {(e["case"], e["family"]): e["exact_re"] for e in got} == {
            key: pytest.approx(want, rel=1e-12) for key, want in self.EXACT_RE.items()}

    def test_holds_one_toeplitz_matrix_at_a_time(self):
        tracemalloc.start()
        try:
            run_fh_validation()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each Toeplitz matrix is a view; only LAPACK's untraced copy is n x n
        assert peak <= 0.25 * 16 * 1024 ** 2


class TestMeasurePoint:
    def test_reports_numeric_and_analytic(self):
        cfg = small_config(geometry=Geometry(2, 8, 2, 8),
                           measures=("MI", "E"))
        out = measure_point(cfg)
        assert out["geometry"]["ell_mirror"] == 8
        mi = out["measures"]["MI[n=1]"]
        assert "numeric" in mi and "lin_term" in mi and "log_term" in mi

    def test_reports_numeric_error_per_measure(self, monkeypatch):
        def failing(c_a, size_left):
            raise BranchError("injected")

        monkeypatch.setattr(harness_module.measures, "fermionic_negativity",
                            failing)
        cfg = small_config(geometry=Geometry(2, 8, 2, 8),
                           measures=("MI", "E"))
        out = measure_point(cfg)["measures"]
        assert out["E[n=1]"]["numeric_error"] == "BranchError: injected"
        assert "numeric" not in out["E[n=1]"]
        assert np.isfinite(out["MI[n=1]"]["numeric"])

    def test_gives_the_scan_row_of_its_point_bit_for_bit(self):
        with open(os.path.join(ROOT, "configs", "beamsplitter_point.cfg")) as fh:
            cfg = parse_config(fh.read())
        # the template geometry is also the file's one grid point
        assert [geometry_at(cfg, v) for v in cfg.scan_values] == [cfg.geometry]
        out = measure_point(cfg)["measures"]
        rows = run_scan(cfg)
        assert len(rows) == len(out) == 6
        for r in rows:
            assert r.error is None
            want = out[f"{r.measure}[n={r.n:g}]"]
            assert repr(want) == repr(
                {"numeric": r.numeric, "lin_term": r.lin_term, "log_term": r.log_term})

    def test_asymmetric_point_reports_numeric_and_analytic_error(self):
        cfg = small_config(geometry=Geometry(2, 8, 5, 12), measures=("E",))
        out = measure_point(cfg)["measures"]["E[n=1]"]
        assert np.isfinite(out["numeric"])
        assert out["analytic_error"].startswith("ScopeError")


class TestCli:
    def test_scan_roundtrip(self, tmp_path, capsys):
        cfg_file = tmp_path / "scan.cfg"
        out_file = tmp_path / "rows.csv"
        cfg_file.write_text(CONFIG_TEXT.replace(
            "output.csv = out.csv", f"output.csv = {out_file}"))
        code = main(["scan", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("scan_value,measure")
        assert len(lines) == 1 + 2 * 3
        summary = json.loads(captured.err)
        assert summary["failed_rows"] == 0
        # the process's peak resident set in MB, at least what Python holds
        assert 1.0 < summary["peak_rss_mb"] < 1e5

    def test_measure_json(self, tmp_path, capsys):
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text(CONFIG_TEXT.replace(
            "geometry.d_r = 0", "geometry.d_r = 0\ngeometry.ell_l = 6\n"
            "geometry.ell_r = 6"))
        assert main(["measure", str(cfg_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "measures" in out

    def test_measure_numeric_error_exit_code(self, tmp_path, capsys,
                                             monkeypatch):
        def failing(c_l, c_r, c_a, n=None):
            raise BranchError("injected")

        monkeypatch.setattr(harness_module.measures, "mutual_information",
                            failing)
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text(CONFIG_TEXT)
        assert main(["measure", str(cfg_file)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["measures"]["MI[n=1]"]["numeric_error"] == "BranchError: injected"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("model.kind = warp_drive\n")
        assert main(["scan", str(cfg_file)]) == 1

    def test_missing_file_exit_code(self, capsys):
        assert main(["scan", "/nonexistent/x.cfg"]) == 1

    def test_asymmetric_negativity_config_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "offset.cfg"
        cfg_file.write_text(CONFIG_TEXT.replace(
            "measures = MI,MI_n", "measures = MI,E").replace(
            "geometry.d_r = 0", "geometry.d_r = 20\ngeometry.ell_l = 40\n"
            "geometry.ell_r = 60").replace(
            "scan.variable = length\nscan.values = 8,16,32",
            "scan.variable = offset\nscan.values = -4,0,4").replace(
            "output.csv = out.csv", f"output.csv = {tmp_path / 'offset.csv'}"))
        assert main(["scan", str(cfg_file)]) == 1
        assert not (tmp_path / "offset.csv").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # constant_s in full mode next to the impurity: its MI rows fail
        # with a SpectrumError, exit 2
        cfg_file = tmp_path / "fail.cfg"
        cfg_file.write_text(CONFIG_TEXT.replace(
            "bias.kf_l = 1.7707963267948966", "bias.kf_l = 3.0").replace(
            "geometry.d_r = 0", "geometry.d_r = 1\nmode = full").replace(
            "scan.values = 8,16,32", "scan.values = 4").replace(
            "output.csv = out.csv", f"output.csv = {tmp_path / 'fail.csv'}"))
        assert main(["scan", str(cfg_file)]) == 2
        assert "SpectrumError" in capsys.readouterr().err

    # the last scan takes its output path from the config's output.csv
    @pytest.mark.parametrize("args", [
        ["measure", "CFG", "--out", "OUT"], ["scan", "CFG", "--out", "OUT"],
        ["scan", "CFG"]],
        ids=["measure", "scan", "scan-output.csv"])
    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_unwritable_output_is_a_config_error(self, args, parent, tmp_path, capsys,
                                                 monkeypatch):
        def never(*_):
            raise AssertionError("the work ran before the output check")

        # the check comes before the work, and creates no directory or file
        for entry in ("measure_point", "run_scan"):
            monkeypatch.setattr(harness_module, entry, never)
        # the output's directory is absent, or is a regular file
        if parent == "file":
            (tmp_path / "file").write_text("")
        out = tmp_path / parent / "out.txt"
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text(CONFIG_TEXT.replace("scan.values = 8,16,32", "scan.values = 8")
                            .replace("output.csv = out.csv", f"output.csv = {out}"))
        args = [{"CFG": str(cfg_file), "OUT": str(out)}.get(a, a) for a in args]
        # main returns, so no exception escapes to a traceback
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write {str(out)!r}: ")
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["point.cfg"] + (["file"] if parent == "file" else []))
        if parent == "file":
            assert (tmp_path / "file").read_text() == ""

    def test_output_fault_after_the_check_is_a_config_error(self, tmp_path, capsys):
        # a directory passes the check on its parent; opening it fails later
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text(CONFIG_TEXT)
        assert main(["measure", str(cfg_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write {str(tmp_path)!r}: ")

    def test_console_entry_point(self):
        import nesscorr
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(nesscorr.__file__))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "nesscorr.cli", "--help"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "{measure,scan}" in proc.stdout
        assert "fh-validate" not in proc.stdout

    @pytest.mark.parametrize("command", ["identities", "fh-validate"])
    def test_removed_command_is_an_invalid_choice(self, command, capsys):
        # the suites are library calls: harness.run_identities, run_fh_validation
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
