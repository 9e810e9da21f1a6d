import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mzparity import (
    CombinedStateParams,
    NumericalLimitError,
    berry_wiseman_internal,
    bruteforce_parity_expectation,
    closed_form_expectation,
    combined_input,
    dual_fock_input,
    noon_input,
    phase_uncertainties,
    phase_uncertainty,
    phase_uncertainty_limit,
)
from mzparity import detection, wigner
from mzparity.cli import (
    DEFAULT_PHI,
    SweepConfig,
    build_state,
    main,
    reproduce_table,
    run_sweep,
)

EXPECTED_HEADER = "N,phi,expectation,derivative,variance,delta_phi,shot_noise,heisenberg,bw_povm"


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture(scope="module")
def fig3_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig") / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(path)]) == 0
    return parse_csv(path.read_text())


@pytest.fixture(scope="module")
def fig4_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig") / "fig4.csv"
    assert main(["figure", "fig4", "--out", str(path)]) == 0
    return parse_csv(path.read_text())


def test_sweep_csv_layout(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--state", "single-fock", "--n-min", "2", "--n-max", "5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 5
    rows = parse_csv(out.read_text())
    assert [row["N"] for row in rows] == ["2", "3", "4", "5"]
    for row in rows:
        n = int(row["N"])
        assert float(row["phi"]) == DEFAULT_PHI
        assert float(row["shot_noise"]) == pytest.approx(1.0 / math.sqrt(n))
        assert float(row["heisenberg"]) == pytest.approx(1.0 / n)


def test_sweep_output_is_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--state", "yurke", "--n-min", "2", "--n-max", "10", "--limit"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_csv_round_trips_floats(tmp_path):
    out = tmp_path / "noon.csv"
    assert main(["sweep", "--state", "noon", "--n-min", "3", "--out", str(out)]) == 0
    (row,) = parse_csv(out.read_text())
    want = phase_uncertainty(build_state("noon", 3), DEFAULT_PHI)
    assert float(row["expectation"]) == want.expectation
    assert float(row["derivative"]) == want.derivative
    assert float(row["delta_phi"]) == want.delta_phi


def test_sweep_noon_tracks_heisenberg(tmp_path):
    out = tmp_path / "noon.csv"
    assert main(
        ["sweep", "--state", "noon", "--n-min", "1", "--n-max", "12", "--out", str(out)]
    ) == 0
    for row in parse_csv(out.read_text()):
        n = int(row["N"])
        assert float(row["delta_phi"]) == pytest.approx(1.0 / n, abs=1e-9)


def test_sweep_limit_mode_leaves_point_columns_empty(tmp_path):
    out = tmp_path / "limit.csv"
    assert main(
        ["sweep", "--state", "dual-fock", "--n-min", "4", "--n-max", "8", "--limit",
         "--out", str(out)]
    ) == 0
    rows = parse_csv(out.read_text())
    assert [row["N"] for row in rows] == ["4", "6", "8"]
    for row in rows:
        assert row["phi"] == ""
        assert row["expectation"] == ""
        n = int(row["N"])
        want = math.sqrt(2.0) / math.sqrt(n * (n + 2.0))
        assert float(row["delta_phi"]) == pytest.approx(want, rel=1e-6)


def test_sweep_skips_wrong_parity_with_warning(tmp_path, capsys):
    out = tmp_path / "skip.csv"
    assert main(
        ["sweep", "--state", "dual-fock", "--n-min", "2", "--n-max", "5",
         "--out", str(out)]
    ) == 0
    err = capsys.readouterr().err
    assert "N=3 skipped" in err
    assert "N=5 skipped" in err
    rows = parse_csv(out.read_text())
    assert [row["N"] for row in rows] == ["2", "4"]


def test_infinite_uncertainty_written_as_inf(tmp_path):
    out = tmp_path / "yuen.csv"
    assert main(["sweep", "--state", "yuen", "--n-min", "3", "--out", str(out)]) == 0
    (row,) = parse_csv(out.read_text())
    assert row["delta_phi"] == "inf"
    assert math.isinf(float(row["delta_phi"]))


def test_json_format(tmp_path):
    out = tmp_path / "out.json"
    assert main(
        ["sweep", "--state", "yuen", "--n-min", "3", "--format", "json",
         "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert len(data) == 1
    record = data[0]
    assert record["N"] == 3
    assert record["delta_phi"] == "inf"
    assert record["expectation"] == pytest.approx(0.0, abs=1e-14)
    assert record["bw_povm"] == pytest.approx(math.tan(math.pi / 5.0))


def test_json_limit_mode_uses_null(tmp_path):
    out = tmp_path / "out.json"
    assert main(
        ["sweep", "--state", "single-fock", "--n-min", "4", "--limit",
         "--format", "json", "--out", str(out)]
    ) == 0
    (record,) = json.loads(out.read_text())
    assert record["phi"] is None
    assert record["delta_phi"] == pytest.approx(0.5, rel=1e-6)


def test_expectation_single_point(tmp_path):
    out = tmp_path / "point.csv"
    assert main(
        ["expectation", "--state", "combined", "--n-min", "8", "--alpha", "0.6",
         "--theta", "0.0", "--phi", "0.3", "--out", str(out)]
    ) == 0
    (row,) = parse_csv(out.read_text())
    params = CombinedStateParams(0.6, 0.8, 0.0)
    want = phase_uncertainty(build_state("combined", 8, params), 0.3)
    assert float(row["expectation"]) == want.expectation
    assert float(row["delta_phi"]) == want.delta_phi
    # the CLI reads the state inside the interferometer; the at-input
    # vector gives the same point to roundoff
    at_input = phase_uncertainty(combined_input(8, params), 0.3)
    assert float(row["expectation"]) == pytest.approx(at_input.expectation, rel=0.0, abs=1e-14)
    assert float(row["delta_phi"]) == pytest.approx(at_input.delta_phi, rel=1e-14, abs=0.0)


def test_expectation_rejects_ranges_and_limit(capsys):
    assert main(["expectation", "--state", "noon", "--n-min", "2", "--n-max", "4"]) == 2
    assert "single N" in capsys.readouterr().err
    assert main(["expectation", "--state", "noon", "--n-min", "2", "--limit"]) == 2
    assert "fixed-phi" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep settings\n"
        "state_label = yurke\n"
        "n_min = 4\n"
        "n_max = 8\n"
        "phi_mode = limit\n"
    )
    out = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert [row["N"] for row in rows] == ["4", "6", "8"]
    assert rows[0]["phi"] == ""

    out2 = tmp_path / "b.csv"
    assert main(
        ["sweep", "--config", str(config), "--state", "single-fock", "--phi", "0.2",
         "--out", str(out2)]
    ) == 0
    rows2 = parse_csv(out2.read_text())
    assert [row["N"] for row in rows2] == ["4", "5", "6", "7", "8"]
    assert all(float(row["phi"]) == 0.2 for row in rows2)


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("states = noon\n")
    assert main(["sweep", "--config", str(bad_key), "--n-min", "2"]) == 2
    assert "unknown config key" in capsys.readouterr().err

    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("state_label noon\n")
    assert main(["sweep", "--config", str(bad_line), "--n-min", "2"]) == 2

    assert main(["sweep", "--config", str(tmp_path / "missing.cfg"), "--n-min", "2"]) == 2


def test_invalid_argument_exit_codes(capsys):
    assert main(["sweep", "--state", "noon"]) == 2
    assert "--n-min" in capsys.readouterr().err
    assert main(["sweep", "--n-min", "2"]) == 2
    assert main(["sweep", "--state", "noon", "--n-min", "2", "--phi", "0.1", "--limit"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["sweep", "--state", "noon", "--n-min", "2", "--alpha", "0.5"]) == 2
    assert main(["sweep", "--state", "noon", "--n-min", "5", "--n-max", "2"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--state", "squeezed", "--n-min", "2"])
    assert excinfo.value.code == 2


def test_wrong_parity_outside_a_sweep_is_not_called_skipped(capsys):
    assert main(["expectation", "--state", "yuen", "--n-min", "8"]) == 2
    assert capsys.readouterr().err == "error: yuen is defined for odd N; N=8\n"


def test_non_finite_phi_exit_code(capsys):
    assert main(["expectation", "--state", "noon", "--n-min", "4", "--phi", "nan"]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["sweep", "--state", "coherent", "--n-min", "1", "--n-max", "3",
                 "--phi", "inf"]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_oversized_coherent_state_exit_code(capsys):
    # nbar = 1e300 would need a Poisson scan of 4e151 photon numbers
    nbar = str(10**300)
    tracemalloc.start()
    try:
        code = main(["sweep", "--state", "coherent", "--n-min", nbar,
                     "--n-max", nbar, "--phi", "0.1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert captured.out == ""
    assert peak < 8 * 2**20


def test_oversized_eigensystem_exit_code(capsys):
    # the dual-Fock state itself is one amplitude; its fixed-phi terms
    # would read one J_y column over 2^24 + 1 rows, past the projection's
    # work bound, and are refused before anything is allocated
    tracemalloc.start()
    try:
        code = main(["sweep", "--state", "dual-fock", "--n-min", "16777216", "--phi", "0.1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert captured.out == ""
    assert peak < 2**20


@pytest.mark.parametrize("n", [2**24, 10**8])
def test_noon_points_hold_two_terms_at_any_n(n, capsys):
    # NOON stores rows 0 and N inside the interferometer, and a fixed-phi
    # point holds one term per stored row; its limit needs no terms at all
    phi = 0.1
    tracemalloc.start()
    try:
        code = main(["sweep", "--state", "noon", "--n-min", str(n), "--phi", repr(phi)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    (row,) = parse_csv(capsys.readouterr().out)
    # cos(N (phi + pi/2)), with N pi/2 reduced to whole quarter turns first:
    # N (phi + pi/2) in floats is off by about N x 2e-16
    want = math.cos(n * phi + (n % 4) * math.pi / 2.0)
    assert abs(float(row["expectation"]) - want) <= 1e-10
    assert float(row["delta_phi"]) * n == pytest.approx(1.0, rel=1e-9)
    assert peak < 2**20
    assert main(["sweep", "--state", "noon", "--n-min", str(n), "--limit"]) == 0
    (row,) = parse_csv(capsys.readouterr().out)
    assert float(row["delta_phi"]) * n == pytest.approx(1.0, rel=1e-12)


def test_dual_fock_point_past_the_dense_eigensystem_budget(tmp_path):
    # every column at 2j = 4100 would take 134 MB; the one stored row needs one
    out = tmp_path / "dual.csv"
    assert main(["sweep", "--state", "dual-fock", "--n-min", "4100", "--phi", "0.3",
                 "--out", str(out)]) == 0
    (row,) = parse_csv(out.read_text())
    assert int(row["N"]) == 4100 and abs(float(row["expectation"])) <= 1.0


def test_dense_noon_point_memory_is_bounded():
    # every J_y column of the dense at-input 2j = 4700 block is folded into
    # the projection as its rows arrive, so no 4701 x 4701 eigenvector
    # matrix is held (the process peaked near 280 MB); the peak is about
    # 4.2 MiB
    state = noon_input(4700)
    tracemalloc.start()
    try:
        (result,) = phase_uncertainties([state], 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(result.expectation - math.cos(4700 * 0.3)) <= 1e-10
    assert peak < 8 * 2**20


def test_dense_noon_point_past_the_old_eigensystem_budget():
    # every column at 2j = 6000 would take 288 MB; the folded projection
    # of the dense at-input block visits 3001^2 column-rows, within the
    # 2^24 work bound
    (result,) = phase_uncertainties([noon_input(6000)], 0.3)
    assert abs(result.expectation - math.cos(6000 * 0.3)) <= 1e-10
    assert result.delta_phi * 6000 == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("label", ["noon", "combined"])
def test_inside_families_match_the_oracle(label, tmp_path):
    # the CLI builds both families inside the interferometer; the oracle
    # rotates their Fock vectors by dense matrix exponentials
    lo = 2 if label == "combined" else 1
    for phi in (0.1, 0.4, 1.3):
        out = tmp_path / f"{label}_{phi}.csv"
        assert main(["sweep", "--state", label, "--n-min", str(lo), "--n-max", "12",
                     "--phi", repr(phi), "--out", str(out)]) == 0
        for row in parse_csv(out.read_text()):
            state = build_state(label, int(row["N"]), CombinedStateParams())
            want = bruteforce_parity_expectation(state, phi)
            assert float(row["expectation"]) == pytest.approx(want, rel=0.0, abs=1e-12)


def test_noon_point_at_a_hundred_thousand_photons(capsys):
    # two stored rows; the at-input vector's fold of every J_y column was
    # refused at this size by the work bound
    n, phi = 100_000, 0.1
    tracemalloc.start()
    try:
        assert main(["sweep", "--state", "noon", "--n-min", str(n), "--phi", repr(phi)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (row,) = parse_csv(capsys.readouterr().out)
    assert abs(float(row["expectation"]) - math.cos(n * (phi + math.pi / 2.0))) <= 1e-10
    assert float(row["delta_phi"]) * n == pytest.approx(1.0, rel=1e-9)
    assert peak < 2**20


def test_combined_point_past_the_dense_work_bound(capsys):
    # 2j = 8200 at input would fold 4101^2 column-rows, past 2^24; inside
    # the interferometer the state stores its 4101 even rows
    n, params = 8200, CombinedStateParams()
    assert main(["sweep", "--state", "combined", "--n-min", str(n), "--phi", "0.3"]) == 0
    (row,) = parse_csv(capsys.readouterr().out)
    state = build_state("combined", n, params)
    probs = np.abs(state.amplitudes) ** 2
    mu = 0.5 * n - state.rows
    spread = math.sqrt(probs @ mu**2 - (probs @ mu) ** 2)
    assert abs(float(row["expectation"])) <= 1.0
    assert float(row["delta_phi"]) >= 0.5 / spread


def test_limits_and_noon_states_need_no_eigensystem(monkeypatch, tmp_path):
    # _run_columns is the J_y recurrence behind every eigenvector and projection
    def refuse(two_js, seeds, take):
        raise AssertionError(f"J_y recurrence run for 2j = {two_js}")

    monkeypatch.setattr(wigner, "_run_columns", refuse)
    for lo, hi in ((1, 200), (400, 420)):
        out = tmp_path / f"noon_{lo}.csv"
        assert main(["sweep", "--state", "noon", "--n-min", str(lo), "--n-max", str(hi),
                     "--limit", "--out", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert [int(row["N"]) for row in rows] == list(range(lo, hi + 1))
    assert main(["figure", "fig4", "--out", str(tmp_path / "fig4.csv")]) == 0
    assert main(["table", "--out", str(tmp_path / "table.csv")]) == 0


def test_fig3_and_row_zero_sweeps_need_no_eigensystem(monkeypatch, tmp_path):
    # fig3's quoted-norm corner is an edge-column entry, and every coherent
    # and single-Fock block is read as cos(phi)^(2j) at a fixed phi
    def refuse(two_js, seeds, take):
        raise AssertionError(f"J_y recurrence run for 2j = {two_js}")

    monkeypatch.setattr(wigner, "_run_columns", refuse)
    assert main(["figure", "fig3", "--out", str(tmp_path / "fig3.csv")]) == 0
    for label, phi, hi in (("coherent", "0.3", 150), ("single-fock", "1.3", 300)):
        out = tmp_path / f"{label}.csv"
        assert main(["sweep", "--state", label, "--phi", phi, "--n-min", "1",
                     "--n-max", str(hi), "--out", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert [int(row["N"]) for row in rows] == list(range(1, hi + 1))


def test_noon_and_combined_point_sweeps_need_no_eigensystem(monkeypatch, tmp_path):
    # both families are built inside the interferometer, where a fixed-phi
    # point reads the stored rows through Q
    def refuse(two_js, seeds, take):
        raise AssertionError(f"J_y recurrence run for 2j = {two_js}")

    monkeypatch.setattr(wigner, "_run_columns", refuse)
    for label, lo, hi, step in (("noon", 1, 250, 1), ("combined", 2, 1000, 2)):
        out = tmp_path / f"{label}.csv"
        assert main(["sweep", "--state", label, "--phi", "0.3", "--n-min", str(lo),
                     "--n-max", str(hi), "--out", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert [int(row["N"]) for row in rows] == list(range(lo, hi + 1, step))


def test_coherent_point_past_the_old_padded_budget(tmp_path):
    # nbar = 7012 needed 2^23 + 1487 zero-padded amplitudes; it stores 1195
    out = tmp_path / "coherent.csv"
    assert main(["sweep", "--state", "coherent", "--n-min", "7012", "--phi", "0.01",
                 "--out", str(out)]) == 0
    (row,) = parse_csv(out.read_text())
    assert float(row["expectation"]) == pytest.approx(
        closed_form_expectation("coherent", 7012.0, 0.01), rel=1e-10
    )


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def explode(states):
        raise NumericalLimitError("ladder did not settle")

    monkeypatch.setattr("mzparity.cli.detection.phase_uncertainty_limits", explode)
    assert main(["sweep", "--state", "noon", "--n-min", "2", "--limit"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_numerical_failure_mid_batch_exit_code(monkeypatch, capsys):
    # fig3 takes its limits in batches; one state with no consistent
    # leading orders in the middle of a batch still fails the command
    taylor_series = detection._taylor_series
    batches = []

    def corrupt(states):
        series, bounds = taylor_series(states)
        middle = len(states) // 2
        batches.append((len(states), states[middle].label))
        series[middle] = 0.0
        series[middle, :2] = 1.0, 0.1  # 1 - f^2 starts at order 1, f' at order 0
        return series, bounds

    monkeypatch.setattr(detection, "_taylor_series", corrupt)
    assert main(["figure", "fig3"]) == 3
    err = capsys.readouterr().err
    assert len(batches) == 1 and batches[0][0] > 2
    assert "numerical failure" in err
    assert f"phase uncertainty limit for {batches[0][1]!r}: no consistent leading orders" in err


def test_limit_sweep_memory_is_bounded_by_its_chunks():
    # The combined states N = 2..3000 store 1.1 million amplitudes in all,
    # on their even rows inside the interferometer; the sweep takes their
    # limits in chunks of _CHUNK_ENTRIES flat Taylor entries and peaks
    # near 1.9 MiB.
    params = CombinedStateParams()
    tracemalloc.start()
    try:
        records = run_sweep(SweepConfig("combined", 2, 3000, phi_mode="limit",
                                        combined_params=params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [record.n_total for record in records] == list(range(2, 3001, 2))
    for record in records[::50]:
        state = build_state("combined", record.n_total, params)
        probs = np.abs(state.amplitudes) ** 2
        mu = 0.5 * record.n_total - state.rows
        bound = 0.5 / math.sqrt(probs @ mu**2 - (probs @ mu) ** 2)
        assert math.isfinite(record.delta_phi)
        assert record.delta_phi >= bound * (1.0 - 1e-12)
    assert peak < 3 * 2**20


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["sweep", "--state", "noon", "--n-min", "2", "--out", str(target)]) == 2


def test_run_sweep_api_matches_library():
    config = SweepConfig("dual-fock", 4, 4, phi_mode="limit")
    (record,) = run_sweep(config)
    assert record.delta_phi == phase_uncertainty_limit(dual_fock_input(2))
    assert record.phi is None


def _berry_wiseman_bound(n):
    """1/(2 Delta J_z) from the state's amplitudes C_mu, mu = N/2 ... -N/2."""
    probs = np.abs(berry_wiseman_internal(n).block(n)) ** 2
    mu = 0.5 * n - np.arange(n + 1)
    return 0.5 / math.sqrt(probs @ mu**2 - (probs @ mu) ** 2)


def test_berry_wiseman_limit_is_the_quantum_cramer_rao_bound():
    records = run_sweep(SweepConfig("berry-wiseman", 1, 200, phi_mode="limit"))
    records += run_sweep(SweepConfig("berry-wiseman", 1000, 1000, phi_mode="limit"))
    assert [record.n_total for record in records] == list(range(1, 201)) + [1000]
    for record in records:
        bound = _berry_wiseman_bound(record.n_total)
        assert record.delta_phi == pytest.approx(bound, rel=1e-13, abs=0.0)


def test_berry_wiseman_bias_is_an_exact_quarter_turn(monkeypatch, capsys):
    # the pi/2 bias in front of the limit must be exact: phases off by
    # mu x 1e-16 leave a first Taylor coefficient of 2e-12 of its bound at
    # this N, 8e-12 at 2^20, and past the limit's 1e-11 threshold from 2^21
    seen = []
    original = detection.phase_uncertainty_limits

    def recording(states):
        seen.extend(states)
        return original(states)

    monkeypatch.setattr(detection, "phase_uncertainty_limits", recording)
    n = 2**18
    assert main(["sweep", "--state", "berry-wiseman", "--n-min", str(n), "--limit"]) == 0
    (row,) = parse_csv(capsys.readouterr().out)
    assert float(row["delta_phi"]) == pytest.approx(_berry_wiseman_bound(n), rel=1e-12, abs=0.0)
    (series,), (bounds,) = detection._taylor_series(seen)
    assert abs(series[1]) <= 1e-15 * bounds[1]


def test_oversized_berry_wiseman_state_exit_code(capsys):
    # the state stores all N + 1 rows; past 2^23 it is refused before
    # anything is allocated
    tracemalloc.start()
    try:
        code = main(["sweep", "--state", "berry-wiseman", "--n-min", "8388608", "--phi", "0.3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert captured.out == ""
    assert peak < 2**20


def test_cli_outputs_need_no_closed_form(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI evaluated a quoted closed form")

    patched = [name for name in dir(detection) if name.startswith("closed_form_")]
    assert len(patched) >= 5
    for name in patched:
        monkeypatch.setattr(detection, name, refuse)
    fig4, table, sweep = (tmp_path / name for name in ("fig4.csv", "table.csv", "bw.csv"))
    assert main(["figure", "fig4", "--out", str(fig4)]) == 0
    assert main(["table", "--out", str(table)]) == 0
    assert main(
        ["sweep", "--state", "berry-wiseman", "--n-min", "1", "--n-max", "60",
         "--limit", "--out", str(sweep)]
    ) == 0
    for row in parse_csv(fig4.read_text()):
        want = _berry_wiseman_bound(int(row["N"]))
        assert float(row["berry_wiseman"]) == pytest.approx(want, rel=1e-13, abs=0.0)
    (row,) = [row for row in parse_csv(table.read_text()) if row["state_label"] == "berry-wiseman"]
    assert float(row["computed"]) == pytest.approx(_berry_wiseman_bound(8), rel=1e-13, abs=0.0)
    assert len(parse_csv(sweep.read_text())) == 60


def test_table_contents(tmp_path):
    out = tmp_path / "table.csv"
    rows = reproduce_table(str(out))
    assert [row["row"] for row in rows] == list(range(1, 9))
    by_label = {row["state_label"]: row for row in rows}

    assert by_label["coherent"]["abs_diff"] < 1e-4
    for label in ("single-fock", "dual-fock", "yurke", "noon"):
        assert by_label[label]["abs_diff"] < 1e-6
    assert by_label["noon"]["computed"] == pytest.approx(0.125, rel=1e-9)
    assert by_label["modified-yuen"]["n_total"] == 9
    assert by_label["modified-yuen"]["computed"] == pytest.approx(0.2, rel=1e-6)
    assert "optimal-povm reference" in by_label["berry-wiseman"]["note"]

    shot = 1.0 / math.sqrt(8.0)
    for label in ("modified-yuen", "pezze-smerzi", "berry-wiseman"):
        assert by_label[label]["computed"] < shot

    parsed = parse_csv(out.read_text())
    assert len(parsed) == 8
    assert parsed[3]["fock_state"] == "(|4,4>+|5,3>)/sqrt2"
    assert float(parsed[7]["computed"]) == by_label["noon"]["computed"]


def test_fig2_amplitudes(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 101
    assert rows[0]["two_mu"] == "100"
    assert rows[-1]["two_mu"] == "-100"
    mags = [float(row["abs"]) for row in rows]
    assert sum(m * m for m in mags) == pytest.approx(1.0, abs=1e-10)
    for left, right in zip(mags, reversed(mags)):
        assert left == pytest.approx(right, abs=1e-12)


def test_fig3_curves(fig3_rows):
    assert len(fig3_rows) == 50
    assert [int(row["N"]) for row in fig3_rows] == list(range(2, 101, 2))
    for row in fig3_rows:
        n = int(row["N"])
        assert float(row["shot_noise"]) == pytest.approx(1.0 / math.sqrt(n))
        assert float(row["heisenberg"]) == pytest.approx(1.0 / n)


def test_fig3_theta_zero_and_pi_coincide_at_odd_half_n(fig3_rows):
    # for N = 2 mod 4 the interference term vanishes and the theta = 0 and
    # theta = pi curves are identical
    for row in fig3_rows:
        if int(row["N"]) % 4 == 2:
            zero, pi = float(row["combined_12_0"]), float(row["combined_12_pi"])
            assert zero == pytest.approx(pi, rel=1e-9)


def test_fig3_theta_zero_and_pi_agree_exactly_at_odd_half_n(fig3_rows):
    # the exact limits coincide to roundoff, not only to the 1e-9 above
    for row in fig3_rows:
        if int(row["N"]) % 4 == 2:
            zero, pi = float(row["combined_12_0"]), float(row["combined_12_pi"])
            assert zero == pytest.approx(pi, rel=1e-12)


def test_fig3_theta_zero_and_pi_gap_decays(fig3_rows):
    # at N = 0 mod 4 the two curves differ by a slowly shrinking factor;
    # both stay sub-shot-noise from N = 8 on
    ratios = {}
    for row in fig3_rows:
        n = int(row["N"])
        zero, pi = float(row["combined_12_0"]), float(row["combined_12_pi"])
        if n % 4 == 0:
            ratios[n] = max(zero, pi) / min(zero, pi)
        if n >= 8:
            shot = float(row["shot_noise"])
            assert zero < shot and pi < shot
    assert ratios[4] > 3.0
    assert all(ratios[n] > 1.05 for n in ratios)
    assert ratios[100] < ratios[48] < ratios[8] < ratios[4]


@pytest.mark.xfail(
    strict=True,
    reason="quoted figure claims the theta = 0 and theta = pi curves overlap "
    "within 5% everywhere; the operator algebra (confirmed by the oracle) "
    "separates them at every N = 0 mod 4",
)
def test_fig3_theta_curves_overlap_everywhere_as_quoted(fig3_rows):
    for row in fig3_rows:
        zero, pi = float(row["combined_12_0"]), float(row["combined_12_pi"])
        assert abs(zero - pi) / min(zero, pi) < 0.05


def test_fig3_dual_fock_column_matches_sweep(fig3_rows):
    row = next(r for r in fig3_rows if r["N"] == "10")
    config = SweepConfig("dual-fock", 10, 10, phi_mode="limit")
    (record,) = run_sweep(config)
    assert float(row["dual_fock"]) == record.delta_phi


def test_fig4_layout_and_bounds(fig4_rows):
    assert len(fig4_rows) == 99
    for row in fig4_rows:
        n = int(row["N"])
        heisenberg = float(row["heisenberg"])
        assert row["berry_wiseman"] != ""
        if n % 2 == 1:
            assert row["pezze_smerzi"] == ""
            assert row["modified_yuen"] != ""
            assert float(row["modified_yuen"]) >= heisenberg * (1.0 - 1e-9)
        else:
            assert row["modified_yuen"] == ""
            assert float(row["pezze_smerzi"]) >= heisenberg * (1.0 - 1e-9)
        assert float(row["berry_wiseman"]) >= heisenberg * (1.0 - 1e-9)
        assert float(row["bw_povm"]) == pytest.approx(
            math.tan(math.pi / (n + 2.0)) if n != 2 else 1.0
        )


def test_fig4_known_small_values(fig4_rows):
    first = fig4_rows[0]
    assert first["N"] == "2"
    assert first["pezze_smerzi"] == "inf"
    second = fig4_rows[1]
    assert float(second["modified_yuen"]) == pytest.approx(0.5, rel=1e-6)


def test_unknown_figure_id():
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", "fig9"])
    assert excinfo.value.code == 2


def test_cli_loads_no_optional_dependency(tmp_path):
    # numpy is the only runtime dependency: importing the package and
    # writing the table, in a fresh interpreter, loads none of the test
    # extras or the benchmark
    table = tmp_path / "table.csv"
    script = (
        "import sys\n"
        "import mzparity\n"
        "from mzparity import cli\n"
        f"assert cli.main(['table', '--out', {str(table)!r}]) == 0\n"
        "print(sorted({'mpmath', 'scipy', 'perfbench'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert parse_csv(table.read_text())
