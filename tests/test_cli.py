"""Tests for the command-line front end."""
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sclrom
from sclrom import (
    FitOptions,
    SnapshotHistory,
    almost_periodic_history,
    fit,
    periodic_history,
    predict,
    read_model,
    read_snapshots,
    write_model,
    write_snapshots,
)
from sclrom.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    def test_simulate_fit_verify(self, capsys, tmp_path):
        h = str(tmp_path / "h.bin")
        m = str(tmp_path / "m.bin")
        code, out, _ = run(capsys, "simulate", "periodic", "--n", "64", "--T", "8",
                           "--seed", "1", "--out", h)
        assert code == 0
        code, out, _ = run(capsys, "fit", h, "--mode", "monomial", "--eps", "1e-10",
                           "--out", m)
        assert code == 0
        assert "target_met = yes" in out
        code, out, _ = run(capsys, "verify", m, h)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("max{||K U^k T x0 - xk|| | 0<=k<8} = ")
        assert lines[0].endswith("<= eps")
        assert lines[1] == "For m = 8"
        assert lines[2] == "For p = 8"
        assert lines[3] == "For n = 64"
        assert lines[4].startswith("For eps = ")
        residual = float(lines[0].split(" = ")[1].split()[0])
        assert residual <= 1e-10

    def test_stdout_is_byte_identical_across_runs(self, capsys, tmp_path):
        transcripts = []
        for _ in range(2):
            h = str(tmp_path / "h.bin")
            m = str(tmp_path / "m.bin")
            chunks = []
            for argv in (
                ["simulate", "periodic", "--n", "32", "--T", "4", "--seed", "7", "--out", h],
                ["fit", h, "--mode", "lsq", "--eps", "1e-10", "--out", m],
                ["verify", m, h],
            ):
                code = run_cli(argv)
                assert code == 0
                chunks.append(capsys.readouterr().out)
            transcripts.append("".join(chunks))
        assert transcripts[0] == transcripts[1]

    def test_verify_failure_exits_one(self, capsys, tmp_path):
        noisy = str(tmp_path / "noisy.bin")
        m = str(tmp_path / "m.bin")
        code, _, _ = run(capsys, "simulate", "almost-periodic", "--n", "32", "--T", "4",
                         "--eps-pert", "1e-2", "--horizon", "8", "--seed", "3",
                         "--out", noisy)
        assert code == 0
        code, _, _ = run(capsys, "fit", noisy, "--mode", "monomial", "--period", "4",
                         "--out", m)
        assert code == 0
        code, out, _ = run(capsys, "verify", m, noisy, "--eps", "1e-12")
        assert code == 1
        assert "> eps" in out

    def test_wave_snapshot_count(self, capsys, tmp_path):
        w = str(tmp_path / "w.bin")
        code, out, _ = run(capsys, "simulate", "wave", "--nx", "100", "--nt", "40",
                           "--out", w)
        assert code == 0
        history = read_snapshots(w)
        assert history.n == 100
        assert history.m == 41

    def test_predict_roundtrip(self, capsys, tmp_path):
        h = str(tmp_path / "h.bin")
        m = str(tmp_path / "m.bin")
        p = str(tmp_path / "p.bin")
        run(capsys, "simulate", "periodic", "--n", "32", "--T", "4", "--seed", "2",
            "--out", h)
        run(capsys, "fit", h, "--out", m)
        code, _, _ = run(capsys, "predict", m, "--t0", "0", "--t1", "4", "--out", p)
        assert code == 0
        predictions = read_snapshots(p)
        training = read_snapshots(h)
        np.testing.assert_allclose(predictions.data, training.data, atol=1e-10)

    def test_predict_window_past_the_period_is_bitwise(self, capsys, tmp_path):
        """Steps 3 .. 37 wrap nine times past the period 4 of a least-squares model
        fitted on 12 steps; every column read back equals predict on the loaded
        model bitwise."""
        h, m, p = (str(tmp_path / name) for name in ("h.bin", "m.bin", "p.bin"))
        run(capsys, "simulate", "almost-periodic", "--n", "32", "--T", "4", "--eps-pert",
            "1e-3", "--horizon", "12", "--seed", "2", "--out", h)
        run(capsys, "fit", h, "--mode", "lsq", "--period", "4", "--out", m)
        code, _, _ = run(capsys, "predict", m, "--t0", "3", "--t1", "37", "--out", p)
        assert code == 0
        written = read_snapshots(p).data
        model = read_model(m)
        assert model.period == 4 and written.shape == (32, 34)
        for j, t in enumerate(range(3, 37)):
            assert written[:, j].tobytes() == predict(model, t).tobytes(), t

    def test_export_plot(self, capsys, tmp_path):
        h = str(tmp_path / "h.bin")
        m = str(tmp_path / "m.bin")
        csv = tmp_path / "plot.csv"
        run(capsys, "simulate", "periodic", "--n", "16", "--T", "3", "--seed", "2",
            "--out", h)
        run(capsys, "fit", h, "--out", m)
        code, _, _ = run(capsys, "export-plot", h, "--model", m, "--components", "0,1",
                         "--out", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "step,residual,state0,state1,model0,model1"
        assert len(lines) == 4

    def test_export_plot_columns_are_bitwise_predictions(self, capsys, tmp_path):
        # 20 steps of a period-6 model: the replay window wraps past the period
        _assert_plot_is_bitwise_predictions(capsys, tmp_path, 24, "6", 20)

    def test_export_plot_of_one_block_is_bitwise_predictions(self, capsys, tmp_path):
        # 20 steps of a 20-step model: the window is one block's fresh
        # states, which the residuals overwrite after the plotted copy
        _assert_plot_is_bitwise_predictions(capsys, tmp_path, 48, "20", 20)


def _assert_plot_is_bitwise_predictions(capsys, tmp_path, n, period, steps):
    """export-plot of an almost-periodic history of n rows and ``steps``
    steps, fitted with ``--period``: every line is the step, the gap, and
    the plotted entries of the history and of predict, bit for bit."""
    from sclrom.persistence import format_complex_entry

    h, m, csv = tmp_path / "h.bin", tmp_path / "m.bin", tmp_path / "plot.csv"
    run(capsys, "simulate", "almost-periodic", "--n", str(n), "--T", "6", "--horizon", str(steps),
        "--eps-pert", "1e-3", "--seed", "4", "--out", str(h))
    run(capsys, "fit", str(h), "--mode", "lsq", "--period", period, "--out", str(m))
    code, _, _ = run(capsys, "export-plot", str(h), "--model", str(m),
                     "--components", "3,0,3", "--out", str(csv))
    assert code == 0
    data, model = read_snapshots(h).data, read_model(m)
    lines = csv.read_text().splitlines()[1:]
    assert len(lines) == steps
    for t, line in enumerate(lines):
        state = predict(model, t)
        gap = complex(np.linalg.norm(state - data[:, t]))
        expected = [str(t), format_complex_entry(gap)]
        expected += [format_complex_entry(data[i, t]) for i in (3, 0, 3)]
        expected += [format_complex_entry(state[i]) for i in (3, 0, 3)]
        assert line.split(",") == expected, t


class TestLogStyleBanner:
    def test_verify_banner_block(self, capsys, tmp_path):
        h = str(tmp_path / "h.bin")
        m = str(tmp_path / "m.bin")
        run(capsys, "simulate", "periodic", "--n", "32", "--T", "4", "--seed", "1",
            "--out", h)
        run(capsys, "fit", h, "--out", m)
        code, out, _ = run(capsys, "verify", m, h, "--log-style", "paper")
        assert code == 0
        banner = "-" * 61
        lines = out.splitlines()
        assert lines[0] == banner
        assert lines[1] == " Verifying circular mimetic constraints for C[U[v1|vm]]:"
        assert lines[2] == banner
        assert lines[3] == "Verification passed..."
        assert lines[5] == banner
        assert lines[10] == banner

    def test_simulate_banner(self, capsys, tmp_path):
        w = str(tmp_path / "w.bin")
        code, out, _ = run(capsys, "simulate", "wave", "--nx", "20", "--nt", "8",
                           "--dt", "0.05", "--out", w, "--log-style", "paper")
        assert code == 0
        assert out.splitlines()[1] == "                     Running simulation:"


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestErrorPaths:
    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "no.bin"), str(tmp_path / "no2.bin"))
        assert code == 2
        assert err.strip() != ""

    def test_bad_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "simulate", "periodic", "--n", "not-a-number",
                         "--T", "4", "--seed", "0", "--out", "x.bin")
        assert code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_dimension_error_exits_two(self, capsys, tmp_path):
        out = str(tmp_path / "h.bin")
        code, _, err = run(capsys, "simulate", "periodic", "--n", "4", "--T", "8",
                           "--seed", "0", "--out", out)
        assert code == 2
        assert "n >= 2" in err

    def test_truncated_binary_header_exits_two(self, capsys, tmp_path):
        snap = tmp_path / "h.bin"
        snap.write_bytes(b"SCLROM01abc")
        code, _, err = run(capsys, "fit", str(snap), "--out", str(tmp_path / "m.bin"))
        assert code == 2
        assert "header truncated" in err
        assert "Traceback" not in err

    def test_non_finite_csv_exits_two(self, capsys, tmp_path):
        snap = tmp_path / "h.csv"
        snap.write_text("2,1\n1\n1e999\n")
        code, _, err = run(capsys, "fit", str(snap), "--out", str(tmp_path / "m.bin"))
        assert code == 2
        assert "non-finite" in err

    @pytest.mark.parametrize("text", ["1,-3\n1\n", "1,99999999999\n1\n"])
    def test_bad_csv_header_exits_two(self, capsys, tmp_path, text):
        snap = tmp_path / "h.csv"
        snap.write_text(text)
        code, _, err = run(capsys, "fit", str(snap), "--out", str(tmp_path / "m.bin"))
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, argv", [
        ("fit", ["fit", "{h}", "--eps", "-1"]),
        ("simulate", ["simulate", "wave", "--nt", "0"]),
        ("simulate", ["simulate", "wave", "--c", "0"]),
        ("simulate", ["simulate", "periodic", "--n", "8", "--T", "2", "--seed", "-1"]),
        ("simulate", ["simulate", "almost-periodic", "--n", "8", "--T", "2", "--seed", "-1",
                      "--eps-pert", "0.1", "--horizon", "4"]),
        ("simulate", ["simulate", "wave", "--profile", "gaussian", "--width", "0"]),
        ("simulate", ["simulate", "wave", "--profile", "gaussian", "--width", "-0.1"]),
        ("simulate", ["simulate", "wave", "--profile", "gaussian", "--width", "inf"]),
        ("simulate", ["simulate", "wave", "--L", "1e-195", "--nt", "7", "--nx", "8"]),
        ("simulate", ["simulate", "wave", "--L", "1e200"]),
        ("simulate", ["simulate", "wave", "--c", "1e200"]),
        ("simulate", ["simulate", "wave", "--profile", "gaussian", "--width", "5e-227"]),
        ("simulate", ["simulate", "wave", "--profile", "gaussian", "--center", "1e300"]),
        ("simulate", ["simulate", "wave", "--profile", "gaussian", "--center", "inf"]),
        ("simulate", ["simulate", "wave", "--dt", "nan"]),
        ("simulate", ["simulate", "wave", "--c", "nan"]),
        ("simulate", ["simulate", "wave", "--L", "nan"]),
        ("simulate", ["simulate", "wave", "--mode-k", str(10**400)]),
        ("simulate", ["simulate", "wave", "--mode-k", "0"]),
    ], ids=["fit-eps", "wave-nt", "wave-c", "periodic-seed", "almost-periodic-seed",
            "wave-width-zero", "wave-width-negative", "wave-width-inf", "wave-tiny-L",
            "wave-huge-L", "wave-huge-c", "wave-width-tiny", "wave-center-far",
            "wave-center-inf", "wave-dt-nan", "wave-c-nan", "wave-L-nan",
            "wave-mode-k-huge", "wave-mode-k-zero"])
    def test_bad_argv_value_exits_two_with_one_line(self, capsys, tmp_path, command, argv):
        h = tmp_path / "h.bin"
        write_snapshots(periodic_history(16, 4, seed=1), h)
        argv = [a.replace("{h}", str(h)) for a in argv] + ["--out", str(tmp_path / "out.bin")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"sclrom {command}: "), err

    @pytest.mark.parametrize("command, argv, name", [
        ("simulate", ["simulate", "periodic", "--n", "8", "--T", "2", "--seed", "1",
                      "--horizon", str(10**20), "--out", "{out}"], "n * horizon"),
        ("simulate", ["simulate", "almost-periodic", "--n", "8", "--T", "2", "--seed", "1",
                      "--eps-pert", "0.1", "--horizon", str(10**20), "--out", "{out}"],
         "n * horizon"),
        ("simulate", ["simulate", "periodic", "--n", str(10**20), "--T", "2", "--seed", "1",
                      "--out", "{out}"], "n * period"),
        ("simulate", ["simulate", "wave", "--nt", str(10**20), "--out", "{out}"],
         "nx * (nt + 1)"),
        ("simulate", ["simulate", "wave", "--nx", str(10**20), "--out", "{out}"],
         "nx * (nt + 1)"),
        ("predict", ["predict", "{m}", "--t1", str(10**20), "--out", "{out}"], "n * (t1 - t0)"),
        ("fit", ["fit", "{h}", "--eps", "nan", "--out", "{out}"], "epsilon"),
        ("fit", ["fit", "{h}", "--rank-tol", "-1", "--out", "{out}"], "rank_tol"),
        ("fit", ["fit", "{h}", "--rank-tol", "nan", "--out", "{out}"], "rank_tol"),
        ("fit", ["fit", "{h}", "--rank-tol", "1", "--out", "{out}"], "rank_tol"),
        ("verify", ["verify", "{m}", "{h}", "--eps", "nan"], "eps"),
        ("verify", ["verify", "{m}", "{h}", "--eps", "-1"], "eps"),
        ("simulate", ["simulate", "almost-periodic", "--n", "8", "--T", "2", "--seed", "1",
                      "--eps-pert", "nan", "--horizon", "4", "--out", "{out}"],
         "perturbation size"),
        ("simulate", ["simulate", "almost-periodic", "--n", "8", "--T", "2", "--seed", "1",
                      "--eps-pert", "inf", "--horizon", "4", "--out", "{out}"],
         "perturbation size"),
    ], ids=["periodic-horizon-huge", "almost-periodic-horizon-huge", "periodic-n-huge",
            "wave-nt-huge", "wave-nx-huge", "predict-t1-huge", "fit-eps-nan",
            "fit-rank-tol-negative", "fit-rank-tol-nan", "fit-rank-tol-one", "verify-eps-nan",
            "verify-eps-negative", "almost-periodic-eps-pert-nan", "almost-periodic-eps-pert-inf"])
    def test_bad_size_or_tolerance_exits_two_naming_it(self, capsys, tmp_path, command, argv,
                                                       name):
        """Each size here is beyond what numpy can allocate, so it is refused unallocated."""
        h, m = tmp_path / "h.bin", tmp_path / "m.bin"
        history = periodic_history(16, 4, seed=1)
        write_snapshots(history, h)
        write_model(fit(history)[0], m)
        paths = {"{h}": str(h), "{m}": str(m), "{out}": str(tmp_path / "out.bin")}
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"sclrom {command}: {name} "), err

    @pytest.mark.parametrize("frame", ["V", "W"])
    def test_overflowing_model_frame_fails_verify_quietly(self, capsys, tmp_path, frame):
        """The load checks overflow on an entry of 1e300 in V or W; no numpy warning
        precedes the error."""
        history = periodic_history(16, 4, seed=1)
        model, _ = fit(history, FitOptions(mode="monomial"))
        getattr(model.ohf, frame)[0, 0] = 1e300
        m, h = tmp_path / "m.bin", tmp_path / "h.bin"
        write_model(model, m)
        write_snapshots(history, h)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "verify", str(m), str(h))
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert err.count("\n") == 1 and err.startswith("sclrom verify: "), err

    def test_export_plot_model_of_other_dimension_exits_two(self, capsys, tmp_path):
        m, h = tmp_path / "m.bin", tmp_path / "h.bin"
        write_model(fit(periodic_history(16, 4, seed=1))[0], m)
        write_snapshots(periodic_history(32, 4, seed=1), h)
        code, _, err = run(capsys, "export-plot", str(h), "--model", str(m),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("sclrom export-plot: "), err

    @pytest.mark.parametrize("command, argv, message", [
        ("verify", ["verify", "{absent}", "{absent}", "--eps", "-1"],
         "eps must be nonnegative, got -1.0"),
        ("predict", ["predict", "{absent}", "--t0", "5", "--t1", "3", "--out", "{out}"],
         "need 0 <= --t0 < --t1, got --t0 5 and --t1 3"),
        ("export-plot", ["export-plot", "{absent}", "--components", "x", "--out", "{out}"],
         "bad --components 'x'"),
        ("export-plot", ["export-plot", "{absent}", "--components", "0,-1", "--out", "{out}"],
         "bad --components '0,-1'"),
        ("export-plot", ["export-plot", "{h}", "--components", "0,16", "--out", "{out}"],
         "component 16 out of range for n=16"),
        ("export-plot", ["export-plot", "{h}", "--out", "{dir}"], "cannot write {dir}: "),
    ], ids=["verify-eps", "predict-window", "export-plot-components",
            "export-plot-negative-component", "export-plot-component-range",
            "export-plot-unwritable"])
    def test_bad_option_is_named_before_a_file_is_opened(self, capsys, tmp_path, command, argv,
                                                         message):
        """A bad option is named even when the file it would apply to is absent;
        each error is one stderr line from the CLI's one error handler."""
        h, out = tmp_path / "h.bin", tmp_path / "out.bin"
        write_snapshots(periodic_history(16, 4, seed=1), h)
        paths = {"{absent}": str(tmp_path / "absent.bin"), "{h}": str(h), "{out}": str(out),
                 "{dir}": str(tmp_path)}
        code, stdout, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1, err
        assert err.startswith(f"sclrom {command}: {message.replace('{dir}', str(tmp_path))}"), err
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, size", [
        ("predict", ["predict", "{m}", "--t1", "100000000000"], 32 + 16 * 16 * 10**11),
        ("simulate", ["simulate", "periodic", "--n", "16", "--T", "4", "--seed", "1",
                      "--horizon", str(10**12)], 32 + 16 * 16 * 10**12),
        ("simulate", ["simulate", "almost-periodic", "--n", "16", "--T", "4", "--seed", "1",
                      "--eps-pert", "0.1", "--horizon", str(10**12)], 32 + 16 * 16 * 10**12),
    ], ids=["predict-t1", "periodic-horizon", "almost-periodic-horizon"])
    def test_binary_output_beyond_free_space_exits_two_unwritten(self, capsys, tmp_path,
                                                                   command, argv, size):
        """A streamed binary file needs no memory of its size; a regular file
        must fit on its file system, which is checked before the first byte."""
        m, out = tmp_path / "m.bin", tmp_path / "o.bin"
        write_model(fit(periodic_history(16, 4, seed=1))[0], m)
        code, stdout, err = run(capsys, *[str(m) if a == "{m}" else a for a in argv],
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1, err
        assert err.startswith(f"sclrom {command}: cannot write {out}: {size} bytes needed, "), err
        assert out.stat().st_size == 0

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_overflowing_snapshots_fail_fit(self, capsys, tmp_path, scale):
        """v_1* v_1 overflows, so rho is not finite: fit writes no model."""
        h, m = tmp_path / "h.bin", tmp_path / "m.bin"
        write_snapshots(SnapshotHistory(periodic_history(16, 4, seed=1).data * scale), h)
        code, out, err = run(capsys, "fit", str(h), "--out", str(m))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("sclrom fit: ") and "rho" in err, err
        assert not m.exists()

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_overflowing_snapshots_fail_verify_quietly(self, capsys, tmp_path, scale):
        """The replay residuals overflow to inf, which fails verification, warning-free."""
        history = periodic_history(16, 4, seed=1)
        model, _ = fit(history, FitOptions(mode="monomial"))
        m, h = tmp_path / "m.bin", tmp_path / "h.bin"
        write_model(model, m)
        write_snapshots(SnapshotHistory(history.data * scale), h)
        code, out, err = run(capsys, "verify", str(m), str(h))
        assert code == 1 and err == ""
        assert " = inf > eps" in out.splitlines()[0]


# a child process may map at most this much, so that any allocation beyond
# it is refused at once rather than attempted
_CHILD_ADDRESS_SPACE = 512 * 2**20


def run_child(*argv, stdin=None):
    """Run the CLI in a child process with a capped address space."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(sclrom.__file__))}
    return subprocess.run([sys.executable, "-m", "sclrom.cli", *argv], input=stdin,
                          capture_output=True, env=env, preexec_fn=cap, timeout=120)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS and /dev/stdin as used here are Linux's")
class TestChildProcess:
    # a binary predict streams its window, so the CSV writer, which formats
    # the window whole, is the one that allocates it
    @pytest.mark.parametrize("command, argv", [
        ("predict", ["predict", "{m}", "--t1", "100000000000", "--format", "csv"]),
        ("simulate", ["simulate", "periodic", "--n", "100000000", "--T", "8", "--seed", "1"]),
        ("simulate", ["simulate", "wave", "--nx", "100000000"]),
    ], ids=["predict-t1", "periodic-n", "wave-nx"])
    def test_refused_allocation_exits_two_with_one_line(self, tmp_path, command, argv):
        m = tmp_path / "m.bin"
        write_model(fit(periodic_history(16, 4, seed=1))[0], m)
        argv = [str(m) if a == "{m}" else a for a in argv] + ["--out", str(tmp_path / "o.bin")]
        done = run_child(*argv)
        err = done.stderr.decode()
        assert done.returncode == 2 and done.stdout == b""
        assert err.count("\n") == 1, err
        assert err.startswith(f"sclrom {command}: out of memory: Unable to allocate "), err

    def test_fit_reads_snapshots_from_a_pipe(self, tmp_path):
        """A piped history gives the model file that the same file gives, at
        the same BLAS thread count: the coefficients (kappa/rho) carry the
        last bits of W, which depend on it."""
        h, m, from_file = tmp_path / "h.bin", tmp_path / "m.bin", tmp_path / "f.bin"
        write_snapshots(periodic_history(256, 64, seed=2), h)
        done = run_child("fit", "/dev/stdin", "--out", str(m), stdin=h.read_bytes())
        assert done.returncode == 0, done.stderr
        done = run_child("fit", str(h), "--out", str(from_file))
        assert done.returncode == 0, done.stderr
        assert m.read_bytes() == from_file.read_bytes()

    def test_folded_least_squares_fit_refuses_a_binary_pipe(self, tmp_path):
        """A least-squares fit with a period below the column count reads the
        columns twice, so a binary history on a pipe is refused, naming the
        rule, before anything is written. The same history from a file, a
        CSV history on a pipe (which is read whole), and a fit with the
        period equal to the column count are accepted."""
        h, csv, m = tmp_path / "h.bin", tmp_path / "h.csv", tmp_path / "m.bin"
        history = almost_periodic_history(64, 4, 1e-3, 30, seed=3).perturbed
        write_snapshots(history, h)
        write_snapshots(history, csv, format="csv")
        folded = ["--mode", "lsq", "--period", "4", "--out", str(m)]
        done = run_child("fit", "/dev/stdin", *folded, stdin=h.read_bytes())
        assert done.returncode == 2
        assert done.stderr.decode() == (
            "sclrom fit: a least-squares fit with period 4 below the 30 snapshots reads "
            "them twice, and this input can be read only once; write it to a file first\n")
        assert not m.exists()
        for argv, stdin in ((["fit", str(h), *folded], None),
                            (["fit", "/dev/stdin", *folded], csv.read_bytes()),
                            (["fit", "/dev/stdin", "--mode", "lsq", "--out", str(m)],
                             h.read_bytes())):
            done = run_child(*argv, stdin=stdin)
            assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "{m}", "{h}"],
        ["simulate", "periodic", "--n", "16", "--T", "4", "--seed", "1", "--out", "{o}"],
    ], ids=["verify", "simulate"])
    def test_closed_stdout_exits_two_with_one_line(self, tmp_path, argv):
        """The reader of stdout is gone before the report is printed: one
        stderr line, exit 2, and no traceback at interpreter exit either."""
        h, m = tmp_path / "h.bin", tmp_path / "m.bin"
        history = periodic_history(16, 4, seed=1)
        write_snapshots(history, h)
        write_model(fit(history)[0], m)
        paths = {"{h}": str(h), "{m}": str(m), "{o}": str(tmp_path / "o.bin")}
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sclrom.__file__))}
        try:
            done = subprocess.run([sys.executable, "-m", "sclrom.cli",
                                   *[paths.get(a, a) for a in argv]],
                                  stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_fd)
        assert done.returncode == 2
        assert done.stderr.decode() == f"sclrom {argv[0]}: standard output is closed\n"

    def test_fit_reads_snapshots_from_a_fifo(self, tmp_path):
        """simulate writes a named pipe that fit reads as it is written; the
        model equals the one fitted from a regular file. A monomial fit reads
        its columns once, whatever its period."""
        fifo, h = tmp_path / "h.fifo", tmp_path / "h.bin"
        os.mkfifo(fifo)
        simulate = ["simulate", "almost-periodic", "--n", "64", "--T", "4", "--eps-pert",
                    "1e-3", "--horizon", "1000", "--seed", "3", "--out"]
        fit_options = ["--mode", "monomial", "--period", "4", "--out"]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sclrom.__file__))}
        reader = subprocess.Popen([sys.executable, "-m", "sclrom.cli", "fit", str(fifo),
                                   *fit_options, str(tmp_path / "fifo-m.bin")], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            writer = run_child(*simulate, str(fifo))
            _, err = reader.communicate(timeout=120)
        finally:
            reader.kill()
        assert writer.returncode == 0, writer.stderr
        assert reader.returncode == 0, err
        assert run_child(*simulate, str(h)).returncode == 0
        assert run_child("fit", str(h), *fit_options, str(tmp_path / "m.bin")).returncode == 0
        assert (tmp_path / "fifo-m.bin").read_bytes() == (tmp_path / "m.bin").read_bytes()
