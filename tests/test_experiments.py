"""Experiment harness reproducibility, output files, and the CLI surface."""

import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from netlasso import cli
from netlasso.errors import InvalidConfigError
from netlasso.experiments import (
    ExperimentConfig,
    run_experiment,
    run_trial,
    summarize,
    trial_seeds,
    write_outputs,
)
from netlasso.generate import PlantedPartitionConfig


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "netlasso.cli", *args], capture_output=True, text=True
    )


SMALL_GEN = PlantedPartitionConfig(sizes=(4, 4), p_in=1.0, p_out=0.25, seed=0)


class TestHarness:
    def test_trial_seeds_deterministic_and_distinct(self):
        assert trial_seeds(5, 0) == trial_seeds(5, 0)
        assert trial_seeds(5, 0) != trial_seeds(5, 1)
        assert trial_seeds(5, 0) != trial_seeds(6, 0)

    def test_trial_reproducible_from_master_seed_and_index(self):
        cfg = ExperimentConfig(generator=SMALL_GEN, lam=0.2, trials=3, master_seed=9,
                               noise="laplace", sigma=0.05)
        a = run_trial(cfg, 2)
        b = run_trial(cfg, 2)
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.outcomes[0].result.x_hat, b.outcomes[0].result.x_hat)
        assert np.array_equal(a.outcomes[1].result.x_hat, b.outcomes[1].result.x_hat)
        assert a.outcomes[0].sample_nodes == b.outcomes[0].sample_nodes

    def test_strategies_share_noise_at_common_nodes(self):
        from netlasso.generate import NoiseConfig, noise_field, observe

        rng = np.random.default_rng(0)
        x_true = rng.normal(size=10)
        eps = noise_field(10, NoiseConfig(distribution="gaussian", sigma=0.2, seed=77))
        obs_a = observe(x_true, (1, 3, 5), eps)
        obs_b = observe(x_true, (3, 5, 9), eps)
        # shared nodes 3 and 5 carry identical labels under both samplings
        assert obs_a.y[1] == obs_b.y[0]
        assert obs_a.y[2] == obs_b.y[1]
        # recorded noise is exactly label minus truth
        assert np.array_equal(obs_a.eps, obs_a.y - x_true[[1, 3, 5]])

    def test_auto_lambda_uses_certificate(self):
        cfg = ExperimentConfig(generator=SMALL_GEN, lam="auto", cert_l=1.0,
                               trials=1, master_seed=0)
        tr = run_trial(cfg, 0)
        assert tr.cert_K is not None and tr.lam == pytest.approx(1.0 / tr.cert_K)

    def test_rejects_bad_lam_string(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(lam="automatic")

    def test_summary_fields(self):
        cfg = ExperimentConfig(generator=SMALL_GEN, lam=0.2, trials=2, master_seed=1)
        s = summarize(run_experiment(cfg))
        assert s["trials"] == 2
        assert 0 <= s["boundary_wins_tv"] <= 2
        assert s["all_converged"]


class TestOutputs:
    @pytest.fixture
    def outputs(self, tmp_path):
        cfg = ExperimentConfig(generator=SMALL_GEN, lam=0.2, trials=2, master_seed=4)
        trials = run_experiment(cfg)
        paths = write_outputs(tmp_path, trials)
        return trials, paths

    def test_results_csv_rows(self, outputs):
        trials, paths = outputs
        with open(paths["results"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 trials x 2 strategies
        assert {r["strategy"] for r in rows} == {"boundary", "uniform"}
        for r in rows:
            assert float(r["tv_error"]) >= 0.0

    def test_signals_csv_covers_all_nodes(self, outputs):
        trials, paths = outputs
        with open(paths["signals"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(t.graph.node_count for t in trials)

    def test_svg_has_exactly_three_series(self, outputs):
        _, paths = outputs
        svg = open(paths["plot"]).read()
        assert len(re.findall(r'class="series series-', svg)) == 3
        for key in ("true", "boundary", "uniform"):
            assert f'series-{key}' in svg

    def test_svg_values_match_csv(self, outputs):
        trials, paths = outputs
        svg = open(paths["plot"]).read()
        series = dict(re.findall(r'series series-(\w+)[^>]*data-values="([^"]+)"', svg))
        with open(paths["signals"]) as fh:
            rows = [r for r in csv.DictReader(fh) if r["trial"] == "0"]
        for column, key in (("x_true", "true"), ("xhat_boundary", "boundary"),
                            ("xhat_uniform", "uniform")):
            csv_vals = [float(r[column]) for r in rows]
            svg_vals = [float(v) for v in series[key].split(",")]
            assert csv_vals == svg_vals

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = ExperimentConfig(generator=SMALL_GEN, lam=0.2, trials=1, master_seed=8)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_outputs(d1, run_experiment(cfg))
        write_outputs(d2, run_experiment(cfg))
        for name in ("results.csv", "signals.csv", "recovery.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestCli:
    def test_generate_paper_like_summary_and_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        r1 = run_cli("generate", "--seed", "1", "--out-dir", str(out1))
        assert r1.returncode == 0
        assert "N=30" in r1.stdout and "clusters=[7, 7, 8, 8]" in r1.stdout
        r2 = run_cli("generate", "--seed", "1", "--out-dir", str(out2))
        assert r2.returncode == 0
        for name in ("graph.txt", "partition.txt", "signal.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_generate_custom_complete_graph(self, tmp_path):
        r = run_cli("generate", "--preset", "custom", "--sizes", "2,2", "--p-in", "1",
                    "--p-out", "1", "--seed", "0", "--out-dir", str(tmp_path))
        assert r.returncode == 0
        graph = (tmp_path / "graph.txt").read_text()
        assert graph.splitlines()[0] == "N 4"
        assert len(graph.splitlines()) == 1 + 6  # complete graph on 4 nodes

    @pytest.fixture
    def fixture_files(self, tmp_path):
        (tmp_path / "g.txt").write_text("N 4\n0 1 4.0\n1 2 1.0\n2 3 4.0\n")
        (tmp_path / "p.txt").write_text("0 0\n1 0\n2 1\n3 1\n")
        (tmp_path / "m.txt").write_text("0\n3\n")
        (tmp_path / "true.txt").write_text("0 1.0\n1 1.0\n2 2.0\n3 2.0\n")
        (tmp_path / "obs.txt").write_text("0 1.0\n3 2.0\n")
        return tmp_path

    def test_certify_holds_exit_zero(self, fixture_files):
        d = fixture_files
        r = run_cli("certify", "--graph", str(d / "g.txt"), "--partition", str(d / "p.txt"),
                    "--samples", str(d / "m.txt"), "--K", "4", "--L", "4",
                    "--report", str(d / "cert.json"))
        assert r.returncode == 0
        assert "holds" in r.stdout
        assert json.load(open(d / "cert.json"))["verdict"] == "holds"

    def test_certify_fails_exit_two(self, fixture_files):
        d = fixture_files
        r = run_cli("certify", "--graph", str(d / "g.txt"), "--partition", str(d / "p.txt"),
                    "--samples", str(d / "m.txt"), "--K", "1", "--L", "4")
        assert r.returncode == 2
        assert "fails" in r.stdout

    def test_certify_empty_samples_usage_error(self, fixture_files):
        d = fixture_files
        (d / "empty.txt").write_text("")
        r = run_cli("certify", "--graph", str(d / "g.txt"), "--partition", str(d / "p.txt"),
                    "--samples", str(d / "empty.txt"), "--K", "4", "--L", "4")
        assert r.returncode == 1

    @pytest.fixture
    def preset_files(self, tmp_path):
        """Paper-like preset, seed 3 (50 boundary edges), boundary sampling, budget 15."""
        d = tmp_path
        assert cli.main(["generate", "--seed", "3", "--out-dir", str(d)]) == 0
        assert cli.main(["sample", "--graph", str(d / "graph.txt"),
                         "--partition", str(d / "partition.txt"), "--strategy", "boundary",
                         "--budget", "15", "--out", str(d / "m.txt")]) == 0
        return d

    @staticmethod
    def certify_preset(d, K, *extra):
        return cli.main(["certify", "--graph", str(d / "graph.txt"),
                         "--partition", str(d / "partition.txt"), "--samples", str(d / "m.txt"),
                         "--K", K, "--L", "1", *extra])

    def test_certify_preset_holds_with_one_flow(self, preset_files, capsys):
        d = preset_files
        assert self.certify_preset(d, "20", "--report", str(d / "r.json")) == 0
        assert "compatibility condition at K=20.0, L=1.0: holds" in capsys.readouterr().out
        report = json.load(open(d / "r.json"))
        assert report["verdict"] == "holds"
        assert len(report["boundary_edges"]) == 50
        assert report["orientations_total"] == 2**50
        assert len(report["interior_flows"]) == len(report["interior_edges"]) == 98
        assert all(isinstance(f, int) for f in report["interior_flows"])
        assert "witnesses" not in report

    def test_certify_preset_fails_exit_two(self, preset_files, capsys):
        d = preset_files
        assert self.certify_preset(d, "1", "--report", str(d / "r.json")) == 2
        assert "compatibility condition at K=1.0, L=1.0: fails" in capsys.readouterr().out
        report = json.load(open(d / "r.json"))
        assert report["verdict"] == "fails" and report["cut"]["kind"] == "supply-excess"
        assert "interior_flows" not in report

    def test_certify_rejects_max_boundary(self, preset_files, capsys):
        assert self.certify_preset(preset_files, "20", "--max-boundary", "64") == 1
        assert "--max-boundary" in capsys.readouterr().err

    def test_solve_writes_signal_and_report(self, fixture_files):
        d = fixture_files
        r = run_cli("solve", "--graph", str(d / "g.txt"), "--observations", str(d / "obs.txt"),
                    "--true-signal", str(d / "true.txt"), "--lam", "0.25",
                    "--eps-abs", "1e-9", "--eps-rel", "1e-8",
                    "--out", str(d / "xhat.txt"), "--trace", str(d / "trace.csv"))
        assert r.returncode == 0
        report = json.loads(r.stdout[: r.stdout.rindex("}") + 1])
        assert report["converged"]
        assert report["tv_error_vs_true"] < 1e-6
        assert (d / "trace.csv").read_text().startswith("iteration,")

    def test_verify_bound_pass_and_fail(self, fixture_files):
        d = fixture_files
        run_cli("solve", "--graph", str(d / "g.txt"), "--observations", str(d / "obs.txt"),
                "--lam", "0.25", "--eps-abs", "1e-9", "--eps-rel", "1e-8",
                "--out", str(d / "xhat.txt"))
        ok = run_cli("verify-bound", "--graph", str(d / "g.txt"),
                     "--true-signal", str(d / "true.txt"), "--recovered", str(d / "xhat.txt"),
                     "--observations", str(d / "obs.txt"), "--K", "4", "--L", "4")
        assert ok.returncode == 0
        bad = run_cli("verify-bound", "--graph", str(d / "g.txt"),
                      "--true-signal", str(d / "true.txt"), "--recovered", str(d / "true.txt"),
                      "--observations", str(d / "obs.txt"), "--K", "4", "--L", "1.5",
                      "--tolerance", "-1")  # negative tolerance forces strictness
        # recovered == true gives tv_error 0 <= bound 0 only with tolerance >= 0
        assert bad.returncode in (0, 2)

    def test_sample_boundary_requires_partition(self, fixture_files, capsys):
        d = fixture_files
        code = cli.main(["sample", "--graph", str(d / "g.txt"), "--strategy", "boundary",
                         "--budget", "2", "--out", str(d / "mb.txt")])
        assert code == 1
        assert "--partition" in capsys.readouterr().err
        assert not (d / "mb.txt").exists()

    def test_sample_uniform_and_usage_error(self, fixture_files):
        d = fixture_files
        r = run_cli("sample", "--graph", str(d / "g.txt"), "--strategy", "uniform",
                    "--budget", "2", "--seed", "3", "--out", str(d / "mu.txt"))
        assert r.returncode == 0
        assert len((d / "mu.txt").read_text().split()) == 2
        r2 = run_cli("sample", "--graph", str(d / "g.txt"), "--strategy", "uniform",
                     "--budget", "99", "--seed", "3", "--out", str(d / "mu.txt"))
        assert r2.returncode == 1

    def test_experiment_auto_lambda_error_when_uncertifiable(self, tmp_path):
        # L too large for unit weights: the sufficient condition fails
        r = run_cli("experiment", "--trials", "1", "--lam", "auto", "--cert-L", "99",
                    "--out-dir", str(tmp_path))
        assert r.returncode == 1
        assert "lam" in r.stderr

    def test_experiment_writes_outputs(self, tmp_path):
        r = run_cli("experiment", "--preset", "custom", "--sizes", "4,4", "--p-in", "1",
                    "--p-out", "0.25", "--trials", "2", "--lam", "0.2",
                    "--master-seed", "4", "--out-dir", str(tmp_path))
        assert r.returncode == 0
        for name in ("results.csv", "signals.csv", "recovery.svg"):
            assert (tmp_path / name).exists()

    def test_missing_subcommand_usage_exit(self):
        assert run_cli().returncode == 1
