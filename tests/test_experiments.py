"""Experiment harness reproducibility, output files, and the CLI surface."""

import csv
import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import NOT_NUMBERS, lp_optimum
from netlasso import cli, fileio
from netlasso.certify import NccQuery, check_ncc
from netlasso.errors import InvalidConfigError
from netlasso.experiments import (
    ExperimentConfig,
    run_experiment,
    run_trial,
    summarize,
    trial_seeds,
    write_outputs,
)
from netlasso.generate import (
    PlantedPartitionConfig,
    generate_planted_partition,
    paper_like_config,
)
from netlasso.graphs import boundary


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

    @pytest.mark.parametrize("solver, name", [
        ({"foo": 1}, "foo"), ({"lam": 0.1}, "lam"), ({"record_trace": True}, "record_trace"),
        ({"rho": "1"}, "rho"), ({"max_iters": 0}, "max_iters"), ({"eps_rel": -1.0}, "tolerances"),
    ])
    def test_rejects_bad_solver_setting_at_construction(self, solver, name):
        # before any trial runs, as a config error naming the setting
        with pytest.raises(InvalidConfigError, match=name):
            ExperimentConfig(generator=SMALL_GEN, lam=0.2, solver=solver)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(InvalidConfigError, match="master seed must be >= 0"):
            ExperimentConfig(master_seed=-1)

    @pytest.mark.parametrize(
        "kwargs,name",
        [({"master_seed": 1.5}, "master seed"), ({"master_seed": "1"}, "master seed"),
         ({"trials": 1.5}, "trial count"), ({"trials": "2"}, "trial count"),
         *(({"master_seed": bad}, "master seed") for bad in (True, False, None)),
         *(({"trials": bad}, "trial count") for bad in (True, False, None))],
    )
    def test_rejects_seed_or_trials_that_is_no_integer(self, kwargs, name):
        with pytest.raises(InvalidConfigError, match=f"{name} must be an integer"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"noise": "foo"}, "unknown noise distribution 'foo'"),
        ({"noise": "gaussian", "sigma": "0.1"}, "sigma must be a real number"),
        ({"noise": "gaussian", "sigma": -1.0}, "sigma must be finite"),
        ({"budget": "3"}, "budget must be an integer"),
        ({"budget": 2.0}, "budget must be an integer"),
        ({"budget": True}, "budget must be an integer"),
        ({"budget": False}, "budget must be an integer"),
        ({"budget": 0}, "budget must be at least 1"),
        *(({"cert_l": bad}, "cert_l must be a real number") for bad in NOT_NUMBERS),
        ({"cert_l": 10**400}, "cert_l is not finite"),
        *(({"cert_l": bad}, "cert_l must be 1.0") for bad in (float("nan"), np.inf, 0.0, -1.0)),
        # an explicit lam would ignore the certificate's L
        *(({"lam": 0.2, "cert_l": bad}, "cert_l must be 1.0") for bad in (3, 2.0, float("nan"))),
    ])
    def test_rejects_bad_setting_at_construction(self, kwargs, message):
        # each constructed and failed only in the first trial, or (cert_l with
        # an explicit lam) ran without it
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            ExperimentConfig(generator=SMALL_GEN, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.05, "cert_l": 1.0}, {"lam": 0.2, "cert_l": 1}, {"cert_l": Fraction(3, 2)},
        {"cert_l": np.float32(2.0)}, {"budget": np.int64(4)}, {"budget": None},
        {"noise": "laplace", "sigma": np.float64(0.1)},
    ])
    def test_takes_any_number_type(self, kwargs):
        ExperimentConfig(generator=SMALL_GEN, **kwargs)

    def test_plot_trial_must_be_an_integer(self, tmp_path):
        trials = run_experiment(ExperimentConfig(generator=SMALL_GEN, lam=0.2))
        for bad in (True, 0.0, "0"):
            with pytest.raises(InvalidConfigError, match="plot trial must be an integer"):
                write_outputs(tmp_path, trials, plot_trial=bad)
        assert list(tmp_path.iterdir()) == []

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

    def test_results_csv_header(self, outputs):
        _, paths = outputs
        with open(paths["results"]) as fh:
            header = fh.readline().rstrip("\r\n").split(",")
        assert header == [
            "trial", "strategy", "nodes", "edges", "boundary_edges", "budget", "lam",
            "tv_error", "mad", "objective", "empirical_error", "tv_term", "iterations",
            "converged", "noise_l1", "cert_K", "cert_L", "bound", "bound_ok",
        ]

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

    def test_generate_prints_the_boundary_count(self, tmp_path, capsys):
        assert cli.main(["generate", "--seed", "4", "--out-dir", str(tmp_path)]) == 0
        g, p = generate_planted_partition(paper_like_config(seed=4))
        assert capsys.readouterr().out == (
            f"generated graph: N=30 edges={g.edge_count} clusters=[7, 7, 8, 8] "
            f"boundary={len(boundary(g, p))} -> {tmp_path}\n"
        )

    def test_generate_custom_complete_graph(self, tmp_path):
        r = run_cli("generate", "--preset", "custom", "--sizes", "2,2", "--p-in", "1",
                    "--p-out", "1", "--seed", "0", "--out-dir", str(tmp_path))
        assert r.returncode == 0
        graph = (tmp_path / "graph.txt").read_text()
        assert graph.splitlines()[0] == "N 4"
        assert len(graph.splitlines()) == 1 + 6  # complete graph on 4 nodes

    @pytest.mark.parametrize("argv, flag", [
        (["generate", "--p-out", "0.01"], "--p-out"),
        (["generate", "--sizes", "4,4"], "--sizes"),
        (["experiment", "--weight", "2"], "--weight"),
    ])
    def test_paper_like_preset_rejects_custom_flags(self, tmp_path, capsys, argv, flag):
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert list(tmp_path.iterdir()) == []

    def test_generate_custom_defaults_unchanged(self, tmp_path):
        # p_in 1.0, p_out 0.2 and weight 1.0 when not given
        assert cli.main(["generate", "--preset", "custom", "--sizes", "4,4", "--seed", "0",
                         "--out-dir", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
                   for name in ("graph.txt", "partition.txt", "signal.txt")}
        assert digests == {"graph.txt": "8564f2d6b69da165", "partition.txt": "2a366951a2f2393e",
                           "signal.txt": "90f0e717e5773b23"}

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
        ids = [e for e, _ in report["interior_flows"]]
        assert ids == sorted(set(ids)) and "interior_edges" not in report
        assert all(isinstance(f, int) and f != 0 for _, f in report["interior_flows"])
        assert "witnesses" not in report

    def test_certify_preset_fails_exit_two(self, preset_files, capsys):
        d = preset_files
        assert self.certify_preset(d, "1", "--report", str(d / "r.json")) == 2
        assert "compatibility condition at K=1.0, L=1.0: fails" in capsys.readouterr().out
        report = json.load(open(d / "r.json"))
        assert report["verdict"] == "fails" and report["cut"]["kind"] == "supply-excess"
        assert "interior_flows" not in report

    @pytest.mark.parametrize("K", ["1", "20"])
    def test_certify_prints_and_writes_only_the_ncc_certificate(self, preset_files, capsys, K):
        d = preset_files
        code = self.certify_preset(d, K, "--report", str(d / "r.json"))
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "condition at" in line] == [
            f"compatibility condition at K={float(K)}, L=1.0: {'holds' if K == '20' else 'fails'}"
        ]
        assert not any("sufficient condition" in line for line in lines)
        assert code == (0 if K == "20" else 2)
        report = json.load(open(d / "r.json"))
        assert "support_condition" not in report
        g = fileio.read_graph(d / "graph.txt")
        query = NccQuery(g, fileio.read_partition(d / "partition.txt", g),
                         fileio.read_node_set(d / "m.txt"), K=float(K), L=1.0)
        assert report == json.loads(json.dumps(check_ncc(query).to_json_dict()))

    def test_certify_report_is_one_compact_line(self, preset_files):
        d = preset_files
        assert self.certify_preset(d, "20", "--report", str(d / "r.json")) == 0
        text = (d / "r.json").read_text()
        assert text == json.dumps(json.loads(text), separators=(",", ":"))

    def test_certify_rejects_max_boundary(self, preset_files, capsys):
        assert self.certify_preset(preset_files, "20", "--max-boundary", "64") == 1
        assert "--max-boundary" in capsys.readouterr().err

    def test_solve_writes_signal_and_report(self, fixture_files):
        d = fixture_files
        r = run_cli("solve", "--graph", str(d / "g.txt"), "--observations", str(d / "obs.txt"),
                    "--true-signal", str(d / "true.txt"), "--lam", "0.25",
                    "--out", str(d / "xhat.txt"), "--report", str(d / "r.json"))
        assert r.returncode == 0
        report = json.loads(r.stdout[: r.stdout.rindex("}") + 1])
        assert report == json.load(open(d / "r.json"))
        g = fileio.read_graph(d / "g.txt")
        obs = fileio.read_observations(d / "obs.txt")
        opt = lp_optimum(g, obs, 0.25)
        assert abs(report["objective"] - opt) <= 1e-9 * (1.0 + opt)
        # one max flow, one augmenting path over the path 3-2-1-0: one phase; each
        # sample's edges carry lam * W = 0.25 * 4, exactly 1, so neither is pinned
        assert report["cuts"] == 1 and report["levels"] == 2 and report["phases"] == 1
        assert report["pinned"] == 0
        assert report["tv_error_vs_true"] == 0.0 and report["mad_vs_true"] == 0.0
        assert (d / "xhat.txt").read_text() == "0 1.0\n1 1.0\n2 2.0\n3 2.0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "1"), ("--eps-abs", "1e-9"), ("--eps-rel", "1e-8"), ("--max-iters", "10"),
        ("--trace", "t.csv"),
    ])
    def test_solve_has_no_admm_flags(self, fixture_files, capsys, flag, value):
        d = fixture_files
        code = cli.main(["solve", "--graph", str(d / "g.txt"),
                         "--observations", str(d / "obs.txt"), "--lam", "1",
                         flag, value, "--out", str(d / "x.txt")])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not (d / "x.txt").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--eps-abs", "inf"), ("--eps-rel", "nan"), ("--rho", "inf"),
    ])
    def test_experiment_rejects_non_finite_solver_settings(self, tmp_path, capsys, flag, value):
        code = cli.main(["experiment", "--preset", "custom", "--sizes", "4,4", "--p-in", "1",
                         "--p-out", "0.25", "--lam", "1", flag, value,
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lam, cert_l", [("0.2", "nan"), ("0.2", "3"), ("auto", "nan")])
    def test_experiment_rejects_cert_l_it_would_not_use(self, tmp_path, capsys, lam, cert_l):
        # with an explicit lam the flag was ignored and the run exited 0
        code = cli.main(["experiment", "--preset", "custom", "--sizes", "4,4", "--p-in", "1",
                         "--p-out", "0.25", "--lam", lam, "--cert-L", cert_l,
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cert_l must be 1.0")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise, flag", [
        (["--sigma", "0.1"], "--sigma"),
        (["--noise", "none", "--sigma", "0.1"], "--sigma"),
        (["--noise", "gaussian"], "--noise gaussian"),
        (["--noise", "laplace", "--sigma", "0"], "--noise laplace"),
    ])
    def test_experiment_rejects_noise_settings_that_add_none(self, tmp_path, capsys, noise, flag):
        # either setting alone adds no noise, so the run would be noiseless
        code = cli.main(["experiment", "--preset", "custom", "--sizes", "4,4", "--p-in", "1",
                         "--p-out", "0.25", "--lam", "1", *noise, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert list(tmp_path.iterdir()) == []

    def test_verify_bound_pass_and_fail(self, fixture_files):
        d = fixture_files
        solved = run_cli("solve", "--graph", str(d / "g.txt"),
                         "--observations", str(d / "obs.txt"), "--lam", "0.25",
                         "--out", str(d / "xhat.txt"))
        assert solved.returncode == 0
        ok = run_cli("verify-bound", "--graph", str(d / "g.txt"),
                     "--true-signal", str(d / "true.txt"), "--recovered", str(d / "xhat.txt"),
                     "--observations", str(d / "obs.txt"), "--K", "4", "--L", "4")
        assert ok.returncode == 0
        bad = run_cli("verify-bound", "--graph", str(d / "g.txt"),
                      "--true-signal", str(d / "true.txt"), "--recovered", str(d / "true.txt"),
                      "--observations", str(d / "obs.txt"), "--K", "4", "--L", "1.5",
                      "--tolerance", "-1")  # negative tolerance forces strictness
        # noiseless, so the bound is 0, and tv_error 0 exceeds it plus the tolerance -1
        assert bad.returncode == 2

    @pytest.mark.parametrize("flags", [
        ["--K", "inf", "--L", "2"], ["--K", "4", "--L", "inf"],
        ["--K", "4", "--L", "2", "--tolerance", "nan"],
    ])
    def test_verify_bound_rejects_non_finite_inputs(self, fixture_files, capsys, flags):
        d = fixture_files
        code = cli.main(["verify-bound", "--graph", str(d / "g.txt"),
                         "--true-signal", str(d / "true.txt"), "--recovered", str(d / "true.txt"),
                         "--observations", str(d / "obs.txt"), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("strategy, flag", [("uniform", "--partition"), ("boundary", "--seed")])
    def test_sample_rejects_the_other_strategys_flag(self, fixture_files, capsys, strategy, flag):
        # the chosen strategy would ignore the flag
        d = fixture_files
        code = cli.main(["sample", "--graph", str(d / "g.txt"), "--partition", str(d / "p.txt"),
                         "--strategy", strategy, "--budget", "2", "--seed", "3",
                         "--out", str(d / "ms.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (d / "ms.txt").exists()

    def test_sample_uniform_default_seed_is_zero(self, fixture_files):
        d = fixture_files
        outputs = []
        for seed in ([], ["--seed", "0"]):
            out = d / f"mu{len(seed)}.txt"
            assert cli.main(["sample", "--graph", str(d / "g.txt"), "--strategy", "uniform",
                             "--budget", "2", *seed, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_experiment_auto_lambda_error_when_uncertifiable(self, tmp_path):
        # L too large for unit weights: the sufficient condition fails
        r = run_cli("experiment", "--trials", "1", "--lam", "auto", "--cert-L", "99",
                    "--out-dir", str(tmp_path))
        assert r.returncode == 1
        assert "lam" in r.stderr

    def test_experiment_solver_defaults_are_solver_configs(self):
        args = cli.build_parser().parse_args(["experiment"])
        assert (args.rho, args.eps_abs, args.eps_rel) == (1.0, 1e-6, 1e-5)
        assert args.max_iters == 100_000 and type(args.max_iters) is int

    def test_experiment_writes_outputs(self, tmp_path):
        r = run_cli("experiment", "--preset", "custom", "--sizes", "4,4", "--p-in", "1",
                    "--p-out", "0.25", "--trials", "2", "--lam", "0.2",
                    "--master-seed", "4", "--out-dir", str(tmp_path))
        assert r.returncode == 0
        for name in ("results.csv", "signals.csv", "recovery.svg"):
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("command", [
        ["generate", "--seed", "-1"],
        ["sample", "--strategy", "uniform", "--budget", "2", "--seed", "-1"],
        ["experiment", "--master-seed", "-1"],
    ])
    def test_negative_seed_is_a_usage_error(self, fixture_files, command):
        d = fixture_files
        paths = {"generate": ["--out-dir", str(d / "gen")],
                 "sample": ["--graph", str(d / "g.txt"), "--out", str(d / "mu.txt")],
                 "experiment": ["--out-dir", str(d / "exp")]}
        r = run_cli(*command, *paths[command[0]])
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and "seed must be >= 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not any(d.glob("gen/*")) and not (d / "mu.txt").exists()
        assert not any(d.glob("exp/*"))

    def test_out_dir_default_is_read_when_a_command_runs(self, tmp_path, monkeypatch):
        # main builds its parser once per process, after which
        # $NETLASSO_OUT_DIR may still change
        monkeypatch.delenv("NETLASSO_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["generate", "--seed", "3"]) == 0
        assert (tmp_path / "graph.txt").exists()
        monkeypatch.setenv("NETLASSO_OUT_DIR", str(tmp_path / "env"))
        assert cli.main(["generate", "--seed", "3"]) == 0
        assert (tmp_path / "env" / "graph.txt").exists()
        assert cli.main(["generate", "--seed", "3", "--out-dir", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "graph.txt").exists()
        assert cli.build_parser() is cli.build_parser()

    def test_missing_subcommand_usage_exit(self):
        assert run_cli().returncode == 1
