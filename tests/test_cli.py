"""Command-line surface: config validation, exit codes, emitted files."""

import hashlib
import json
import subprocess
import sys

import pytest

from pairlab.cli import main
from pairlab.posgraph import graph_to_dict, save_graph

pytestmark = pytest.mark.usefixtures("tmp_path")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXAMPLE1_CFG = {
    "version": 1,
    "graph": {"example": 1, "d": 4, "s": 1},
}


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "bogus": 3})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key: bogus" in err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"example": 1, "bogus_key": 1}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key: graph.bogus_key" in err

    @pytest.mark.parametrize("section, key", [("class", "lipschitz_kappa"),
                                              ("train", "momentum"),
                                              ("train", "tol"),
                                              ("train", "use_sum_regularizer")])
    def test_removed_keys_rejected(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, {"version": 1, "graph": {"random": {"n": 6}},
                                      section: {key: 1.0}})
        code, _, err = run(["train", "--config", str(cfg)], capsys)
        assert code == 2
        assert f"unknown config key: {section}.{key}" in err

    def test_top_level_seed_rejected(self, tmp_path, capsys):
        # it seeded nothing; the seed of a run is train.seed or --seed
        cfg = write_config(tmp_path, {"version": 1, "graph": {"random": {"n": 6}},
                                      "seed": 4})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key: seed" in err

    def test_missing_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"graph": {"example": 1, "d": 2, "s": 1}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "version" in err

    def test_wrong_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 2, "graph": {"example": 1}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(["graph-info", "--config", str(path)], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            ["graph-info", "--config", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert "cannot read config" in err

    def test_unknown_classes_entry_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"random": {"n": 4}},
            "classes": [{"tag": "tabular", "oops": 1}],
            "r_list": [1],
        })
        code, _, err = run(["br", "--config", str(cfg)], capsys)
        assert code == 2
        assert "classes.oops" in err

    def test_no_graph_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "graph" in err


class TestGraphInfo:
    def test_example1_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EXAMPLE1_CFG)
        code, out, _ = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 128
        assert report["components"] == 16
        assert report["d"] == 4
        assert report["n_classes"] == 2
        assert report["alpha_component_partition"] == 0.0
        assert report["eigensolver"]["n_components"] == 16
        assert 0.0 <= report["eigensolver"]["max_residual"] <= 1e-20

    def test_raw_graph_file(self, tmp_path, capsys, single_vertex):
        gpath = tmp_path / "graph.json"
        save_graph(single_vertex, gpath)
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"file": str(gpath)}})
        code, out, _ = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 1
        assert report["components"] == 1
        assert report["n_classes"] == 0
        assert report["spectrum_head"] == pytest.approx([0.0], abs=1e-12)

    def test_malformed_graph_file(self, tmp_path, capsys):
        gpath = tmp_path / "broken.json"
        gpath.write_text(json.dumps({"vertices": [[0.0]]}))
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"file": str(gpath)}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "MalformedGraphFile" in err

    def test_asymmetric_graph_file(self, tmp_path, capsys, single_vertex):
        doc = graph_to_dict(single_vertex)
        doc["vertices"] = [[0.0], [1.0]]
        doc["d"] = 1
        doc["joint"] = [[0.5, 0.5], [0.0, 0.0]]
        doc["marginal"] = [0.75, 0.25]
        gpath = tmp_path / "asym.json"
        gpath.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"file": str(gpath)}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "AsymmetricJoint" in err


class TestManifest:
    def test_fields_and_hash(self, tmp_path, capsys):
        cfg_doc = dict(EXAMPLE1_CFG)
        cfg = write_config(tmp_path, cfg_doc)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            ["graph-info", "--config", str(cfg), "--out", str(out_dir)],
            capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == {"command", "config_sha256", "seeds",
                                 "package_version", "outputs"}
        assert manifest["command"] == "graph-info"
        assert manifest["outputs"] == ["manifest.json", "report.json"]
        blob = json.dumps(cfg_doc, sort_keys=True).encode()
        assert manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()
        assert (out_dir / "report.json").exists()

    def test_reruns_byte_identical(self, tmp_path, capsys):
        # the manifest carries no timestamps or machine state: two runs of
        # the same command produce the same bytes
        cfg = write_config(tmp_path, EXAMPLE1_CFG)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                ["graph-info", "--config", str(cfg), "--out", str(d)], capsys)
            assert code == 0
        for name in ("manifest.json", "report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_override_recorded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"example": 1, "d": 2, "s": 1},
            "class": {"tag": "linear", "k": 1},
            "train": {"max_iters": 50},
        })
        out_dir = tmp_path / "out"
        code, _, _ = run(
            ["train", "--config", str(cfg), "--out", str(out_dir),
             "--seed", "5"], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == [5]


class TestSpectrum:
    def test_writes_sorted_eigenvalue_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"example": 1, "d": 3, "s": 1},
            "count": 5,
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(
            ["spectrum", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        assert len(json.loads(out)["eigenvalues"]) == 5
        lines = (out_dir / "eigenvalues.csv").read_text().strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(vals) == 5
        assert vals == sorted(vals)
        solver = json.loads((out_dir / "eigensolver.json").read_text())
        assert solver["n_components"] == 8
        assert 0.0 <= solver["max_residual"] <= 1e-20


class TestTrain:
    def test_writes_model_trace_loss(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"example": 1, "d": 3, "s": 1},
            "class": {"tag": "linear", "k": 1},
            "lambda": 1.0,
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(
            ["train", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        loss = json.loads((out_dir / "loss.json").read_text())
        assert loss["total"] <= 1e-6   # the class contains an exact minimizer
        assert loss["total"] == pytest.approx(
            loss["pair_term"] + loss["lam"] * loss["reg_term"], abs=1e-12)
        assert loss["stop"]["reason"] == "converged"
        assert loss["stop"]["evals"] > loss["stop"]["rejected"] >= 0
        assert 0.0 <= loss["stop"]["grad_norm"] <= 1e-6
        model_doc = json.loads((out_dir / "model.json").read_text())
        assert model_doc["class"] == "linear"
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,pair_term,reg_term,total"
        assert len(trace) >= 2
        stdout_doc = json.loads(out)
        assert stdout_doc["class"] == "linear"


class TestProbe:
    def test_unlabeled_graph_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"random": {"n": 6}},
            "class": {"tag": "tabular", "k": 2},
        })
        code, _, err = run(["probe", "--config", str(cfg)], capsys)
        assert code == 2
        assert "labeled" in err

    def test_example1_probe_report(self, tmp_path, capsys):
        # tabular k = #components spans every cluster indicator, so the
        # one-hot label probe is exact
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"example": 1, "d": 3, "s": 1},
            "class": {"tag": "tabular", "k": 8},
            "lambda": 1.0,
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(
            ["probe", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        row = json.loads((out_dir / "probe.json").read_text())
        assert row["error"] <= 1e-8
        assert row["assumptions"]["alpha"] == 0.0
        assert row["assumptions"]["m"] == 2
        assert row["assumptions"]["implementable"] is True
        # each label cell is a union of components, so within-cell
        # expansion is 0 and no finite error bound is reported
        assert row["assumptions"]["beta"] == 0.0
        assert row["bound"] is None
        assert json.loads(out)["class"] == "tabular"


class TestVerify:
    def test_thm56_passes_with_verdict(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(["verify", "thm56", "--out", str(out_dir)], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows
        for row in rows:
            assert set(row) == {"theorem", "check", "measured", "bound", "pass"}
            assert row["theorem"] == "thm56"
            assert row["pass"] is True
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["pass"] is True
        assert len(verdict["rows"]) == len(rows)

    def test_prop4_accepts_n_graphs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "n_graphs": 3})
        code, out, _ = run(["verify", "prop4", "--config", str(cfg)], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert "3 random disconnected graphs" in rows[0]["check"]

    def test_example_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"example": 1, "d": 3, "s": 1}})
        code, _, err = run(["verify", "thm56", "--config", str(cfg)], capsys)
        assert code == 2
        assert "example 3" in err


class TestBr:
    def test_requires_r_list(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"random": {"n": 6}}})
        code, _, err = run(["br", "--config", str(cfg)], capsys)
        assert code == 2
        assert "r_list" in err

    def test_default_grid_on_two_level_graph(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"two_level": {"m": 4}},
            "classes": [{"tag": "linear"}, {"tag": "relu"}, {"tag": "tabular"}],
            "r_list": [4],
        })
        code, out, _ = run(["br", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.count("class=") == 3

    def test_writes_report_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"random": {"n": 8, "n_components": 2, "seed": 3}},
            "classes": [{"tag": "tabular"}, {"tag": "linear"}],
            "r_list": [1, 2],
            "lambda_grid": [3.0, 30.0],
            "train": {"n_starts": 1},
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(
            ["br", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        assert "class=tabular" in out and "class=linear" in out
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "r,lambda,b_value,whiten_ok,seed,class,stop_reason,evals"
        assert len(report) == 1 + 2 * 2 * 2
        for line in report[1:]:
            reason, evals = line.split(",")[-2:]
            assert reason in ("converged", "min_step", "max_iters")
            assert int(evals) >= 1
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "r,b_r,oracle,class"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"] == ["manifest.json", "report.csv",
                                       "summary.csv"]


class TestSubprocessEntry:
    def test_module_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairlab.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_installed_script_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1,
                                   "graph": {"random": {"n": 4}}}))
        proc = subprocess.run(
            ["pairlab", "graph-info", "--config", str(cfg)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 4

    def test_unknown_theorem_argparse_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairlab.cli", "verify", "bogus"],
            capture_output=True, text=True)
        assert proc.returncode == 2
