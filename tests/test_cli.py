"""Command-line surface: config validation, exit codes, emitted files."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pairlab import cli
from pairlab.cli import _py, graph_from_config, load_config, main
from pairlab.errors import BetaZero, ConfigError
from pairlab.funclass import spec_for_graph
from pairlab.posgraph import partition_from_labels, save_graph
from pairlab.probe import measure_assumptions, theorem31_bound
from pairlab.spectral import INFINITE
from pairlab.synthdata import (
    enumeration_label_map,
    example2_labels,
    example3_graph,
    example4_graph,
)

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

    @pytest.mark.parametrize("command, doc, message", [
        ("graph-info", {"graph": {"example": 1, "s": 1}}, "graph needs key 'd'"),
        ("graph-info", {"graph": {"example": 1, "s": 5, "d": 3}}, "need 0 < s < d"),
        ("graph-info", {"graph": {"example": 2, "s": 1, "d": 3}},
         "XOR labels need s >= 2"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"step_size": 0}}, "train: need positive step size"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"max_iters": "many"}}, "train: "),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "lambda": "ten"}, "lambda: need a number, got 'ten'"),
        ("probe", {"graph": {"example": 1, "d": 3, "s": 1}, "class": {"k": 2},
                   "lambda": "ten"}, "lambda: need a number, got 'ten'"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1],
                "classes": [{"tag": "conv", "s": "x"}]}, "class: s: need an integer, got 'x'"),
        ("spectrum", {"graph": {"random": {"n": 6}}, "count": "x"}, "count: "),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [0]},
         "r_list: need an integer >= 1"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1], "lambda_grid": []},
         "lambda_grid: need a nonempty list"),
        ("verify prop4", {"n_graphs": "many"}, "n_graphs: "),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"seed": "abc"}}, "train: seed must be int"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"grad_tol": "small"}}, "train: grad_tol must be float"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"init_scale": "x"}}, "train: init_scale must be float"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"n_starts": 0}}, "n_starts >= 1"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1], "classes": 5},
         "classes must be a list"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2}, "lambda": -1},
         "lambda: need a number > 0"),
        ("probe", {"graph": {"example": 1, "d": 3, "s": 1}, "class": {"k": 2},
                   "lambda": -1}, "lambda: need a number > 0"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1], "lambda_grid": [0, -3]},
         "lambda_grid: need a number > 0"),
        ("verify thm42 --seed -1", {}, "argument --seed: need an integer >= 0"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1],
                "classes": [{"tag": "linear", "k": 2}]}, "every class at k = r"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1], "class": {"k": 2}},
         "every class at k = r"),
        ("verify thm56", {"train": {"seed": 3}}, "verify does not read train"),
        ("graph-info", {"graph": {"random": {"n": 6}}, "class": {"k": 2}},
         "graph-info does not read class"),
        ("graph-info", {"graph": {"random": {"n": 6}}, "lambda": 1.0},
         "graph-info does not read lambda"),
        ("graph-info", {"graph": {"random": {"n": 6}}, "train": {"seed": 3}},
         "graph-info does not read train"),
        ("spectrum", {"graph": {"random": {"n": 6}}, "class": {"k": 2}},
         "spectrum does not read class"),
        ("spectrum", {"graph": {"random": {"n": 6}}, "lambda": 1.0},
         "spectrum does not read lambda"),
        ("spectrum", {"graph": {"random": {"n": 6}}, "train": {"seed": 3}},
         "spectrum does not read train"),
        ("spectrum", {"graph": {"example": 1, "d": 4.9, "s": 2}},
         "graph: d: need an integer, got 4.9"),
        ("spectrum", {"graph": {"example": 1, "d": 4, "s": "2"}},
         "graph: s: need an integer, got '2'"),
        ("spectrum", {"graph": {"example": 1, "d": 4, "s": 2}, "count": 3.7},
         "count: need an integer, got 3.7"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [2.9]},
         "r_list: need an integer, got 2.9"),
        ("graph-info", {"graph": {"random": {"n": 6, "n_components": True}}},
         "graph: n_components: need an integer, got True"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2.0}},
         "class: k: need an integer, got 2.0"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2}, "lambda": True},
         "lambda: need a number, got True"),
        ("graph-info", {"graph": {"two_level": {"m": 2, "cross_scale": "1e-3"}}},
         "graph: cross_scale: need a number, got '1e-3'"),
        ("graph-info", {"graph": {"example": 4, "d": 4, "s": 1, "gamma": 2.0,
                                  "tau_grid": [0.0, "1"]}},
         "graph: tau_grid: need a number, got '1'"),
        ("graph-info", {"graph": {"random": {"n": 6}, "example": 1, "d": 4, "s": 1}},
         "graph must name one source of file, random, two_level and example; "
         "it has keys: random, example, d, s"),
        ("graph-info", {"graph": {"example": 1, "d": 4, "s": 1, "gamma": 2.0, "rho": 0.1,
                                  "labels": [0, 1], "label_map": "bogus"}},
         "unknown config key: graph.gamma"),
        ("graph-info", {"graph": {"file": "graph.json", "two_level": {"m": 2}}},
         "it has keys: file, two_level"),
        ("graph-info", {"graph": {"d": 4, "s": 1}}, "it has keys: d, s"),
        ("graph-info", {"graph": {"example": 5}}, "graph: unknown example 5"),
        ("graph-info", {"graph": {"example": True, "d": 4, "s": 1}},
         "example: need an integer, got True"),
        ("graph-info", {"graph": {"file": 0}}, "graph: file: need a string, got 0"),
        ("graph-info", {"graph": {"file": True}}, "graph: file: need a string, got True"),
        ("graph-info", {"graph": {"file": 5}}, "graph: file: need a string, got 5"),
        ("graph-info", {"graph": {"two_level": {"m": 2}, "seed": 1}},
         "unknown config key: graph.seed"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"tag": "relu", "k": 2, "s": 1}},
         "class.s is the conv window length; class relu does not read it"),
        ("probe", {"graph": {"example": 1, "d": 3, "s": 1},
                   "class": {"tag": "linear", "k": 2, "s": 1}}, "class linear does not read it"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1],
                "classes": [{"tag": "conv", "s": 1}, {"tag": "tabular", "s": 1}]},
         "class tabular does not read it"),
        ("graph-info", {"graph": {"example": 2, "d": 4, "s": 2, "label_dim": 1}},
         "unknown config key: graph.label_dim"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1], "class": {"tag": "tabular"},
                "classes": [{"tag": "linear"}]}, "br takes class or classes, not both"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [1], "classes": []},
         "classes: need a nonempty list, got []"),
        ("graph-info", {"graph": {"example": 3, "r": 2, "gamma": 1.0, "rho": 0.1,
                                  "labels": [0, 1], "m": 2, "sub_clusters_per_set": 0}},
         "graph: need sub_clusters_per_set >= 1, got 0"),
        ("graph-info", {"graph": {"example": 3, "r": 2, "gamma": 1.0, "rho": -0.1,
                                  "labels": [0, 1], "m": 2}}, "graph: need rho >= 0, got -0.1"),
        ("graph-info", {"graph": {"example": 3, "r": 2, "gamma": 1.0, "rho": 0.1,
                                  "labels": [0, 1], "m": 2, "points_per_set": 0}},
         "graph: need points_per_set >= 1, got 0"),
        ("train", {"graph": {"random": {"n": 6}}, "class": 5}, "class must be an object"),
        ("train", {"graph": {"random": {"n": 6}}}, "config needs a \"class\" section"),
        ("probe", {"graph": {"example": 1, "d": 3, "s": 1}},
         "config needs a \"class\" section"),
        ("graph-info", {"graph": {"example": 3, "r": 2, "gamma": 1.0, "rho": 0.1,
                                  "labels": [0, 5], "m": 2}},
         "graph: labels must lie in [0, m=2), got 5 for set 1"),
        ("probe", {"graph": {"example": 3, "r": 2, "gamma": 1.0, "rho": 0.1,
                             "labels": [0, 5], "m": 2}, "class": {"tag": "tabular", "k": 2}},
         "graph: labels must lie in [0, m=2), got 5 for set 1"),
        ("graph-info", {"graph": {"example": 4, "d": 3, "s": 1, "gamma": float("inf")}},
         "graph: gamma: need a finite number, got inf"),
        ("graph-info", {"graph": {"example": 4, "d": 3, "s": 1, "gamma": float("nan")}},
         "graph: gamma: need a finite number, got nan"),
        ("graph-info", {"graph": {"example": 4, "d": 3, "s": 1, "gamma": 10 ** 400}},
         "graph: gamma: need a finite number, got 1000"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"tag": "linear", "k": 1},
                   "lambda": float("-inf")},
         "need a finite number, got -inf"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"step_size": float("nan")}}, "train: need finite step_size"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"step_size": float("inf")}}, "got step_size=inf,"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"init_scale": 0}}, "init_scale=0,"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"init_scale": -0.1}}, "init_scale=-0.1,"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"init_scale": float("inf")}}, "init_scale=inf,"),
        ("train", {"graph": {"random": {"n": 6}}, "class": {"k": 2},
                   "train": {"grad_tol": float("nan")}}, "grad_tol=nan"),
        ("br", {"graph": {"random": {"n": 6}}, "r_list": [10]},
         "class=tabular, r=10: the graph has 6 vertices, so r can be at most 6"),
        ("graph-info", {"graph": {"example": 3, "r": 2, "gamma": -1.0, "rho": 0.1,
                                  "labels": [0, 1], "m": 2}}, "graph: need gamma >= 0, got -1.0"),
    ], ids=["missing-d", "s-over-d", "example2-xor-s1", "zero-step", "text-max-iters",
            "text-lambda-train", "text-lambda-probe", "br-classes-text-s",
            "text-count", "zero-r", "empty-lambda-grid", "text-n-graphs",
            "text-seed", "text-grad-tol", "text-init-scale", "zero-n-starts",
            "classes-not-list", "negative-lambda-train", "negative-lambda-probe",
            "nonpositive-lambda-grid", "negative-seed", "br-classes-k", "br-class-k",
            "verify-train", "graph-info-class", "graph-info-lambda", "graph-info-train",
            "spectrum-class", "spectrum-lambda", "spectrum-train", "float-d", "text-s",
            "float-count", "float-r-list", "bool-n-components", "float-class-k",
            "bool-lambda", "text-cross-scale", "text-tau-grid", "random-and-example",
            "example1-foreign-keys", "file-and-two-level", "no-source", "unknown-example",
            "bool-example", "file-zero", "file-true", "file-five", "seed-beside-two-level",
            "train-relu-s", "probe-linear-s", "br-tabular-s", "example2-label-dim",
            "br-class-and-classes", "br-empty-classes", "example3-zero-sub-clusters",
            "example3-negative-rho", "example3-zero-points", "class-not-object",
            "train-without-class", "probe-without-class", "example3-label-over-m",
            "probe-example3-label-over-m", "infinite-gamma", "nan-gamma", "huge-int-gamma",
            "infinite-lambda", "nan-step-size", "infinite-step-size", "zero-init-scale",
            "negative-init-scale", "infinite-init-scale", "nan-grad-tol", "br-r-over-n",
            "example3-negative-gamma"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, doc, message):
        cfg = write_config(tmp_path, {"version": 1, **doc})
        try:
            code, _, err = run([*command.split(), "--config", str(cfg)], capsys)
            first = "config error:"
        except SystemExit as exc:      # argparse rejects a bad option value
            code, err, first = exc.code, capsys.readouterr().err, "usage:"
        assert code == 2
        assert err.startswith(first) and message in err
        assert "Traceback" not in err

    def test_outputs_hold_plain_json_values(self):
        doc = _py({"x": np.float64(0.5), "i": np.int64(3), "beta": INFINITE,
                   "rows": (np.arange(2),)})
        assert doc == {"x": 0.5, "i": 3, "beta": "INFINITE", "rows": [[0, 1]]}
        assert json.loads(json.dumps(doc)) == doc
        assert type(doc["x"]) is float and type(doc["i"]) is int

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
        # ten pairs of sixteen components are all zeros: no block is solved
        assert report["eigensolver"]["solves"] == {
            "stacked": 0, "subset": 0, "iterative": 0, "dense_fallback": 0,
            "skipped": 0, "lanczos_retries": 0}

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

    @pytest.mark.parametrize("name, reason", [("absent.json", "No such file or directory"),
                                              (".", "Is a directory")],
                             ids=["missing", "directory"])
    def test_unreadable_graph_file(self, tmp_path, capsys, name, reason):
        path = str(tmp_path / name)
        cfg = write_config(tmp_path, {"version": 1, "graph": {"file": path}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("config error: graph: ") and err.count("\n") == 1
        assert reason in err and repr(path) in err

    def test_size_guard_is_an_error(self, tmp_path, capsys):
        # refused before random_graph draws anything
        cfg = write_config(tmp_path, {"version": 1, "graph": {"random": {"n": 20001}}})
        code, out, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: SizeGuardExceeded: 20001 vertices exceed guard 20000\n"

    def test_coordinate_guard_is_an_error(self, tmp_path, capsys):
        # 20,000 vertices in R^5002: under the vertex guard, refused before
        # the 800 MB of coordinates are allocated
        cfg = write_config(tmp_path, {"version": 1, "graph": {"two_level": {"m": 5000}}})
        code, out, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: SizeGuardExceeded: 20000 x 5002 = 100040000 coordinates "
                       "exceed guard 320000\n")

    def test_malformed_graph_file(self, tmp_path, capsys):
        gpath = tmp_path / "broken.json"
        gpath.write_text(json.dumps({"vertices": [[0.0]]}))
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"file": str(gpath)}})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert "MalformedGraphFile" in err

    def test_asymmetric_graph_file(self, tmp_path, capsys):
        # a file stores each pair once with i <= j, so it cannot hold an
        # asymmetric joint: the older dense layout and a pair with i > j
        # are malformed files
        for joint in ([[0.5, 0.5], [0.0, 0.0]],
                      {"rows": [0, 1], "cols": [0, 0], "vals": [0.5, 0.5]}):
            gpath = tmp_path / "asym.json"
            gpath.write_text(json.dumps({"d": 1, "vertices": [[0.0], [1.0]], "joint": joint}))
            cfg = write_config(
                tmp_path, {"version": 1, "graph": {"file": str(gpath)}})
            code, out, err = run(["graph-info", "--config", str(cfg)], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: MalformedGraphFile: "), joint


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

    def test_verify_records_the_seed_it_ran(self, tmp_path, capsys):
        # --seed, default 0, seeds the scenarios (a train section is a
        # config error: verify does not read it)
        cfg = write_config(tmp_path, {"version": 1})
        out_dir = tmp_path / "out"
        code, _, _ = run(["verify", "thm52", "--config", str(cfg),
                          "--out", str(out_dir)], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == [0]

    def test_verify_of_unseeded_scenarios_records_no_seed(self, tmp_path, capsys):
        # thm56 and thm58 draw no random data, so their verifiers take no
        # seed: --seed is refused rather than ignored, and a run without it
        # records none
        for theorem in ("thm56", "thm58"):
            code, out, err = run(["verify", theorem, "--seed", "4"], capsys)
            assert code == 2
            assert out == ""
            assert f"verify {theorem} takes no --seed" in err
        out_dir = tmp_path / "out"
        code, _, _ = run(["verify", "thm56", "--out", str(out_dir)], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == []

    def test_graph_info_records_no_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EXAMPLE1_CFG)
        out_dir = tmp_path / "out"
        code, _, _ = run(["graph-info", "--config", str(cfg),
                          "--out", str(out_dir)], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == []
        with pytest.raises(SystemExit):      # graph-info takes no --seed
            main(["graph-info", "--config", str(cfg), "--seed", "11"])


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
        assert set(solver["solves"]) == {"stacked", "subset", "iterative",
                                         "dense_fallback", "skipped", "lanczos_retries"}
        assert solver["solves"]["iterative"] == solver["solves"]["lanczos_retries"] == 0


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
        assert row["example"] == 1

    def test_disconnected_cells_give_no_bound(self, tmp_path, capsys):
        # two sub-clusters per point set: each label cell falls apart on
        # restriction, so beta is exactly 0 and theorem 3.1 gives no bound,
        # where a dense pencil's rounding noise gave beta ~ 6e-17 and bound 0.0
        graph = {"example": 3, "r": 2, "gamma": 2.0, "rho": 0.1, "labels": [1, 0],
                 "m": 2, "sub_clusters_per_set": 2}
        cfg = write_config(tmp_path, {"version": 1, "graph": graph,
                                      "class": {"tag": "tabular", "k": 2}})
        out_dir = tmp_path / "out"
        code, _, _ = run(["probe", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        row = json.loads((out_dir / "probe.json").read_text())
        assert row["assumptions"]["beta"] == 0.0
        assert row["bound"] is None

        lg = graph_from_config({"graph": graph})
        rep = measure_assumptions(lg.graph, partition_from_labels(lg.labels),
                                  spec_for_graph("tabular", k=2, graph=lg.graph))
        with pytest.raises(BetaZero):
            theorem31_bound(rep)

    def test_infinite_beta_written_as_infinite(self, tmp_path, capsys):
        # one point per set: no function varies on a label cell, so beta is
        # +inf, JSON writes it as "INFINITE", and the bound is alpha/beta * ... = 0
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"example": 3, "r": 2, "gamma": 1.0, "rho": 0.1, "labels": [0, 1],
                      "m": 2, "points_per_set": 1},
            "class": {"tag": "tabular", "k": 1},
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(["probe", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        text = (out_dir / "probe.json").read_text()
        assert '"beta": "INFINITE"' in text and '"beta": "INFINITE"' in out
        assert json.loads(text)["bound"] == 0.0

    def test_probe_json_names_a_two_level_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "graph": {"two_level": {"m": 2}},
                                      "class": {"tag": "linear", "k": 2}})
        out_dir = tmp_path / "out"
        code, _, _ = run(["probe", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        assert json.loads((out_dir / "probe.json").read_text())["example"] == "two_level"


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

    def test_prop4_counts_each_graph_that_fails(self, monkeypatch):
        monkeypatch.setattr(cli, "pair_discrepancy", lambda graph, g: 1e-3)
        row, = cli.verify_prop4(n_graphs=3)
        assert (row["measured"], row["pass"]) == (3, False)
        assert "worst discrepancy 1.00e-03" in row["check"]

    def test_thm31_accepts_n_graphs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "n_graphs": 1})
        code, out, _ = run(["verify", "thm31", "--config", str(cfg)], capsys)
        assert code == 0
        assert [json.loads(line)["theorem"] for line in out.strip().splitlines()] == [
            "thm31"]

    @pytest.mark.parametrize("theorem", ["thm52", "thm56", "thm58"])
    def test_n_graphs_rejected_where_no_scenario_takes_it(self, tmp_path, capsys,
                                                          theorem):
        cfg = write_config(tmp_path, {"version": 1, "n_graphs": 3})
        code, out, err = run(["verify", theorem, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert f"verify {theorem} does not read n_graphs" in err

    def test_example_mismatch_rejected(self, tmp_path, capsys):
        # every scenario builds its own instance, so a graph section is
        # refused rather than ignored, whichever example it names: thm52
        # runs on example 1 but at d=6, not the d=3 asked for here
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"example": 1, "d": 3, "s": 1}})
        for theorem in ("thm56", "thm52"):
            code, out, err = run(["verify", theorem, "--config", str(cfg)], capsys)
            assert code == 2
            assert out == ""
            assert "verify does not read graph" in err

    def test_verify_all_layout(self, capsys):
        # rows per scenario, and the exact ordered checks of the four
        # construction scenarios (thm52/54/58 share one contrast layout)
        code, out, _ = run(["verify", "all"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        counts = {}
        for row in rows:
            counts[row["theorem"]] = counts.get(row["theorem"], 0) + 1
        assert counts == {"prop4": 1, "thm31": 20, "thm42": 9, "thm52": 4,
                          "thm54": 4, "thm56": 3, "thm58": 4}
        checks = {name: [r["check"] for r in rows if r["theorem"] == name]
                  for name in ("thm52", "thm54", "thm56", "thm58")}
        assert checks == {
            "thm52": ["analytic zero-loss model: probe error <= 1e-6",
                      "trained model: probe error <= 1e-6",
                      "adversarial k=32: loss <= 1e-10",
                      "adversarial best-head error >= 1 - 1e-8"],
            "thm54": ["one-hot network k=4: loss <= 1e-10",
                      "one-hot network: parity probe error <= 1e-8",
                      "adversarial k=8: loss <= 1e-10",
                      "adversarial best-head error >= 1/2 - 1e-6"],
            "thm56": ["set-indicator model: Lipschitz <= sqrt(2r)/gamma",
                      "probe error <= 2*r*m*kappa^2*rho^2",
                      "set-indicator model: loss <= 1e-10"],
            "thm58": ["patch network k=2: loss <= 1e-10",
                      "patch network: probe error <= 1e-8",
                      "adversarial k=4: loss <= 1e-10",
                      "adversarial best-head error >= 1/2 - 1e-6"],
        }


def assert_same_labeled_graph(got, want):
    """Bit for bit: coordinates, joint, marginal, labels and class count."""
    pairs = [(got.graph.vertices, want.graph.vertices),
             (got.graph.marginal, want.graph.marginal),
             (got.labels, want.labels)]
    pairs += [(getattr(got.graph.joint, a), getattr(want.graph.joint, a))
              for a in ("data", "indices", "indptr")]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.n_classes == want.n_classes


class TestGraphFromConfig:
    """Each graph section builds what the direct synthdata call builds; a
    key the section leaves out takes synthdata's default."""

    def test_example3(self):
        got = graph_from_config({"graph": {"example": 3, "r": 3, "gamma": 2.0,
                                           "rho": 0.1, "labels": [0, 1, 0], "m": 2}})
        want = example3_graph(r=3, gamma=2.0, rho=0.1, labels=[0, 1, 0], m=2)
        assert_same_labeled_graph(got, want)

    def test_example3_sub_clusters(self):
        got = graph_from_config({"graph": {
            "example": 3, "r": 2, "points_per_set": 6, "sub_clusters_per_set": 3,
            "gamma": 1.5, "rho": 0.2, "labels": [1, 0], "m": 2}})
        want = example3_graph(r=2, gamma=1.5, rho=0.2, labels=[1, 0], m=2,
                              points_per_set=6, sub_clusters_per_set=3)
        assert_same_labeled_graph(got, want)

    def test_example4(self):
        got = graph_from_config({"graph": {"example": 4, "d": 4, "s": 1, "gamma": 2}})
        want = example4_graph(4, 1, 2.0)
        assert_same_labeled_graph(got, want)

    def test_example4_tau_grid(self):
        got = graph_from_config({"graph": {"example": 4, "d": 5, "s": 2, "gamma": 3.0,
                                           "tau_grid": [0, 1]}})
        want = example4_graph(5, 2, 3.0, tau_grid=(0.0, 1.0))
        assert_same_labeled_graph(got, want)

    def test_enumeration_label_map(self):
        got = graph_from_config({"graph": {"example": 2, "d": 4, "s": 2,
                                           "label_map": "enumeration"}})
        assert_same_labeled_graph(got, example2_labels(4, 2, enumeration_label_map(2)))
        assert got.n_classes == 4

    @pytest.mark.parametrize("name", ["parity", 3])
    def test_unknown_label_map(self, name):
        with pytest.raises(ConfigError, match="unknown label_map"):
            graph_from_config({"graph": {"example": 2, "d": 4, "s": 2,
                                         "label_map": name}})


# the keys each graph source reads, as README's table of graph sources lists
# them, and a config of each that gives every one of those keys
SOURCE_KEYS = {
    "file": {"file"},
    "random": {"n", "n_components", "seed"},
    "two_level": {"m", "seed", "cross_scale"},
    1: {"d", "s", "tau_grid", "label_dim"},
    2: {"d", "s", "tau_grid", "label_map"},
    3: {"r", "points_per_set", "gamma", "rho", "labels", "m", "sub_clusters_per_set"},
    4: {"d", "s", "gamma", "tau_grid"},
}
NESTED_SOURCES = ("random", "two_level")
FULL_SOURCES = {
    "file": {"file": "graph.json"},
    "random": {"random": {"n": 8, "n_components": 2, "seed": 3}},
    "two_level": {"two_level": {"m": 2, "seed": 1, "cross_scale": 0.01}},
    1: {"example": 1, "d": 4, "s": 2, "tau_grid": [0.5, 1.0], "label_dim": 1},
    2: {"example": 2, "d": 4, "s": 2, "tau_grid": [0.5, 1.0], "label_map": "enumeration"},
    3: {"example": 3, "r": 2, "points_per_set": 6, "gamma": 1.5, "rho": 0.2,
        "labels": [1, 0], "m": 2, "sub_clusters_per_set": 3},
    4: {"example": 4, "d": 5, "s": 2, "gamma": 3.0, "tau_grid": [0, 1]},
}
FOREIGN_KEYS = [(source, key) for source, keys in SOURCE_KEYS.items()
                for key in sorted(set().union(*SOURCE_KEYS.values()) - keys - {"file"})]


def source_keys(graph: dict, source) -> dict:
    """The object of graph section `graph` that holds `source`'s keys."""
    return graph[source] if source in NESTED_SOURCES else graph


class TestGraphSources:
    @pytest.mark.parametrize("source", list(FULL_SOURCES), ids=str)
    def test_each_source_takes_all_its_keys(self, tmp_path, source, single_vertex):
        graph = copy.deepcopy(FULL_SOURCES[source])
        assert set(source_keys(graph, source)) - {"example"} == SOURCE_KEYS[source]
        if source == "file":
            graph["file"] = str(tmp_path / "graph.json")
            save_graph(single_vertex, graph["file"])
        assert load_config(write_config(tmp_path, {"version": 1, "graph": graph}))
        assert graph_from_config({"graph": graph}).graph.n > 0

    @pytest.mark.parametrize("source, key", FOREIGN_KEYS,
                             ids=[f"{source}-{key}" for source, key in FOREIGN_KEYS])
    def test_key_of_another_source_is_refused(self, tmp_path, capsys, source, key):
        graph = copy.deepcopy(FULL_SOURCES[source])
        source_keys(graph, source)[key] = 1
        where = f"graph.{source}.{key}" if source in NESTED_SOURCES else f"graph.{key}"
        cfg = write_config(tmp_path, {"version": 1, "graph": graph})
        code, _, err = run(["graph-info", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == f"config error: unknown config key: {where}\n"

    def test_ci_and_readme_configs_load(self, tmp_path):
        # every config that CI writes with `echo '{...}' > name.json`, and
        # each JSON block of the README, passes the key checks and builds
        # its graph (a "file" graph only exists where CI writes it)
        root = Path(__file__).resolve().parents[1]
        ci = (root / ".github" / "workflows" / "tier1.yml").read_text()
        readme = (root / "README.md").read_text()
        docs = (re.findall(r"echo '(\{.*?\})' > \S+\.json", ci, re.S)
                + re.findall(r"```json\n(.*?)```", readme, re.S))
        assert len(docs) >= 11
        for doc in docs:
            cfg = load_config(write_config(tmp_path, json.loads(doc)))
            if "file" not in cfg["graph"]:
                assert graph_from_config(cfg).graph.n > 0, doc


class TestBr:
    def test_requires_r_list(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"version": 1, "graph": {"random": {"n": 6}}})
        code, _, err = run(["br", "--config", str(cfg)], capsys)
        assert code == 2
        assert "r_list" in err

    @pytest.fixture(scope="class")
    def two_level(self, tmp_path_factory):
        """`pairlab br` on the default grid of a two-level graph: its exit
        code, its stdout and the rows of its report.csv."""
        tmp = tmp_path_factory.mktemp("two_level")
        cfg = write_config(tmp, {
            "version": 1,
            "graph": {"two_level": {"m": 4}},
            "classes": [{"tag": "linear"}, {"tag": "relu"}, {"tag": "tabular"}],
            "r_list": [4],
        })
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["br", "--config", str(cfg), "--out", str(tmp / "out")])
        with open(tmp / "out" / "report.csv", newline="") as fh:
            return code, out.getvalue(), list(csv.DictReader(fh))

    def test_default_grid_on_two_level_graph(self, two_level):
        code, out, cells = two_level
        assert code == 0
        assert out.count("class=") == 3
        # relu cells near a ReLU kink at large lambda used to stop on their
        # step size far from the minimum (b = 0.25 and 0.75)
        relu = [float(c["b_value"]) for c in cells
                if c["class"] == "relu" and c["whiten_ok"] == "1"]
        assert len(relu) == 7 and max(relu) <= 0.01

    def test_cells_say_how_they_started(self, two_level):
        # from the second lambda on, a cell starts from the previous
        # lambda's iterate unless that iterate cannot be whitened, as the
        # collapsed relu iterates of lambda < 1 cannot
        for cell in two_level[2]:
            lam = float(cell["lambda"])
            own = lam == 0.1 or (cell["class"] == "relu" and lam <= 1.0)
            assert cell["start"] == ("own" if own else "previous_lambda"), cell

    def test_unwhitenable_linear_row_is_refused_before_training(
            self, tmp_path, capsys, monkeypatch):
        # d = 3, so f = Ux has rank at most 3 and r = 5 can never be whitened
        import pairlab.septest

        def no_training(*args, **kwargs):
            raise AssertionError("train_grid was called")

        monkeypatch.setattr(pairlab.septest, "train_grid", no_training)
        cfg = write_config(tmp_path, {
            "version": 1,
            "graph": {"random": {"n": 150, "n_components": 3, "seed": 5}},
            "classes": [{"tag": "linear"}, {"tag": "tabular"}],
            "r_list": [2, 5],
        })
        code, out, err = run(["br", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "config error: class=linear, r=5:" in err
        assert "rank(X^T D X) = 3" in err

    def test_linear_row_on_coordinates_of_dimension_zero(self, tmp_path, capsys):
        # rank(X^T D X) of a 0-dimensional graph is 0: no r = 1 linear cell
        gpath = tmp_path / "graph.json"
        gpath.write_text(json.dumps({"d": 0, "vertices": [[]],
                                     "joint": {"rows": [0], "cols": [0], "vals": [1.0]}}))
        cfg = write_config(tmp_path, {"version": 1, "graph": {"file": str(gpath)},
                                      "class": {"tag": "linear"}, "r_list": [1]})
        code, out, err = run(["br", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: class=linear, r=1: ")
        assert "rank(X^T D X) = 0" in err

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
        assert report[0] == "r,lambda,b_value,whiten_ok,seed,class,stop_reason,evals,start"
        assert len(report) == 1 + 2 * 2 * 2
        for line in report[1:]:
            reason, evals, start = line.split(",")[-3:]
            assert reason in ("converged", "min_step", "max_iters")
            assert int(evals) >= 1
            assert start in ("own", "previous_lambda")
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

    def test_import_leaves_out_scipy_spatial(self):
        # only the functions that measure distances import it, when called
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pairlab; print('scipy.spatial' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
