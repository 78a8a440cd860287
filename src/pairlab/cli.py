"""Command-line front end: experiments, verification suite, reports.

Subcommands
-----------
graph-info   build a graph from config, print size / components / spectrum head
spectrum     write the leading eigenvalues to CSV
train        minimize the loss for a configured class and lambda
probe        train and evaluate a linear head, with measured assumptions
verify ID    run one of the scripted guarantee checks (see VERIFIERS)
br           run the r-way separability protocol and write its tables

Configs are JSON with a mandatory "version" field; unknown keys anywhere
are rejected (fail-closed).  Every command that writes outputs also writes
a manifest (config hash, seeds, package version, command, output names) so
runs can be reproduced bit-for-bit.  Exit codes: 0 success / all checks
pass, 1 verification failure, 2 usage or config errors.

The verify_* functions are importable and return plain row dicts
{theorem, check, measured, bound, pass}; the ids are fixed interface
tokens naming each scripted check.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, IncompatibleConfig, PairLabError
from .posgraph import (
    PositivePairGraph,
    connected_components,
    cross_cluster_mass,
    load_graph,
    partition_from_labels,
)
from .spectral import INFINITE, eigendecompose, is_eigenfunction, pair_discrepancy
from .synthdata import (
    LabeledGraph,
    component_constant_function,
    enumeration_label_map,
    example1_graph,
    example2_labels,
    example3_graph,
    example4_graph,
    random_graph,
    two_level_graph,
    xor_label_map,
)
from .funclass import (
    construct_adversarial_universal,
    construct_example1_optimal,
    construct_example2_optimal,
    construct_example4_adversarial_relu,
    construct_example4_optimal,
    forward,
    lipschitz_constant,
    save_model,
    spec_for_graph,
    zero_loss_certificate,
)
from .objective import (
    TrainConfig,
    linear_min_oracle,
    linear_rank,
    population_loss,
    save_trace,
    tabular_min_oracle,
    train,
)
from .probe import (
    fit_linear_head,
    measure_assumptions,
    measure_eigenspace_quantities,
    probe_error,
    theorem31_bound,
    theorem42_bound,
    theorem56_bound,
)
from .septest import (
    DEFAULT_LAMBDA_GRID,
    br_table,
    write_report_csv,
    write_summary_csv,
)

# ---------------------------------------------------------------------------
# config handling (fail-closed)

_CONFIG_VERSION = 1

# allowed key tree; a dict value means "nested keys checked recursively",
# None means "scalar/list leaf"
_SCHEMA = {
    "version": None,
    "graph": None,      # each source's own keys: _GRAPH_SOURCES
    "class": {"tag": None, "k": None, "s": None},
    "classes": None,
    "lambda": None,
    "lambda_grid": None,
    "r_list": None,
    "count": None,
    "n_graphs": None,
    "train": dict.fromkeys(field.name for field in dataclasses.fields(TrainConfig)),
}

def _check_keys(doc, schema, path: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_keys(value, sub, where)


def load_config(path: Optional[Path]) -> dict:
    """Parse and validate a config file; {} when no path is given."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(doc, _SCHEMA, "")
    if "graph" in doc:
        _graph_source(doc["graph"])
    if doc.get("version") != _CONFIG_VERSION:
        raise ConfigError(
            f"config must declare \"version\": {_CONFIG_VERSION} "
            f"(got {doc.get('version')!r})"
        )
    classes = doc.get("classes") or []
    if not isinstance(classes, list):
        raise ConfigError("classes must be a list")
    for entry in classes:
        _check_keys(entry, _SCHEMA["class"], "classes")
    return doc


@contextlib.contextmanager
def _config_values(section: str):
    """Raise a missing key (KeyError), a bad value (TypeError, ValueError)
    or an unreadable file (OSError) met while reading config `section` as
    ConfigError; used as a decorator on the function that reads it."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{section} needs key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _value(cfg: dict, key: str, convert, default=None):
    """Top-level config value `key` (or `default`) read with `convert`."""
    with _config_values(key):
        return convert(cfg.get(key, default))


def _given(section: dict, required: Sequence[str] = (), **readers) -> dict:
    """Each key of `readers` that config `section` gives, read with its
    reader; a key in `required` that it does not give raises KeyError."""
    given = {}
    for key, read in readers.items():
        if key in section or key in required:
            try:
                given[key] = read(section[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from exc
    return given


def _integer(value) -> int:
    """`value` if it is a JSON integer; true and false are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"need an integer, got {value!r}")
    return value


def _number(value) -> float:
    """`value` as a float if it is a finite JSON integer or float (not a
    bool, and not the NaN and Infinity that Python's json reads)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:               # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"need a finite number, got {value!r}")
    return number


def _positive_int(value) -> int:
    if _integer(value) < 1:
        raise ValueError(f"need an integer >= 1, got {value!r}")
    return value


def _positive_float(value) -> float:
    number = _number(value)
    if not number > 0:
        raise ValueError(f"need a number > 0, got {value!r}")
    return number


def _list_of(convert):
    """Reader of a nonempty list whose items are read with `convert`."""
    def read(value):
        if not isinstance(value, list) or not value:
            raise ValueError(f"need a nonempty list, got {value!r}")
        return [convert(item) for item in value]
    return read


def _string(value) -> str:
    """`value` if it is a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"need a string, got {value!r}")
    return value


def _label_map(name):
    if name not in ("xor", "enumeration"):
        raise ValueError(f"unknown label_map {name!r}")
    return xor_label_map if name == "xor" else enumeration_label_map


_HYPERCUBE_KEYS = {"d": _integer, "s": _integer, "tau_grid": _list_of(_number)}
# graph sources: name -> (required keys, the reader of each key, builder).  Example N
# is named by "example": N; "random" and "two_level" hold their keys in an object.
_GRAPH_SOURCES = {
    "file": (["file"], {"file": _string}, lambda file: LabeledGraph(load_graph(file))),
    "random": (["n"], {"n": _integer, "n_components": _integer, "seed": _integer},
               lambda **keys: LabeledGraph(random_graph(**keys))),
    "two_level": (["m"], {"m": _integer, "seed": _integer, "cross_scale": _number},
                  two_level_graph),
    1: (["d", "s"], {**_HYPERCUBE_KEYS, "label_dim": _integer}, example1_graph),
    2: (["d", "s"], {**_HYPERCUBE_KEYS, "label_map": _label_map},
        lambda label_map=xor_label_map, **keys: example2_labels(label_map=label_map, **keys)),
    3: (["r", "gamma", "rho", "labels", "m"], {
        "r": _integer, "points_per_set": _integer, "gamma": _number, "rho": _number,
        "labels": _list_of(_integer), "m": _integer, "sub_clusters_per_set": _integer},
        example3_graph),
    4: (["d", "s", "gamma"], {"d": _integer, "s": _integer, "gamma": _number,
                              "tau_grid": _list_of(_number)}, example4_graph),
}


def _graph_source(gcfg) -> tuple:
    """The name, keys and entry of the one source graph section `gcfg` names."""
    if not isinstance(gcfg, dict):
        raise ConfigError("config needs a \"graph\" object")
    named = [key for key in gcfg if key in _GRAPH_SOURCES or key == "example"]
    if len(named) != 1:
        raise ConfigError("graph must name one source of file, random, two_level and "
                          f"example; it has keys: {', '.join(gcfg) or 'none'}")
    name = _value(gcfg, "example", _integer) if named == ["example"] else named[0]
    if name not in _GRAPH_SOURCES:
        raise ConfigError(f"graph: unknown example {name}")
    readers = _GRAPH_SOURCES[name][1]
    nested = isinstance(name, str) and name not in readers
    _check_keys(gcfg, {name: readers} if nested else {"example": None, **readers}, "graph")
    return name, gcfg[name] if nested else gcfg, _GRAPH_SOURCES[name]


@_config_values("graph")
def graph_from_config(cfg: dict) -> LabeledGraph:
    """Build the configured graph; labels may be None for raw graphs."""
    _, keys, (required, readers, build) = _graph_source(cfg.get("graph"))
    return build(**_given(keys, required, **readers))


@_config_values("train")
def train_config_from(cfg: dict, seed_override: Optional[int]) -> TrainConfig:
    t = dict(cfg.get("train", {}))
    if seed_override is not None:
        t["seed"] = int(seed_override)
    return TrainConfig(**t)


# ---------------------------------------------------------------------------
# manifest / output helpers


def _py(obj):
    """Make numpy values / dataclasses JSON-serializable."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is INFINITE:
        return "INFINITE"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return { k: _py(v) for k, v in dataclasses.asdict(obj).items() }
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    return obj


def write_manifest(out_dir: Path, command: str, config_doc: dict,
                   seeds: List[int], outputs: List[str]) -> None:
    blob = json.dumps(config_doc, sort_keys=True).encode()
    doc = {
        "command": command,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seeds": seeds,
        "package_version": __version__,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2,
                                                      sort_keys=True) + "\n")


def _emit(out: Optional[Path], command: str, config_doc: dict,
          seeds: List[int], files: Dict[str, object]) -> None:
    """Write named JSON payloads plus the manifest when --out is given."""
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for name, payload in files.items():
        if callable(payload):
            payload(out / name)          # writer functions (CSV)
        else:
            (out / name).write_text(
                json.dumps(_py(payload), indent=2, sort_keys=True) + "\n")
        names.append(name)
    write_manifest(out, command, config_doc, seeds, names + ["manifest.json"])


# ---------------------------------------------------------------------------
# scripted verification scenarios
#
# Each returns rows {theorem, check, measured, bound, pass}.  "measured"
# compares against "bound" in the direction stated by the check text.


def _row(theorem: str, check: str, measured, bound, ok) -> dict:
    return {
        "theorem": theorem,
        "check": check,
        "measured": float(measured),
        "bound": float(bound),
        "pass": bool(ok),
    }


def _zero_loss_row(theorem: str, what: str, model, graph) -> dict:
    """Row: the loss of `model` (at lambda = 1) is at most 1e-10."""
    loss = zero_loss_certificate(model, graph)["loss"]
    return _row(theorem, f"{what}: loss <= 1e-10", loss, 1e-10, loss <= 1e-10)


def _probe_row(theorem: str, check: str, graph, F, targets, bound) -> dict:
    """Row: the probe error of representations F is at most `bound`."""
    err = probe_error(graph, F, targets)
    return _row(theorem, check, err, bound, err <= bound)


def _contrast_rows(theorem: str, graph, targets, in_class, adversary,
                   floor: float, floor_text: str) -> List[dict]:
    """Rows of an architecture theorem's contrast.  Each in-class entry
    (name, model, check, bound, with_loss) gives a `name k=...` loss row
    when `with_loss`, then `name: check` (probe error <= bound); the
    zero-loss adversary then gives its loss row and its best-head error
    (>= floor, written `floor_text`).  Forward passes run row by row."""
    rows = []
    for name, model, check, bound, with_loss in in_class:
        if with_loss:
            rows.append(_zero_loss_row(theorem, f"{name} k={model.k}", model, graph))
        rows.append(_probe_row(theorem, f"{name}: {check}", graph,
                               forward(model, graph), targets, bound))
    rows.append(_zero_loss_row(theorem, f"adversarial k={adversary.k}", adversary, graph))
    err = probe_error(graph, forward(adversary, graph), targets)
    return rows + [_row(theorem, f"adversarial best-head error >= {floor_text}",
                        err, floor, err >= floor)]


def verify_prop4(n_graphs: int = 200, seed: int = 0) -> List[dict]:
    """Component-constant functions are 0-eigenfunctions.

    Random disconnected graphs; a random function constant on each
    component has zero pair discrepancy and must pass the eigenfunction
    residual test at eigenvalue 0, tolerance 1e-10.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for i in range(n_graphs):
        n = int(rng.integers(5, 25))
        n_comp = int(rng.integers(2, min(6, n)))
        graph = random_graph(n, n_components=n_comp, seed=seed + 7919 * i + 1)
        g = component_constant_function(graph, seed=seed + 104729 * i + 3)
        disc = pair_discrepancy(graph, g)
        worst = max(worst, disc)
        if disc != 0.0 or not is_eigenfunction(graph, g, 0.0, 1e-10):
            failures += 1
    return [_row("prop4",
                 f"{n_graphs} random disconnected graphs: failures == 0 "
                 f"(worst discrepancy {worst:.2e})",
                 failures, 0, failures == 0)]


def verify_thm31(n_graphs: int = 20, seed: int = 0) -> List[dict]:
    """Probe error of the exact in-class minimizer is controlled by
    (alpha/beta) * (P_max / (P_min - alpha)) on two-level cluster graphs.

    Outer clusters are linearly indicated (implementable); inner
    sub-clusters are parity pairs no linear map separates, so the
    class-restricted expansion beta stays away from 0 while the
    unrestricted split would be free.
    """
    rows = []
    for i in range(n_graphs):
        m = 2 + (i % 3)
        lg = two_level_graph(m, seed=seed + 31 * i)
        graph = lg.graph
        part = partition_from_labels(lg.labels)
        class_spec = spec_for_graph("linear", k=m, graph=graph)
        rep = measure_assumptions(graph, part, class_spec)
        bound = theorem31_bound(rep)
        _, model = linear_min_oracle(graph, m, lam=1.0)
        err = probe_error(graph, forward(model, graph), lg.labels)
        ok = err <= bound and rep.implementable and rep.beta_certified
        beta_txt = "inf" if rep.beta is INFINITE else f"{rep.beta:.3g}"
        rows.append(_row(
            "thm31",
            f"graph {i} (m={m}, alpha={rep.alpha:.2e}, beta={beta_txt}): "
            f"probe error <= bound",
            err, bound, ok))
    return rows


def verify_thm42(d: int = 4, s_values: Sequence[int] = (1, 2, 3),
                 lam: float = 10.0, seed: int = 0) -> List[dict]:
    """Probe error of the unconstrained-loss minimizer is controlled by
    2*zeta + 4*B^2*k*eps + 16*phi*B^2*k/lambda, quantities measured
    against the exact component-indicator eigenbasis.

    Both the closed-form minimizer and a gradient-trained one are checked
    on hypercube instances.  When the measured eigenspace quantities are
    numerically zero the error must be <= 1e-8 outright.
    """
    rows = []
    for s in s_values:
        lg = example1_graph(d, s)
        graph = lg.graph
        part = connected_components(graph)
        m = part.n_sets
        masses = part.masses(graph)
        FE = np.zeros((graph.n, m))
        FE[np.arange(graph.n), part.labels] = 1.0 / np.sqrt(masses[part.labels])

        _, oracle_model = tabular_min_oracle(graph, m, lam)
        trained, _ = train(graph, spec_for_graph("tabular", m, graph), lam,
                           TrainConfig(seed=seed))
        for route, model in (("closed-form", oracle_model), ("trained", trained)):
            F = forward(model, graph)
            rep = measure_eigenspace_quantities(graph, FE, list(F.T), lg.labels)
            bound = theorem42_bound(rep, m, lam)
            err = probe_error(graph, F, lg.labels)
            rows.append(_row(
                "thm42",
                f"s={s} {route} minimizer: probe error <= bound "
                f"(phi={rep.phi:.2e}, eps={rep.epsilon:.2e}, "
                f"zeta={rep.zeta:.2e})",
                err, bound, err <= bound))
            if route == "closed-form" and max(rep.phi, rep.epsilon,
                                              rep.zeta) <= 1e-15:
                rows.append(_row(
                    "thm42",
                    f"s={s}: near-exact quantities branch, error <= 1e-8",
                    err, 1e-8, err <= 1e-8))
    return rows


def verify_thm52(d: int = 6, s: int = 2, seed: int = 0) -> List[dict]:
    """Hypercube instance, linear class, k = s.

    Upper branch: the invariant-block projection and a gradient-trained
    linear model both reach probe error <= 1e-6 on the sign label.  Lower
    branch: the adversarial universal minimizer with k = 2^(d-1), keyed on
    every coordinate except the label one, reaches loss <= 1e-10 while its
    best linear head has error >= 1 - 1e-8.
    """
    lg = example1_graph(d, s)
    graph = lg.graph
    y = 2.0 * lg.labels.astype(np.float64) - 1.0   # scalar +-1 sign target
    trained, _ = train(graph, spec_for_graph("linear", s, graph), lam=1.0,
                       config=TrainConfig(seed=seed))
    return _contrast_rows("thm52", graph, y, [
        ("analytic zero-loss model", construct_example1_optimal(d, s),
         "probe error <= 1e-6", 1e-6, False),
        ("trained model", trained, "probe error <= 1e-6", 1e-6, False),
    ], construct_adversarial_universal(graph, 2 ** (d - 1), key_dims=list(range(1, d))),
        1.0 - 1e-8, "1 - 1e-8")


def verify_thm54(d: int = 5, s: int = 2, seed: int = 0) -> List[dict]:
    """Hypercube instance with a parity labeling, one-hidden-layer class.

    Upper branch: the sign-pattern one-hot network (k = 2^s) verifies
    exhaustively, has loss 0, and probes the parity label to <= 1e-8.
    Lower branch: the universal minimizer keyed on the scaled coordinates
    (k = 2^(d-s)) has loss <= 1e-10 and best-head error >= 1/2 - 1e-6.
    """
    lg = example2_labels(d, s, xor_label_map(s))
    graph = lg.graph
    return _contrast_rows("thm54", graph, lg.labels, [
        ("one-hot network", construct_example2_optimal(s, graph),
         "parity probe error <= 1e-8", 1e-8, True),
    ], construct_adversarial_universal(graph, 2 ** (d - s), key_dims=list(range(s, d))),
        0.5 - 1e-6, "1/2 - 1e-6")


def verify_thm56(r: int = 3, m: int = 2, gamma: float = 2.0,
                 rho: float = 0.1) -> List[dict]:
    """Well-separated point sets: the scaled set-indicator representation
    is kappa-Lipschitz with kappa = sqrt(2r)/gamma and probes the labels
    with error <= 2*r*m*kappa^2*rho^2.
    """
    lg = example3_graph(r, gamma, rho, [i % m for i in range(r)], m, points_per_set=4)
    graph = lg.graph

    sets = np.repeat(np.arange(r), 4)
    F = np.sqrt(r) * np.eye(r)[sets]
    table = spec_for_graph("tabular", r, graph).model(F.ravel())

    kappa = np.sqrt(2.0 * r) / gamma
    lip = lipschitz_constant(table, graph)
    return [
        _row("thm56", "set-indicator model: Lipschitz <= sqrt(2r)/gamma",
             lip, kappa, lip <= kappa),
        _probe_row("thm56", "probe error <= 2*r*m*kappa^2*rho^2",
                   graph, F, lg.labels, theorem56_bound(r, m, kappa, rho)),
        _zero_loss_row("thm56", "set-indicator model", table, graph),
    ]


def verify_thm58(d: int = 4, s: int = 1, gamma: float = 2.0) -> List[dict]:
    """Patch instance, convolutional class.

    Upper branch: the patch-detector convolutional network has loss 0 and
    probes the patch label to <= 1e-8.  Lower branch: the derived
    one-hidden-layer adversarial minimizer indicating k = d*2^s/2
    (location, pattern) clusters has loss <= 1e-10 and best-head error
    >= 1/2 - 1e-6.
    """
    lg = example4_graph(d, s, gamma)
    graph = lg.graph
    return _contrast_rows("thm58", graph, lg.labels, [
        ("patch network", construct_example4_optimal(s, gamma, graph),
         "probe error <= 1e-8", 1e-8, True),
    ], construct_example4_adversarial_relu(s, gamma, (d * 2 ** s) // 2, graph),
        0.5 - 1e-6, "1/2 - 1e-6")


VERIFIERS = {
    "prop4": verify_prop4,
    "thm31": verify_thm31,
    "thm42": verify_thm42,
    "thm52": verify_thm52,
    "thm54": verify_thm54,
    "thm56": verify_thm56,
    "thm58": verify_thm58,
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_graph_info(args, cfg: dict) -> int:
    lg = graph_from_config(cfg)
    graph = lg.graph
    part = connected_components(graph)
    dec = eigendecompose(graph, min(10, graph.n))
    report = {
        "n": graph.n,
        "d": graph.d,
        "components": part.n_sets,
        "alpha_component_partition": cross_cluster_mass(graph, part),
        "spectrum_head": dec.eigenvalues,
        "eigensolver": _eigensolver(dec),
        "n_classes": lg.n_classes,
    }
    print(json.dumps(_py(report), indent=2, sort_keys=True))
    _emit(args.out, "graph-info", cfg, [], {"report.json": report})
    return 0


def cmd_spectrum(args, cfg: dict) -> int:
    graph = graph_from_config(cfg).graph
    count = min(_value(cfg, "count", _positive_int, 10), graph.n)
    dec = eigendecompose(graph, count)
    print(json.dumps(_py({"eigenvalues": dec.eigenvalues,
                          "eigensolver": _eigensolver(dec)}), indent=2))

    def _write_csv(path):
        with open(path, "w") as fh:
            fh.write("index,eigenvalue\n")
            for i, v in enumerate(dec.eigenvalues):
                fh.write(f"{i},{float(v)!r}\n")

    _emit(args.out, "spectrum", cfg, [],
          {"eigenvalues.csv": _write_csv, "eigensolver.json": _eigensolver(dec)})
    return 0


def _eigensolver(dec) -> dict:
    """What `eigendecompose` reports about its own solve: no wall times."""
    return {"n_components": dec.n_components, "max_residual": dec.max_residual,
            "solves": dec.solves}


@_config_values("class")
def _class_spec_from(ccfg: Optional[dict], graph: PositivePairGraph):
    if ccfg is None:
        raise ConfigError("config needs a \"class\" section")
    tag = ccfg.get("tag", "tabular")
    if "s" in ccfg and tag != "conv":
        raise ConfigError(f"class.s is the conv window length; class {tag} does not read it")
    given = _given(ccfg, k=_integer, s=_integer)
    return spec_for_graph(tag, given.pop("k", 2), graph, **given)


def cmd_train(args, cfg: dict) -> int:
    graph = graph_from_config(cfg).graph
    class_spec = _class_spec_from(cfg.get("class"), graph)
    lam = _value(cfg, "lambda", _positive_float, 1.0)
    config = train_config_from(cfg, args.seed)
    model, trace = train(graph, class_spec, lam, config)
    report = population_loss(graph, model, lam)
    print(json.dumps(_py({"loss": report, "class": class_spec.class_tag,
                          "k": class_spec.k, "lambda": lam}), indent=2))
    _emit(args.out, "train", cfg, [config.seed], {
        "model.json": lambda p: save_model(model, p),
        "trace.csv": lambda p: save_trace(trace, p),
        "loss.json": {**dataclasses.asdict(report), "stop": model.meta["stop"]},
    })
    return 0


def cmd_probe(args, cfg: dict) -> int:
    lg = graph_from_config(cfg)
    graph = lg.graph
    if lg.labels is None:
        raise IncompatibleConfig("probe needs a labeled graph")
    class_spec = _class_spec_from(cfg.get("class"), graph)
    lam = _value(cfg, "lambda", _positive_float, 1.0)
    config = train_config_from(cfg, args.seed)
    model, _ = train(graph, class_spec, lam, config)
    F = forward(model, graph)
    fit = fit_linear_head(graph, F, lg.labels)

    part = partition_from_labels(lg.labels)
    assumptions = measure_assumptions(graph, part, class_spec)
    try:
        bound = theorem31_bound(assumptions)
    except PairLabError:
        bound = None
    row = {
        "example": _graph_source(cfg["graph"])[0],
        "class": class_spec.class_tag,
        "k": class_spec.k,
        "lambda": lam,
        "error": fit.error,
        "bound": bound,
        "assumptions": assumptions,
    }
    print(json.dumps(_py(row), indent=2, sort_keys=True))
    _emit(args.out, "probe", cfg, [config.seed], {"probe.json": row})
    return 0


def cmd_verify(args, cfg: dict) -> int:
    names = list(VERIFIERS) if args.theorem == "all" else [args.theorem]
    # each scenario gets those of the seed and n_graphs its verifier takes
    takes = {name: inspect.signature(VERIFIERS[name]).parameters for name in names}
    given = {"seed": args.seed or 0}
    seeded = any("seed" in params for params in takes.values())
    if args.seed is not None and not seeded:
        raise ConfigError(f"verify {args.theorem} takes no --seed")
    if "n_graphs" in cfg:
        if not any("n_graphs" in params for params in takes.values()):
            raise ConfigError(f"verify {args.theorem} does not read n_graphs")
        given["n_graphs"] = _value(cfg, "n_graphs", _positive_int)
    all_rows = []
    for name in names:
        all_rows.extend(VERIFIERS[name](
            **{key: value for key, value in given.items() if key in takes[name]}))
    for row in all_rows:
        print(json.dumps(_py(row), sort_keys=True))
    ok = all(r["pass"] for r in all_rows)
    _emit(args.out, "verify", cfg, [given["seed"]] if seeded else [],
          {"verdict.json": {"rows": all_rows, "pass": ok}})
    return 0 if ok else 1


def cmd_br(args, cfg: dict) -> int:
    graph = graph_from_config(cfg).graph
    r_list = _value(cfg, "r_list", _list_of(_positive_int))
    if "class" in cfg and "classes" in cfg:
        raise ConfigError("br takes class or classes, not both")
    entries = (_value(cfg, "classes", _list_of(dict)) if "classes" in cfg
               else [cfg.get("class") or {"tag": "tabular"}])
    if any("k" in entry for entry in entries):
        raise ConfigError("br trains every class at k = r; remove \"k\" from its classes")
    class_specs = [_class_spec_from(e, graph) for e in entries]   # k is set to each r
    if any(spec.class_tag == "linear" for spec in class_specs):
        rank = linear_rank(graph)
        for r in r_list:
            if r > rank:
                raise ConfigError(
                    f"class=linear, r={r}: f = Ux has at most rank(X^T D X) = "
                    f"{rank} independent outputs on this graph, so no r={r} "
                    f"cell can be whitened")
    grid = tuple(_value(cfg, "lambda_grid", _list_of(_positive_float),
                        list(DEFAULT_LAMBDA_GRID)))
    config = train_config_from(cfg, args.seed)
    report = br_table(graph, class_specs, r_list, grid, config)
    for row in report.rows:
        oracle = "" if row.oracle is None else f"  oracle={row.oracle:.6g}"
        print(f"class={row.class_tag}  r={row.r}  b_r={row.b_r:.6g}{oracle}")
    _emit(args.out, "br", cfg, [config.seed], {
        "report.csv": lambda p: write_report_csv(report, p),
        "summary.csv": lambda p: write_summary_csv(report, p),
    })
    return 0


# ---------------------------------------------------------------------------
# entry point


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairlab",
        description="finite positive-pair graph laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed_help: Optional[str] = None):
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config file (fail-closed keys)")
        sp.add_argument("--out", type=Path, default=None,
                        help="output directory (writes a manifest)")
        if seed_help:
            sp.add_argument("--seed", type=int, default=None, help=seed_help)

    override = "override train.seed"
    common(sub.add_parser("graph-info", help="graph size / components / spectrum"))
    common(sub.add_parser("spectrum", help="leading eigenvalues to CSV"))
    common(sub.add_parser("train", help="minimize the loss for a class"), override)
    common(sub.add_parser("probe", help="train then fit a linear head"), override)
    vp = sub.add_parser("verify", help="run a scripted guarantee check")
    vp.add_argument("theorem", choices=sorted(VERIFIERS) + ["all"])
    common(vp, "seed of the scenarios that draw random data (default 0)")
    common(sub.add_parser("br", help="r-way separability tables"), override)
    return parser


# each command's handler and the top-level config keys it reads, besides
# "version"; any other is a config error rather than a section that is
# silently ignored
_HANDLERS = {
    "graph-info": (cmd_graph_info, {"graph"}),
    "spectrum": (cmd_spectrum, {"graph", "count"}),
    "train": (cmd_train, {"graph", "class", "lambda", "train"}),
    "probe": (cmd_probe, {"graph", "class", "lambda", "train"}),
    "verify": (cmd_verify, {"n_graphs"}),
    "br": (cmd_br, {"graph", "class", "classes", "lambda_grid", "r_list", "train"}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "seed", None) or 0) < 0:
        parser.error(f"argument --seed: need an integer >= 0, got {args.seed}")
    try:
        cfg = load_config(args.config)
        handler, reads = _HANDLERS[args.command]
        unread = sorted(set(cfg) - reads - {"version"})
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
        return handler(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PairLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
