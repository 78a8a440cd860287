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
import dataclasses
import hashlib
import json
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
    Example1Spec,
    Example3Spec,
    Example4Spec,
    LabeledGraph,
    component_constant_function,
    enumeration_label_map,
    example1_graph,
    example2_labels,
    example3_graph,
    example3_lattice,
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
    "graph": {
        "example": None,
        "file": None,
        "d": None,
        "s": None,
        "tau_grid": None,
        "label_dim": None,
        "label_map": None,
        "gamma": None,
        "rho": None,
        "r": None,
        "points_per_set": None,
        "labels": None,
        "m": None,
        "sub_clusters_per_set": None,
        "random": {"n": None, "n_components": None, "seed": None},
        "two_level": {"m": None, "seed": None, "cross_scale": None},
    },
    "class": {"tag": None, "k": None, "s": None},
    "classes": None,
    "lambda": None,
    "lambda_grid": None,
    "r_list": None,
    "count": None,
    "n_graphs": None,
    "train": {
        "step_size": None,
        "max_iters": None,
        "seed": None,
        "init_scale": None,
        "grad_tol": None,
        "n_starts": None,
    },
}

_CLASS_KEYS = set(_SCHEMA["class"])


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
    if doc.get("version") != _CONFIG_VERSION:
        raise ConfigError(
            f"config must declare \"version\": {_CONFIG_VERSION} "
            f"(got {doc.get('version')!r})"
        )
    for entry in doc.get("classes", []) or []:
        if not isinstance(entry, dict):
            raise ConfigError("classes entries must be objects")
        bad = set(entry) - _CLASS_KEYS
        if bad:
            raise ConfigError(f"unknown config key: classes.{sorted(bad)[0]}")
    return doc


def graph_from_config(cfg: dict) -> LabeledGraph:
    """Build the configured graph; labels may be None for raw graphs."""
    gcfg = cfg.get("graph")
    if not gcfg:
        raise ConfigError("config needs a \"graph\" section")
    if "file" in gcfg:
        graph = load_graph(gcfg["file"])
        return LabeledGraph(graph=graph, labels=None, n_classes=0)
    if "random" in gcfg:
        r = gcfg["random"]
        graph = random_graph(int(r["n"]), int(r.get("n_components", 1)),
                             seed=int(r.get("seed", 0)))
        return LabeledGraph(graph=graph, labels=None, n_classes=0)
    if "two_level" in gcfg:
        t = gcfg["two_level"]
        return two_level_graph(int(t["m"]), seed=int(t.get("seed", 0)),
                               cross_scale=float(t.get("cross_scale", 1e-3)))
    example = gcfg.get("example")
    if example == 1 or example == 2:
        spec = Example1Spec(
            d=int(gcfg["d"]), s=int(gcfg["s"]),
            tau_grid=tuple(gcfg.get("tau_grid", (0.5, 1.0))),
            label_dim=int(gcfg.get("label_dim", 0)),
        )
        if example == 1:
            return example1_graph(spec)
        name = gcfg.get("label_map", "xor")
        if name == "xor":
            label_map = xor_label_map(spec.s)
        elif name == "enumeration":
            label_map = enumeration_label_map(spec.s)
        else:
            raise ConfigError(f"unknown label_map {name!r}")
        return example2_labels(spec, label_map)
    if example == 3:
        spec3 = example3_lattice(
            r=int(gcfg["r"]), points_per_set=int(gcfg.get("points_per_set", 4)),
            gamma=float(gcfg["gamma"]), rho=float(gcfg["rho"]),
            labels=tuple(int(x) for x in gcfg["labels"]), m=int(gcfg["m"]),
            sub_clusters_per_set=int(gcfg.get("sub_clusters_per_set", 1)),
        )
        return example3_graph(spec3)
    if example == 4:
        spec4 = Example4Spec(
            d=int(gcfg["d"]), s=int(gcfg["s"]), gamma=float(gcfg["gamma"]),
            tau_grid=tuple(gcfg.get("tau_grid", (0.0, 0.5, 1.0))),
        )
        return example4_graph(spec4)
    raise ConfigError(f"graph section does not describe a known source: {gcfg}")


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
    rows = [_row("prop4",
                 f"{n_graphs} random disconnected graphs: failures == 0 "
                 f"(worst discrepancy {worst:.2e})",
                 failures, 0, failures == 0)]
    return rows


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
        spec = Example1Spec(d=d, s=s)
        lg = example1_graph(spec)
        graph = lg.graph
        part = connected_components(graph)
        m = part.n_sets
        masses = part.masses(graph)
        FE = np.zeros((graph.n, m))
        FE[np.arange(graph.n), part.labels] = 1.0 / np.sqrt(masses[part.labels])

        k = m
        routes = []
        _, oracle_model = tabular_min_oracle(graph, k, lam)
        routes.append(("closed-form", forward(oracle_model, graph)))
        trained, _ = train(graph, spec_for_graph("tabular", k, graph), lam,
                           TrainConfig(seed=seed))
        routes.append(("trained", forward(trained, graph)))

        for route, F in routes:
            rep = measure_eigenspace_quantities(graph, FE, list(F.T), lg.labels)
            bound = theorem42_bound(rep, k, lam)
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
    spec = Example1Spec(d=d, s=s)
    lg = example1_graph(spec)
    graph = lg.graph
    y = 2.0 * lg.labels.astype(np.float64) - 1.0   # scalar +-1 sign target

    rows = []
    analytic = construct_example1_optimal(spec)
    err_a = probe_error(graph, forward(analytic, graph), y)
    rows.append(_row("thm52", "analytic zero-loss model: probe error <= 1e-6",
                     err_a, 1e-6, err_a <= 1e-6))

    trained, _ = train(graph, spec_for_graph("linear", s, graph), lam=1.0,
                       config=TrainConfig(seed=seed))
    err_t = probe_error(graph, forward(trained, graph), y)
    rows.append(_row("thm52", "trained model: probe error <= 1e-6",
                     err_t, 1e-6, err_t <= 1e-6))

    k_adv = 2 ** (d - 1)
    key_dims = [j for j in range(d) if j != spec.label_dim]
    adv = construct_adversarial_universal(graph, k_adv, key_dims)
    cert = zero_loss_certificate(adv, graph, lam=1.0)
    rows.append(_row("thm52", f"adversarial k={k_adv}: loss <= 1e-10",
                     cert["loss"], 1e-10, cert["loss"] <= 1e-10))
    err_adv = probe_error(graph, forward(adv, graph), y)
    rows.append(_row("thm52", "adversarial best-head error >= 1 - 1e-8",
                     err_adv, 1.0 - 1e-8, err_adv >= 1.0 - 1e-8))
    return rows


def verify_thm54(d: int = 5, s: int = 2, seed: int = 0) -> List[dict]:
    """Hypercube instance with a parity labeling, one-hidden-layer class.

    Upper branch: the sign-pattern one-hot network (k = 2^s) verifies
    exhaustively, has loss 0, and probes the parity label to <= 1e-8.
    Lower branch: the universal minimizer keyed on the scaled coordinates
    (k = 2^(d-s)) has loss <= 1e-10 and best-head error >= 1/2 - 1e-6.
    """
    spec = Example1Spec(d=d, s=s)
    lg = example2_labels(spec, xor_label_map(s))
    graph = lg.graph

    rows = []
    model = construct_example2_optimal(spec, graph)
    cert = zero_loss_certificate(model, graph, lam=1.0)
    rows.append(_row("thm54", f"one-hot network k={2**s}: loss <= 1e-10",
                     cert["loss"], 1e-10, cert["loss"] <= 1e-10))
    err = probe_error(graph, forward(model, graph), lg.labels)
    rows.append(_row("thm54", "one-hot network: parity probe error <= 1e-8",
                     err, 1e-8, err <= 1e-8))

    k_adv = 2 ** (d - s)
    adv = construct_adversarial_universal(graph, k_adv,
                                          key_dims=list(range(s, d)))
    cert_adv = zero_loss_certificate(adv, graph, lam=1.0)
    rows.append(_row("thm54", f"adversarial k={k_adv}: loss <= 1e-10",
                     cert_adv["loss"], 1e-10, cert_adv["loss"] <= 1e-10))
    err_adv = probe_error(graph, forward(adv, graph), lg.labels)
    rows.append(_row("thm54", "adversarial best-head error >= 1/2 - 1e-6",
                     err_adv, 0.5 - 1e-6, err_adv >= 0.5 - 1e-6))
    return rows


def verify_thm56(r: int = 3, m: int = 2, gamma: float = 2.0,
                 rho: float = 0.1) -> List[dict]:
    """Well-separated point sets: the scaled set-indicator representation
    is kappa-Lipschitz with kappa = sqrt(2r)/gamma and probes the labels
    with error <= 2*r*m*kappa^2*rho^2.
    """
    labels = tuple(i % m for i in range(r))
    spec = example3_lattice(r=r, points_per_set=4, gamma=gamma, rho=rho,
                            labels=labels, m=m)
    lg = example3_graph(spec)
    graph = lg.graph

    sets = np.repeat(np.arange(r), 4)
    F = np.sqrt(r) * np.eye(r)[sets]
    table = spec_for_graph("tabular", r, graph).model(F.ravel())

    kappa = np.sqrt(2.0 * r) / gamma
    rows = []
    lip = lipschitz_constant(table, graph)
    rows.append(_row("thm56", "set-indicator model: Lipschitz <= sqrt(2r)/gamma",
                     lip, kappa, lip <= kappa))
    bound = theorem56_bound(r, m, kappa, rho)
    err = probe_error(graph, F, lg.labels)
    rows.append(_row("thm56", "probe error <= 2*r*m*kappa^2*rho^2",
                     err, bound, err <= bound))
    cert = zero_loss_certificate(table, graph, lam=1.0)
    rows.append(_row("thm56", "set-indicator model: loss <= 1e-10",
                     cert["loss"], 1e-10, cert["loss"] <= 1e-10))
    return rows


def verify_thm58(d: int = 4, s: int = 1, gamma: float = 2.0) -> List[dict]:
    """Patch instance, convolutional class.

    Upper branch: the patch-detector convolutional network has loss 0 and
    probes the patch label to <= 1e-8.  Lower branch: the derived
    one-hidden-layer adversarial minimizer indicating k = d*2^s/2
    (location, pattern) clusters has loss <= 1e-10 and best-head error
    >= 1/2 - 1e-6.
    """
    spec = Example4Spec(d=d, s=s, gamma=gamma)
    lg = example4_graph(spec)
    graph = lg.graph

    rows = []
    model = construct_example4_optimal(spec, graph)
    cert = zero_loss_certificate(model, graph, lam=1.0)
    rows.append(_row("thm58", f"patch network k={2**s}: loss <= 1e-10",
                     cert["loss"], 1e-10, cert["loss"] <= 1e-10))
    err = probe_error(graph, forward(model, graph), lg.labels)
    rows.append(_row("thm58", "patch network: probe error <= 1e-8",
                     err, 1e-8, err <= 1e-8))

    k_adv = (d * 2 ** s) // 2
    adv = construct_example4_adversarial_relu(spec, k_adv, graph)
    cert_adv = zero_loss_certificate(adv, graph, lam=1.0)
    rows.append(_row("thm58", f"adversarial k={k_adv}: loss <= 1e-10",
                     cert_adv["loss"], 1e-10, cert_adv["loss"] <= 1e-10))
    err_adv = probe_error(graph, forward(adv, graph), lg.labels)
    rows.append(_row("thm58", "adversarial best-head error >= 1/2 - 1e-6",
                     err_adv, 0.5 - 1e-6, err_adv >= 0.5 - 1e-6))
    return rows


VERIFIERS = {
    "prop4": verify_prop4,
    "thm31": verify_thm31,
    "thm42": verify_thm42,
    "thm52": verify_thm52,
    "thm54": verify_thm54,
    "thm56": verify_thm56,
    "thm58": verify_thm58,
}

# which configured example (if any) each scripted check runs on
_VERIFIER_EXAMPLE = {"thm42": 1, "thm52": 1, "thm54": 2, "thm56": 3, "thm58": 4}


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
    _emit(args.out, "graph-info", cfg, _seeds(cfg, args), {"report.json": report})
    return 0


def cmd_spectrum(args, cfg: dict) -> int:
    lg = graph_from_config(cfg)
    graph = lg.graph
    count = min(int(cfg.get("count", 10)), graph.n)
    dec = eigendecompose(graph, count)
    print(json.dumps(_py({"eigenvalues": dec.eigenvalues,
                          "eigensolver": _eigensolver(dec)}), indent=2))

    def _write_csv(path):
        with open(path, "w") as fh:
            fh.write("index,eigenvalue\n")
            for i, v in enumerate(dec.eigenvalues):
                fh.write(f"{i},{float(v)!r}\n")

    _emit(args.out, "spectrum", cfg, _seeds(cfg, args),
          {"eigenvalues.csv": _write_csv, "eigensolver.json": _eigensolver(dec)})
    return 0


def _eigensolver(dec) -> dict:
    """What `eigendecompose` reports about its own solve."""
    return {"n_components": dec.n_components, "max_residual": dec.max_residual}


def _class_spec_from(cfg: dict, graph: PositivePairGraph):
    ccfg = cfg.get("class")
    if not ccfg:
        raise ConfigError("config needs a \"class\" section")
    return spec_for_graph(
        ccfg.get("tag", "tabular"), int(ccfg.get("k", 2)), graph,
        s=int(ccfg.get("s", 0)),
    )


def cmd_train(args, cfg: dict) -> int:
    lg = graph_from_config(cfg)
    graph = lg.graph
    class_spec = _class_spec_from(cfg, graph)
    lam = float(cfg.get("lambda", 1.0))
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
    class_spec = _class_spec_from(cfg, graph)
    lam = float(cfg.get("lambda", 1.0))
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
    gcfg = cfg.get("graph", {})
    row = {
        "example": gcfg.get("example", "file"),
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
    gcfg = cfg.get("graph")
    all_rows = []
    for name in names:
        expected = _VERIFIER_EXAMPLE.get(name)
        if gcfg and expected is not None and gcfg.get("example") not in (
                None, expected):
            raise IncompatibleConfig(
                f"{name} runs on example {expected}, config requests "
                f"{gcfg.get('example')!r}")
        kwargs = {}
        if name in ("prop4", "thm31") and "n_graphs" in cfg:
            kwargs["n_graphs"] = int(cfg["n_graphs"])
        if args.seed is not None and name not in ("thm56", "thm58"):
            kwargs["seed"] = args.seed
        rows = VERIFIERS[name](**kwargs)
        all_rows.extend(rows)
    for row in all_rows:
        print(json.dumps(_py(row), sort_keys=True))
    ok = all(r["pass"] for r in all_rows)
    _emit(args.out, "verify", cfg, _seeds(cfg, args),
          {"verdict.json": {"rows": all_rows, "pass": ok}})
    return 0 if ok else 1


def cmd_br(args, cfg: dict) -> int:
    lg = graph_from_config(cfg)
    graph = lg.graph
    r_list = [int(r) for r in cfg.get("r_list", [])]
    if not r_list:
        raise ConfigError("br needs a nonempty \"r_list\"")
    entries = cfg.get("classes") or [cfg.get("class") or {"tag": "tabular"}]
    class_specs = [
        spec_for_graph(e.get("tag", "tabular"), k=max(r_list), graph=graph,
                       s=int(e.get("s", 0)))
        for e in entries
    ]
    grid = tuple(float(x) for x in cfg.get("lambda_grid", DEFAULT_LAMBDA_GRID))
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


def _seeds(cfg: dict, args) -> List[int]:
    seeds = []
    if args.seed is not None:
        seeds.append(int(args.seed))
    if "train" in cfg and "seed" in cfg["train"]:
        seeds.append(int(cfg["train"]["seed"]))
    return seeds or [0]


# ---------------------------------------------------------------------------
# entry point


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairlab",
        description="finite positive-pair graph laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config file (fail-closed keys)")
        sp.add_argument("--out", type=Path, default=None,
                        help="output directory (writes a manifest)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the training seed")

    common(sub.add_parser("graph-info", help="graph size / components / spectrum"))
    common(sub.add_parser("spectrum", help="leading eigenvalues to CSV"))
    common(sub.add_parser("train", help="minimize the loss for a class"))
    common(sub.add_parser("probe", help="train then fit a linear head"))
    vp = sub.add_parser("verify", help="run a scripted guarantee check")
    vp.add_argument("theorem", choices=sorted(VERIFIERS) + ["all"])
    common(vp)
    common(sub.add_parser("br", help="r-way separability tables"))
    return parser


_HANDLERS = {
    "graph-info": cmd_graph_info,
    "spectrum": cmd_spectrum,
    "train": cmd_train,
    "probe": cmd_probe,
    "verify": cmd_verify,
    "br": cmd_br,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _HANDLERS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PairLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
