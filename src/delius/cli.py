"""Command line front end.

Subcommands cover the whole pipeline: ``gap`` pools feature maps,
``pretrain`` trains the autoencoder, ``cluster`` runs the joint
optimisation, ``eval`` scores a clustering, ``baseline`` runs the
reference strategies, ``project`` and ``plot`` produce 2-d views, and
``run`` chains everything from features to plot in one invocation.

Conventions shared by every subcommand:

* exit codes: 0 success, 2 usage or configuration, 3 bad data,
  4 numerical failure;
* ``--seed`` fixes every stochastic choice, and rerunning with the same
  flags and seed reproduces each numeric artifact byte for byte;
* ``--threads`` caps numeric parallelism (default 1, env fallback
  DELIUS_THREADS): main() writes the cap into OPENBLAS_NUM_THREADS,
  OMP_NUM_THREADS, MKL_NUM_THREADS and NUMEXPR_NUM_THREADS, replacing
  inherited values; in a ``delius`` process numpy has not loaded yet at
  that point, so the BLAS pool starts at that size (a caller that
  imported numpy before calling main() keeps the pool it has);
* each run writes a small JSON manifest recording flags, seed, the
  digests of the files its input flags name, package version and wall
  time;
* a handler builds its configs before it reads any input, and each
  config checks itself when built, so a bad flag value exits 2 first;
* main() checks every output before the handler runs, the defaults of
  left-out output flags, the manifest and the id sidecar of a binary
  output included: a file in a missing directory, a path that is a
  directory, two outputs naming one file, an output naming an input
  file or its id sidecar, or a binary output with a ``.csv`` name exits
  2 before any work, as does ``--header`` for features read as binary;
* an error inside a stage is reported as "delius <command>: <stage>
  stage failed: ...", and every input is read in the ``load`` stage, so
  an unreadable or malformed input is reported as "<command>: load stage
  failed"; an error before any stage (a flag value, an output check)
  names no stage: "delius <command>: ...";
* artifacts are written under a ``.partial`` suffix and renamed on
  stage success, so a crashed stage leaves only ``.partial`` files.

Each subcommand reads its inputs and calls one stage function; main()
writes every manifest, beside the command's main output.  ``run`` chains
the same stage functions in one process, so its artifacts equal those of
the chained subcommands byte for byte.
Stage functions import what they use when called, so the thread cap set
in main() precedes numpy and a process loads only its stages' modules.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time

_THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The flags that name input files; a manifest digests each one a command has.
_INPUT_FLAGS = (
    "maps", "features", "points", "ae_checkpoint", "assignments", "labels_manifest", "xy",
)


# The flags that name output files; main() checks each one a command has.
_OUTPUT_FLAGS = (
    "out", "out_checkpoint", "out_loss_curve", "out_assignments", "out_history", "out_embedded",
)

# The files ``run`` writes into its --outdir.
_RUN_ARTIFACTS = dict(
    checkpoint="autoencoder.delc", loss_curve="pretrain_loss.csv", assignments="assignments.csv",
    model="model.delc", history="history.csv", embedded="embedded.delf", report="report.json",
    xy="xy.csv", scatter="scatter.svg", manifest="manifest.json",
)


# The binary feature output of each command that writes one; its id
# sidecar, ``<path>.ids``, is written beside it.
_BINARY_OUTPUT = {"gap": "out", "cluster": "out_embedded", "run": "embedded"}


def _outputs(args: argparse.Namespace) -> dict[str, str]:
    """Every file the command writes: each output flag's, a left-out flag's
    default, ``manifest`` and a binary output's id sidecar (``<dest>.ids``),
    keyed by dest; ``run``'s by ``_RUN_ARTIFACTS``."""
    if args.command == "run":
        paths = {key: os.path.join(args.outdir, name) for key, name in _RUN_ARTIFACTS.items()}
    else:
        paths = {name: getattr(args, name) for name in _OUTPUT_FLAGS if getattr(args, name, None)}
        if args.command == "pretrain":
            paths.setdefault("out_loss_curve", args.out_checkpoint + ".loss.csv")
        if args.command == "cluster":
            paths.setdefault("out_history", args.out_assignments + ".history.csv")
        main_output = {"pretrain": "out_checkpoint", "cluster": "out_assignments"}.get(args.command)
        paths["manifest"] = paths[main_output or "out"] + ".manifest.json"
    binary = _BINARY_OUTPUT.get(args.command)
    if binary in paths:
        paths[binary + ".ids"] = paths[binary] + ".ids"
    return paths


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any input is read, an output whose file cannot or must not be made.

    The file's directory must exist (``run`` makes its --outdir later) and
    the path must not be a directory.  An output naming an input file,
    an input's id sidecar or another output is refused too, since its
    write would replace that file, and so is a binary output with a name
    the feature readers take as CSV.  What only the write can show, such
    as a full disk, ``_artifact`` reports.
    """
    from .dataio import _named_format
    from .errors import ConfigError

    inputs = {}
    for name in _INPUT_FLAGS:
        if path := getattr(args, name, None):
            inputs.setdefault(os.path.realpath(path), f"the {_flag(name)} input")
            inputs.setdefault(os.path.realpath(path + ".ids"),
                              f"the id sidecar of the {_flag(name)} input")
    named = {}
    for key, path in _outputs(args).items():
        if args.command == "run":
            label = "--outdir"
        elif key == "manifest":
            label = "the manifest"
        elif key.endswith(".ids"):
            label = f"the id sidecar of {_flag(key[:-4])}"
        else:
            label = _flag(key) + ("" if getattr(args, key) else " (default)")
        directory = os.path.dirname(path) or os.curdir
        if args.command != "run" and not os.path.isdir(directory):
            raise ConfigError(f"{label}: cannot write {path}: {directory} is not an existing directory")
        if os.path.isdir(path):
            raise ConfigError(f"{label}: cannot write {path}: it is a directory")
        if key == _BINARY_OUTPUT.get(args.command) and _named_format(path) == "csv":
            raise ConfigError(f"{label}: {path} would hold binary features under a name "
                              "read as CSV; give another name")
        real = os.path.realpath(path)
        if real in inputs:
            raise ConfigError(f"{label}: {path} is {inputs[real]}; give another file")
        other = named.setdefault(real, label)
        if other != label:
            raise ConfigError(f"{other} and {label} both name {path}; give each its own file")


def _check_header(args: argparse.Namespace) -> None:
    """Refuse ``--header`` for features read as binary, which have no header row."""
    from .dataio import _named_format
    from .errors import ConfigError

    if not getattr(args, "header", False):
        return
    path = getattr(args, "features", None) or getattr(args, "points", None)
    if (_named_format(path) if args.format == "auto" else args.format) == "binary":
        raise ConfigError(f"--header skips a CSV header row, but {path} is read as binary")


class _Stage:
    """Names the pipeline stage an error escaped from."""

    def __init__(self):
        self.name = None

    @contextlib.contextmanager
    def __call__(self, name: str):
        self.name = name
        yield
        self.name = None


_stage = _Stage()


@contextlib.contextmanager
def _artifact(path: str, sidecar: bool = False):
    """Yield a temporary target; promote it on success.

    With ``sidecar`` the target is a binary container, whose ids the write
    puts in ``<target>.ids`` unless they are the default ones: that file
    replaces ``<path>.ids``, or, when the write made none, an old
    ``<path>.ids`` is removed, so it cannot name the new file's rows.  A
    write the system refuses (a missing directory, a full disk) is a
    configuration error naming ``path``.
    """
    from .errors import ConfigError

    partial = path + ".partial"
    try:
        yield partial
        if sidecar:
            if os.path.exists(partial + ".ids"):
                os.replace(partial + ".ids", path + ".ids")
            else:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path + ".ids")
        os.replace(partial, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_text(path: str, text: str) -> None:
    with _artifact(path) as target:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_manifest(path: str, args: argparse.Namespace, started: float):
    from . import __version__

    inputs = [getattr(args, flag, None) for flag in _INPUT_FLAGS]
    record = {
        "command": args.command,
        "arguments": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "command")
        },
        "seed": args.seed,
        "inputs": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _adam_config(args):
    from .neural import AdamConfig

    return AdamConfig(lr=args.lr, beta1=args.beta1, beta2=args.beta2, epsilon=args.epsilon)


def _autoencoder_spec(args, optimizer):
    """The pretraining settings; the input width comes from the features ``_pretrain`` gets."""
    from .autoencoder import AutoencoderSpec
    from .errors import ConfigError

    try:
        dims = tuple(int(part) for part in args.encoder_dims.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse layer sizes from {args.encoder_dims!r}")
    return AutoencoderSpec(
        encoder_dims=dims, batch_size=args.batch_size, epochs=args.epochs, optimizer=optimizer
    )


def _dec_config(args):
    from .dec import DecConfig

    return DecConfig(
        k=args.k,
        update_interval=args.update_interval,
        delta=args.delta,
        batch_size=args.batch_size,
        optimizer=_adam_config(args),
        max_iterations=args.max_iterations,
        kmeans_restarts=args.restarts,
    )


def _read_features(args, path: str):
    from .dataio import read_features

    return read_features(path, fmt=args.format, header=args.header)


def _read_labels(args):
    """The ``--labels-manifest`` file, read; None without the flag."""
    from .dataio import read_label_manifest

    return None if args.labels_manifest is None else read_label_manifest(args.labels_manifest)


def _encoder_of(ckpt):
    """The encoder chain a checkpoint holds, decided by the phase that wrote it.

    A pretrain checkpoint holds the mirrored autoencoder, whose first half
    is the encoder; a joint (dec) checkpoint holds the refined encoder.
    """
    from .autoencoder import encoder_part

    return encoder_part(ckpt.params) if ckpt.phase == "pretrain" else ckpt.params


# ---------------------------------------------------------------------------
# stages: in-memory inputs, artifacts written, what the next stage needs returned


def _pretrain(args, spec, features, checkpoint_path: str, loss_path: str):
    """Train the mirrored autoencoder; return the checkpoint written."""
    from . import autoencoder
    from .neural import Checkpoint, save_checkpoint
    from .rng import Rng

    rng = Rng(args.seed)
    params = autoencoder.build(spec, features.d, rng)
    params, report = autoencoder.pretrain(params, features, spec, rng)
    ckpt = Checkpoint(params=params, seed=args.seed, phase="pretrain", epoch=spec.epochs)
    with _artifact(checkpoint_path) as target:
        save_checkpoint(target, ckpt)
    with _artifact(loss_path) as target:
        report.write_csv(target)
    return ckpt


def _cluster(args, config, features, encoder, assignments_path, checkpoint_path,
             history_path, embedded_path=None):
    """Refine encoder and centroids jointly; return the assignments and the
    embedded features (None without ``embedded_path``)."""
    from .dataio import ClusterAssignments, FeatureMatrix, write_assignments, write_features
    from .dec import dec_fit
    from .neural import Checkpoint, save_checkpoint
    from .rng import Rng

    result = dec_fit(features, encoder, config, Rng(args.seed))
    assignments = ClusterAssignments(ids=features.ids, hard=result.state.hard, q=result.state.q)
    with _artifact(assignments_path) as target:
        write_assignments(assignments, target)
    with _artifact(checkpoint_path) as target:
        save_checkpoint(
            target,
            Checkpoint(
                params=result.encoder,
                seed=args.seed,
                phase="dec",
                epoch=result.history.iterations_run,
                centroids=result.centroids,
            ),
        )
    with _artifact(history_path) as target:
        result.history.write_csv(target)
    embedded = None
    if embedded_path:
        embedded = FeatureMatrix(values=result.state.z, ids=features.ids)
        with _artifact(embedded_path, sidecar=True) as target:
            write_features(embedded, target, fmt="binary")
    return assignments, embedded


def _evaluate(points, ids, labels, manifest, column: str, space_tag: str, out: str):
    """Score ``labels`` (one per row of ``points``, whose ids are ``ids``)
    against the manifest's ``column`` labels and write the report."""
    from .dataio import labels_for
    from .metrics import evaluate

    style, genre = (labels_for(manifest, ids, name) if manifest and column in (name, "both")
                    else None for name in ("style", "genre"))
    report = evaluate(points, labels, space_tag, style_truth=style, genre_truth=genre)
    _write_text(out, report.to_json())


def _project(features, strata, fraction: float, seed: int, out: str, tsne=None, pca_dim=None):
    """Project a sample stratified by ``strata`` (t-SNE given a config, else
    PCA); return the sample's ids and coordinates."""
    from .dataio import stratified_sample, write_xy

    sample = stratified_sample(features, strata, fraction, seed) if fraction < 1.0 else features
    if tsne is None:
        from .projection import pca_fit, pca_transform

        coords = pca_transform(pca_fit(sample.values, pca_dim), sample.values)
    else:
        from .projection import tsne_embed

        coords = tsne_embed(sample.values, tsne)
    with _artifact(out) as target:
        write_xy(target, sample.ids, coords, pca_style=tsne is None)
    return sample.ids, coords


def _plot(ids, coords, assignments, out: str, **layout):
    from .dataio import cluster_labels
    from .plotting import ScatterSpec, render_scatter

    spec = ScatterSpec(points=coords, labels=cluster_labels(ids, assignments), **layout)
    _write_text(out, render_scatter(spec))


# ---------------------------------------------------------------------------
# handlers: load every input, run one stage


def _cmd_gap(args) -> None:
    from .dataio import global_average_pool, read_feature_maps, write_features

    with _stage("load"):
        block = read_feature_maps(args.maps)
    with _stage("pool"):
        with _artifact(args.out, sidecar=True) as target:
            write_features(global_average_pool(block), target, fmt="binary")


def _cmd_pretrain(args) -> None:
    spec = _autoencoder_spec(args, _adam_config(args))
    with _stage("load"):
        features = _read_features(args, args.features)
    with _stage("pretrain"):
        _pretrain(args, spec, features, args.out_checkpoint, _outputs(args)["out_loss_curve"])


def _cmd_cluster(args) -> None:
    from .neural import load_checkpoint

    config = _dec_config(args)
    with _stage("load"):
        features = _read_features(args, args.features)
        encoder = _encoder_of(load_checkpoint(args.ae_checkpoint))
    with _stage("cluster"):
        _cluster(args, config, features, encoder, args.out_assignments,
                 args.out_checkpoint, _outputs(args)["out_history"], args.out_embedded)


def _cmd_eval(args) -> None:
    from .dataio import cluster_labels, read_assignments

    with _stage("load"):
        points = _read_features(args, args.points)
        assignments = read_assignments(args.assignments)
        manifest = _read_labels(args)
    with _stage("eval"):
        labels = cluster_labels(points.ids, assignments)
        _evaluate(points.values, points.ids, labels, manifest, args.label_column,
                  args.space_tag, args.out)


def _cmd_baseline(args) -> None:
    from .baselines import run_ae_kmeans, run_pca_kmeans
    from .dataio import ClusterAssignments, write_assignments
    from .errors import ConfigError
    from .neural import load_checkpoint

    # kmeans_fit and pca_fit check these too, but only after the load stage.
    if args.k < 1:
        raise ConfigError(f"k must be at least 1, got {args.k}")
    if args.restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {args.restarts}")
    if args.strategy == "pca-kmeans" and args.r < 1:
        raise ConfigError(f"r must be at least 1, got {args.r}")
    if args.strategy == "ae-kmeans" and not args.ae_checkpoint:
        raise ConfigError("--ae-checkpoint is required for the ae-kmeans strategy")
    # Refused rather than left unread, so the manifest digests no file the command did not use.
    if args.strategy == "pca-kmeans" and args.ae_checkpoint:
        raise ConfigError("--ae-checkpoint is read only by the ae-kmeans strategy; "
                          "pca-kmeans takes none")
    with _stage("load"):
        features = _read_features(args, args.features)
        manifest = _read_labels(args)
        encoder = None
        if args.strategy == "ae-kmeans":
            encoder = _encoder_of(load_checkpoint(args.ae_checkpoint))
    with _stage("baseline"):
        if encoder is None:
            points, labels = run_pca_kmeans(
                features, args.k, r=args.r, seed=args.seed, restarts=args.restarts
            )
            space_tag = f"pca{args.r}"
        else:
            points, labels = run_ae_kmeans(
                features, encoder, args.k, seed=args.seed, restarts=args.restarts
            )
            space_tag = "embedded"
        _evaluate(points, features.ids, labels, manifest, "both", space_tag, args.out)
        if args.out_assignments:
            with _artifact(args.out_assignments) as target:
                write_assignments(ClusterAssignments(ids=features.ids, hard=labels), target)


def _stratify_labels(args, features):
    """The stratum of each row: its manifest label, its cluster, or one for all."""
    import numpy as np

    from .dataio import cluster_labels, labels_for, read_assignments
    from .errors import DataError

    manifest = _read_labels(args)
    if manifest is not None:
        strata = labels_for(manifest, features.ids, args.label_column)
        unlabeled = np.flatnonzero(strata < 0)
        if unlabeled.size:
            missing = features.ids[unlabeled[0]]
            raise DataError(f"cannot stratify: id {missing!r} has no {args.label_column} label")
        return strata
    if args.assignments:
        return cluster_labels(features.ids, read_assignments(args.assignments))
    return np.zeros(features.n, dtype=np.int64)  # single stratum: plain sampling


def _cmd_project(args) -> None:
    from .errors import ConfigError
    from .projection import TsneConfig

    # A stratifier is read only to draw a sample: refuse one that would go
    # unread, so the manifest digests no file the command did not use.
    given = [flag for flag, path in (("--labels-manifest", args.labels_manifest),
                                     ("--assignments", args.assignments)) if path]
    if len(given) > 1:
        raise ConfigError("--labels-manifest and --assignments both choose the strata; give one")
    if given and not args.fraction < 1.0:
        raise ConfigError(f"{given[0]} stratifies a sample and needs --fraction below 1")
    # Built for either method, so no flag given goes unchecked.
    tsne = TsneConfig(
        perplexity=args.perplexity,
        iterations=args.iterations,
        learning_rate=args.learning_rate,
        early_exaggeration=args.early_exaggeration,
        seed=args.seed,
    )
    if args.method == "pca" and args.r < 2:  # a projection file holds at least two coordinates
        raise ConfigError(f"--r must be at least 2 for a PCA projection, got {args.r}")
    with _stage("load"):
        features = _read_features(args, args.features)
        strata = _stratify_labels(args, features) if args.fraction < 1.0 else None
    with _stage("project"):
        _project(features, strata, args.fraction, args.seed, args.out,
                 tsne if args.method == "tsne" else None, pca_dim=args.r)


def _cmd_plot(args) -> None:
    from .dataio import read_assignments, read_xy
    from .plotting import check_layout

    layout = dict(width=args.width, height=args.height, radius=args.radius)
    check_layout(**layout)
    with _stage("load"):
        ids, coords = read_xy(args.xy)
        assignments = read_assignments(args.assignments)
    with _stage("plot"):
        _plot(ids, coords, assignments, args.out, **layout)


def _cmd_run(args) -> None:
    from .errors import ConfigError
    from .projection import TsneConfig

    config = _dec_config(args)
    spec = _autoencoder_spec(args, config.optimizer)
    tsne = TsneConfig(perplexity=args.perplexity, iterations=args.tsne_iterations, seed=args.seed)
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.outdir}: {exc.strerror or exc}")
    out = _outputs(args)

    with _stage("load"):
        features = _read_features(args, args.features)
        manifest = _read_labels(args)
    with _stage("pretrain"):
        ckpt = _pretrain(args, spec, features, out["checkpoint"], out["loss_curve"])
    with _stage("cluster"):
        assignments, embedded = _cluster(
            args, config, features, _encoder_of(ckpt), out["assignments"],
            out["model"], out["history"], out["embedded"],
        )
    # _cluster keys the assignments by the embedded rows' ids, in row order
    with _stage("eval"):
        _evaluate(embedded.values, embedded.ids, assignments.hard, manifest, "both", "embedded",
                  out["report"])
    with _stage("project"):
        ids, coords = _project(embedded, assignments.hard, args.fraction, args.seed, out["xy"],
                               tsne)
    with _stage("plot"):
        _plot(ids, coords, assignments, out["scatter"])


# ---------------------------------------------------------------------------
# parser


def _fraction(text: str) -> float:
    """A sample fraction in (0, 1]; anything else, nan included, is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 1.0:  # false for nan
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap numeric parallelism (default: DELIUS_THREADS or 1)",
    )


def _add_feature_input(parser, flag="--features"):
    parser.add_argument(flag, required=True, help="feature matrix file")
    parser.add_argument(
        "--format",
        choices=("auto", "binary", "csv"),
        default="auto",
        help="feature file format (default: by extension)",
    )
    parser.add_argument(
        "--header",
        action="store_true",
        help="skip one header row when reading CSV features",
    )


def _add_pretraining(parser):
    parser.add_argument("--encoder-dims", default="500,500,2000,10")
    parser.add_argument("--epochs", type=int, default=200)


def _add_clustering(parser):
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--update-interval", type=int, default=140)
    parser.add_argument("--delta", type=float, default=0.001)
    parser.add_argument("--max-iterations", type=int, default=20000)
    parser.add_argument("--restarts", type=int, default=20)


def _add_training(parser):
    """Minibatch size and Adam settings, for pretraining and clustering."""
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--lr", type=float, default=0.001)
    parser.add_argument("--beta1", type=float, default=0.9)
    parser.add_argument("--beta2", type=float, default=0.999)
    parser.add_argument("--epsilon", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delius",
        description="Deep embedded clustering pipeline for high-dimensional features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="pool feature maps to per-channel means")
    p.add_argument("--maps", required=True, help="feature map tensor file")
    p.add_argument("--out", required=True, help="pooled feature matrix (binary)")
    _add_common(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("pretrain", help="train the reconstruction autoencoder")
    _add_feature_input(p)
    _add_pretraining(p)
    _add_training(p)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-loss-curve", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("cluster", help="jointly optimise embedding and centroids")
    _add_feature_input(p)
    p.add_argument("--ae-checkpoint", required=True)
    _add_clustering(p)
    _add_training(p)
    p.add_argument("--out-assignments", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None)
    p.add_argument("--out-embedded", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("eval", help="score a clustering")
    _add_feature_input(p, flag="--points")
    p.add_argument("--assignments", required=True)
    p.add_argument("--labels-manifest", default=None)
    p.add_argument("--label-column", choices=("style", "genre", "both"), default="both")
    p.add_argument("--space-tag", default="embedded")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="run a reference clustering strategy")
    p.add_argument("--strategy", choices=("pca-kmeans", "ae-kmeans"), required=True)
    _add_feature_input(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=200, help="PCA target dimension")
    p.add_argument("--ae-checkpoint", default=None)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--labels-manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--out-assignments", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("project", help="project features to a low dimension")
    _add_feature_input(p)
    p.add_argument("--method", choices=("pca", "tsne"), required=True)
    p.add_argument("--r", type=int, default=2, help="PCA output dimension")
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--learning-rate", type=float, default=200.0)
    p.add_argument("--early-exaggeration", type=float, default=12.0)
    p.add_argument("--fraction", type=_fraction, default=1.0)
    p.add_argument("--labels-manifest", default=None)
    p.add_argument("--label-column", choices=("style", "genre"), default="style")
    p.add_argument("--assignments", default=None, help="stratify by cluster label")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("plot", help="render a projection as an SVG scatter")
    p.add_argument("--xy", required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--radius", type=float, default=3.0)
    _add_common(p)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("run", help="full pipeline: pretrain, cluster, eval, project, plot")
    _add_feature_input(p)
    p.add_argument("--labels-manifest", default=None)
    _add_pretraining(p)
    _add_clustering(p)
    _add_training(p)
    p.add_argument("--fraction", type=_fraction, default=0.1)
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--tsne-iterations", type=int, default=1000)
    p.add_argument("--outdir", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    return parser


def _resolve_threads(args) -> int:
    from .errors import ConfigError

    threads = args.threads
    if threads is None:
        env = os.environ.get("DELIUS_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError(f"DELIUS_THREADS must be an integer, got {env!r}")
        else:
            threads = 1
    if threads < 1:
        raise ConfigError(f"thread cap must be at least 1, got {threads}")
    return threads


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    from .errors import DeliusError

    _stage.name = None  # an earlier call in this process may have failed inside a stage
    try:
        threads = _resolve_threads(args)
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(threads)
        _check_outputs(args)
        _check_header(args)
        started = time.monotonic()
        args.func(args)
        _write_manifest(_outputs(args)["manifest"], args, started)
    except DeliusError as exc:
        stage = f"{_stage.name} stage failed: " if _stage.name else ""
        print(f"delius {args.command}: {stage}{exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
