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
* each run writes a small JSON manifest recording flags, seed, input
  digests, package version and wall time;
* artifacts are written under a ``.partial`` suffix and renamed on
  stage success, so a crashed stage leaves only ``.partial`` files.

Heavy imports happen inside handlers so the thread cap set in main()
precedes them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time

_THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_DEFAULT_ENCODER_DIMS = "500,500,2000,10"


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
def _artifact(path: str):
    """Yield a temporary target; promote it (and any id sidecar) on success."""
    partial = path + ".partial"
    yield partial
    if os.path.exists(partial + ".ids"):
        os.replace(partial + ".ids", path + ".ids")
    os.replace(partial, path)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: str, command: str, args: argparse.Namespace, inputs, started: float):
    from . import __version__

    record = {
        "command": command,
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
    with _artifact(path) as target:
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _parse_dims(text: str):
    from .errors import ConfigError

    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse layer sizes from {text!r}")
    if not dims:
        raise ConfigError("encoder dims must name at least one layer")
    return dims


def _load_features(path: str, fmt: str, header: bool):
    from .dataio import read_features

    return read_features(path, fmt=fmt, header=header)


def _adam_config(args):
    from .neural import AdamConfig

    return AdamConfig(lr=args.lr, beta1=args.beta1, beta2=args.beta2, epsilon=args.epsilon)


def _load_manifest_arg(path):
    if path is None:
        return None
    from .dataio import read_label_manifest

    return read_label_manifest(path)


def _truths(features, manifest, column):
    from .dataio import labels_for

    style = genre = None
    if manifest is not None:
        if column in ("style", "both"):
            style = labels_for(manifest, features, "style")
        if column in ("genre", "both"):
            genre = labels_for(manifest, features, "genre")
    return style, genre


def _aligned_labels(points, assignments):
    import numpy as np

    from .errors import DataError

    rows = {i: r for r, i in enumerate(assignments.ids)}
    labels = np.empty(points.n, dtype=np.int64)
    for r, i in enumerate(points.ids):
        if i not in rows:
            raise DataError(f"id {i!r} has no cluster assignment")
        labels[r] = assignments.hard[rows[i]]
    return labels


def _write_xy(path: str, ids, coords, pca_style: bool):
    import csv

    header = ["id"] + (
        [f"c_{j + 1}" for j in range(coords.shape[1])] if pca_style else ["x", "y"]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in zip(ids, coords):
            writer.writerow([i] + [repr(float(v)) for v in row])


def _read_xy(path: str):
    import csv

    import numpy as np

    from .errors import ConfigError, FormatError

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise ConfigError(f"projection file not found: {path}")
    with fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise FormatError(f"{path}: no data rows")
    if rows[0][0] != "id" or len(rows[0]) < 3:
        raise FormatError(f"{path}: header must be 'id' plus at least two coordinates")
    ids = []
    coords = np.empty((len(rows) - 1, 2), dtype=np.float64)
    for r, row in enumerate(rows[1:]):
        if len(row) != len(rows[0]):
            raise FormatError(f"{path}: row {r + 2} has {len(row)} columns")
        ids.append(row[0])
        try:
            coords[r, 0] = float(row[1])
            coords[r, 1] = float(row[2])
        except ValueError:
            raise FormatError(f"{path}: row {r + 2}: cannot parse coordinates")
    return ids, coords


# ---------------------------------------------------------------------------
# handlers


def _cmd_gap(args) -> None:
    started = time.monotonic()
    from .dataio import global_average_pool, read_feature_maps, write_features

    with _stage("pool"):
        block = read_feature_maps(args.maps)
        pooled = global_average_pool(block)
        with _artifact(args.out) as target:
            write_features(pooled, target, fmt="binary")
    _write_manifest(args.out + ".manifest.json", "gap", args, [args.maps], started)


def _cmd_pretrain(args) -> None:
    started = time.monotonic()
    from . import autoencoder
    from .neural import Checkpoint, save_checkpoint
    from .rng import Rng

    with _stage("load"):
        features = _load_features(args.features, args.format, args.header)
    with _stage("pretrain"):
        spec = autoencoder.AutoencoderSpec(
            input_dim=features.d,
            encoder_dims=_parse_dims(args.encoder_dims),
            batch_size=args.batch_size,
            epochs=args.epochs,
            optimizer=_adam_config(args),
        )
        rng = Rng(args.seed)
        params = autoencoder.build(spec, rng)
        params, report = autoencoder.pretrain(params, features, spec, rng)
        with _artifact(args.out_checkpoint) as target:
            save_checkpoint(
                target,
                Checkpoint(params=params, seed=args.seed, phase="pretrain", epoch=spec.epochs),
            )
        loss_path = args.out_loss_curve or args.out_checkpoint + ".loss.csv"
        with _artifact(loss_path) as target:
            report.write_csv(target)
    _write_manifest(
        args.out_checkpoint + ".manifest.json", "pretrain", args, [args.features], started
    )


def _cmd_cluster(args) -> None:
    started = time.monotonic()
    from . import autoencoder
    from .dataio import ClusterAssignments, FeatureMatrix, write_assignments, write_features
    from .dec import DecConfig, dec_fit
    from .neural import Checkpoint, load_checkpoint, save_checkpoint
    from .rng import Rng

    with _stage("load"):
        features = _load_features(args.features, args.format, args.header)
        ckpt = load_checkpoint(args.ae_checkpoint)
        params = ckpt.params
        try:
            encoder = autoencoder.encoder_part(params)
        except Exception:
            encoder = params  # already an encoder-only chain
    with _stage("cluster"):
        config = DecConfig(
            k=args.k,
            update_interval=args.update_interval,
            delta=args.delta,
            batch_size=args.batch_size,
            optimizer=_adam_config(args),
            max_iterations=args.max_iterations,
            kmeans_restarts=args.restarts,
        )
        result = dec_fit(features, encoder, config, Rng(args.seed))
        assignments = ClusterAssignments(
            ids=features.ids, hard=result.state.hard, q=result.state.q
        )
        with _artifact(args.out_assignments) as target:
            write_assignments(assignments, target)
        with _artifact(args.out_checkpoint) as target:
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
        history_path = args.out_history or args.out_assignments + ".history.csv"
        with _artifact(history_path) as target:
            result.history.write_csv(target)
        if args.out_embedded:
            embedded = autoencoder.encode(result.encoder, features)
            with _artifact(args.out_embedded) as target:
                write_features(
                    FeatureMatrix(values=embedded, ids=features.ids), target, fmt="binary"
                )
    _write_manifest(
        args.out_assignments + ".manifest.json",
        "cluster",
        args,
        [args.features, args.ae_checkpoint],
        started,
    )


def _cmd_eval(args) -> None:
    started = time.monotonic()
    from .dataio import read_assignments
    from .metrics import evaluate

    with _stage("load"):
        points = _load_features(args.points, args.format, args.header)
        assignments = read_assignments(args.assignments)
        manifest = _load_manifest_arg(args.labels_manifest)
    with _stage("eval"):
        labels = _aligned_labels(points, assignments)
        style, genre = _truths(points, manifest, args.label_column)
        report = evaluate(
            points.values, labels, args.space_tag, style_truth=style, genre_truth=genre
        )
        with _artifact(args.out) as target:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
    _write_manifest(
        args.out + ".manifest.json",
        "eval",
        args,
        [args.points, args.assignments, args.labels_manifest],
        started,
    )


def _cmd_baseline(args) -> None:
    started = time.monotonic()
    from .baselines import run_ae_kmeans, run_pca_kmeans
    from .dataio import ClusterAssignments, write_assignments
    from .errors import ConfigError
    from .neural import load_checkpoint

    with _stage("load"):
        features = _load_features(args.features, args.format, args.header)
        manifest = _load_manifest_arg(args.labels_manifest)
    with _stage("baseline"):
        if args.strategy == "pca-kmeans":
            run = run_pca_kmeans(
                features,
                args.k,
                r=args.r,
                seed=args.seed,
                manifest=manifest,
                restarts=args.restarts,
            )
        else:
            if not args.ae_checkpoint:
                raise ConfigError("--ae-checkpoint is required for the ae-kmeans strategy")
            ckpt = load_checkpoint(args.ae_checkpoint)
            run = run_ae_kmeans(
                features,
                ckpt.params,
                args.k,
                seed=args.seed,
                manifest=manifest,
                restarts=args.restarts,
            )
        with _artifact(args.out) as target:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(run.report.to_json())
        if args.out_assignments:
            with _artifact(args.out_assignments) as target:
                write_assignments(
                    ClusterAssignments(ids=run.ids, hard=run.labels, q=None), target
                )
    _write_manifest(
        args.out + ".manifest.json",
        "baseline",
        args,
        [args.features, args.ae_checkpoint, args.labels_manifest],
        started,
    )


def _stratify_labels(args, features):
    from .errors import ConfigError

    if args.labels_manifest:
        manifest = _load_manifest_arg(args.labels_manifest)
        column = args.label_column if args.label_column != "both" else "style"
        mapping = manifest.label_map(column)
        missing = [i for i in features.ids if i not in mapping]
        if missing:
            raise ConfigError(
                f"cannot stratify: id {missing[0]!r} has no {column} label"
            )
        return {i: mapping[i] for i in features.ids}
    if args.assignments:
        from .dataio import read_assignments

        assignments = read_assignments(args.assignments)
        rows = {i: int(h) for i, h in zip(assignments.ids, assignments.hard)}
        missing = [i for i in features.ids if i not in rows]
        if missing:
            raise ConfigError(
                f"cannot stratify: id {missing[0]!r} has no cluster assignment"
            )
        return {i: rows[i] for i in features.ids}
    return {i: 0 for i in features.ids}  # single stratum: plain sampling


def _cmd_project(args) -> None:
    started = time.monotonic()
    from .dataio import stratified_sample
    from .projection import TsneConfig, pca_fit, pca_transform, tsne_embed

    with _stage("load"):
        features = _load_features(args.features, args.format, args.header)
    with _stage("project"):
        if args.fraction < 1.0:
            labels = _stratify_labels(args, features)
            sample = stratified_sample(features, labels, args.fraction, args.seed)
        else:
            sample = features
        if args.method == "pca":
            model = pca_fit(sample.values, args.r)
            coords = pca_transform(model, sample.values)
            pca_style = True
        else:
            config = TsneConfig(
                perplexity=args.perplexity,
                iterations=args.iterations,
                learning_rate=args.learning_rate,
                early_exaggeration=args.early_exaggeration,
                seed=args.seed,
            )
            coords = tsne_embed(sample.values, config)
            pca_style = False
        with _artifact(args.out) as target:
            _write_xy(target, sample.ids, coords, pca_style)
    _write_manifest(
        args.out + ".manifest.json",
        "project",
        args,
        [args.features, args.labels_manifest, args.assignments],
        started,
    )


def _cmd_plot(args) -> None:
    started = time.monotonic()
    import numpy as np

    from .dataio import read_assignments
    from .errors import DataError
    from .plotting import ScatterSpec, render_scatter

    with _stage("load"):
        ids, coords = _read_xy(args.xy)
        assignments = read_assignments(args.assignments)
    with _stage("plot"):
        rows = {i: r for r, i in enumerate(assignments.ids)}
        labels = np.empty(len(ids), dtype=np.int64)
        for r, i in enumerate(ids):
            if i not in rows:
                raise DataError(f"id {i!r} has no cluster assignment")
            labels[r] = assignments.hard[rows[i]]
        spec = ScatterSpec(
            points=coords,
            labels=labels,
            width=args.width,
            height=args.height,
            radius=args.radius,
        )
        svg = render_scatter(spec)
        with _artifact(args.out) as target:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(svg)
    _write_manifest(
        args.out + ".manifest.json", "plot", args, [args.xy, args.assignments], started
    )


def _cmd_run(args) -> None:
    started = time.monotonic()
    import numpy as np

    from . import autoencoder
    from .dataio import (
        ClusterAssignments,
        FeatureMatrix,
        stratified_sample,
        write_assignments,
        write_features,
    )
    from .dec import DecConfig, dec_fit
    from .metrics import evaluate
    from .neural import Checkpoint, save_checkpoint
    from .plotting import ScatterSpec, render_scatter
    from .projection import TsneConfig, tsne_embed
    from .rng import Rng

    os.makedirs(args.outdir, exist_ok=True)
    out = lambda name: os.path.join(args.outdir, name)

    # Fail on bad knobs before any heavy work.
    dec_config = DecConfig(
        k=args.k,
        update_interval=args.update_interval,
        delta=args.delta,
        batch_size=args.batch_size,
        optimizer=_adam_config(args),
        max_iterations=args.max_iterations,
        kmeans_restarts=args.restarts,
    )
    dec_config.validate()

    with _stage("load"):
        features = _load_features(args.features, args.format, args.header)
        manifest = _load_manifest_arg(args.labels_manifest)
    with _stage("pretrain"):
        spec = autoencoder.AutoencoderSpec(
            input_dim=features.d,
            encoder_dims=_parse_dims(args.encoder_dims),
            batch_size=args.batch_size,
            epochs=args.epochs,
            optimizer=_adam_config(args),
        )
        rng = Rng(args.seed)
        params = autoencoder.build(spec, rng)
        params, report = autoencoder.pretrain(params, features, spec, rng)
        with _artifact(out("autoencoder.delc")) as target:
            save_checkpoint(
                target,
                Checkpoint(params=params, seed=args.seed, phase="pretrain", epoch=spec.epochs),
            )
        with _artifact(out("pretrain_loss.csv")) as target:
            report.write_csv(target)
    with _stage("cluster"):
        encoder = autoencoder.encoder_part(params)
        result = dec_fit(features, encoder, dec_config, Rng(args.seed))
        assignments = ClusterAssignments(
            ids=features.ids, hard=result.state.hard, q=result.state.q
        )
        with _artifact(out("assignments.csv")) as target:
            write_assignments(assignments, target)
        with _artifact(out("model.delc")) as target:
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
        with _artifact(out("history.csv")) as target:
            result.history.write_csv(target)
        embedded = autoencoder.encode(result.encoder, features)
        embedded_matrix = FeatureMatrix(values=embedded, ids=features.ids)
        with _artifact(out("embedded.delf")) as target:
            write_features(embedded_matrix, target, fmt="binary")
    with _stage("eval"):
        style, genre = _truths(features, manifest, "both")
        report = evaluate(
            embedded,
            result.state.hard,
            "embedded",
            style_truth=style,
            genre_truth=genre,
        )
        with _artifact(out("report.json")) as target:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
    with _stage("project"):
        by_cluster = {
            i: int(h) for i, h in zip(features.ids, result.state.hard)
        }
        sample = (
            stratified_sample(embedded_matrix, by_cluster, args.fraction, args.seed)
            if args.fraction < 1.0
            else embedded_matrix
        )
        config = TsneConfig(
            perplexity=args.perplexity,
            iterations=args.tsne_iterations,
            seed=args.seed,
        )
        coords = tsne_embed(sample.values, config)
        with _artifact(out("xy.csv")) as target:
            _write_xy(target, sample.ids, coords, pca_style=False)
    with _stage("plot"):
        sample_rows = {i: r for r, i in enumerate(features.ids)}
        labels = np.array(
            [result.state.hard[sample_rows[i]] for i in sample.ids], dtype=np.int64
        )
        svg = render_scatter(ScatterSpec(points=coords, labels=labels))
        with _artifact(out("scatter.svg")) as target:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(svg)
    _write_manifest(
        out("manifest.json"), "run", args, [args.features, args.labels_manifest], started
    )


# ---------------------------------------------------------------------------
# parser


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


def _add_adam(parser):
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
    p.add_argument("--encoder-dims", default=_DEFAULT_ENCODER_DIMS)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=200)
    _add_adam(p)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-loss-curve", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("cluster", help="jointly optimise embedding and centroids")
    _add_feature_input(p)
    p.add_argument("--ae-checkpoint", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--update-interval", type=int, default=140)
    p.add_argument("--delta", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--max-iterations", type=int, default=20000)
    p.add_argument("--restarts", type=int, default=20)
    _add_adam(p)
    p.add_argument("--out-assignments", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None)
    p.add_argument("--out-embedded", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("eval", help="score a clustering")
    p.add_argument("--points", required=True, help="matrix the metrics run in")
    p.add_argument(
        "--format", choices=("auto", "binary", "csv"), default="auto"
    )
    p.add_argument("--header", action="store_true")
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
    p.add_argument("--fraction", type=float, default=1.0)
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
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--labels-manifest", default=None)
    p.add_argument("--encoder-dims", default=_DEFAULT_ENCODER_DIMS)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=200)
    _add_adam(p)
    p.add_argument("--update-interval", type=int, default=140)
    p.add_argument("--delta", type=float, default=0.001)
    p.add_argument("--max-iterations", type=int, default=20000)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--fraction", type=float, default=0.1)
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

    try:
        threads = _resolve_threads(args)
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(threads)
        args.func(args)
    except DeliusError as exc:
        stage = _stage.name or args.command
        print(f"delius {args.command}: {stage} stage failed: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
