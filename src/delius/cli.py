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
* every input is read in the ``load`` stage, so an unreadable or
  malformed input is reported as "<command>: load stage failed";
* artifacts are written under a ``.partial`` suffix and renamed on
  stage success, so a crashed stage leaves only ``.partial`` files.

Each subcommand reads its inputs, calls one stage function and returns
its manifest's path; main() writes every manifest.  ``run`` chains the
same stage functions in one process, so its artifacts equal those of
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


def _parse_dims(text: str):
    from .errors import ConfigError

    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse layer sizes from {text!r}")
    if not dims:
        raise ConfigError("encoder dims must name at least one layer")
    return dims


def _adam_config(args):
    """The Adam settings, checked before any input is read."""
    from .neural import AdamConfig

    config = AdamConfig(lr=args.lr, beta1=args.beta1, beta2=args.beta2, epsilon=args.epsilon)
    config.validate()
    return config


def _dec_config(args):
    """The joint optimisation's settings, checked before any input is read."""
    from .dec import DecConfig

    config = DecConfig(
        k=args.k,
        update_interval=args.update_interval,
        delta=args.delta,
        batch_size=args.batch_size,
        optimizer=_adam_config(args),
        max_iterations=args.max_iterations,
        kmeans_restarts=args.restarts,
    )
    config.validate()
    return config


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


def _pretrain(args, features, optimizer, checkpoint_path: str, loss_path: str):
    """Train the mirrored autoencoder; return the checkpoint written."""
    from . import autoencoder
    from .neural import Checkpoint, save_checkpoint
    from .rng import Rng

    spec = autoencoder.AutoencoderSpec(
        input_dim=features.d,
        encoder_dims=_parse_dims(args.encoder_dims),
        batch_size=args.batch_size,
        epochs=args.epochs,
        optimizer=optimizer,
    )
    rng = Rng(args.seed)
    params = autoencoder.build(spec, rng)
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
        with _artifact(embedded_path) as target:
            write_features(embedded, target, fmt="binary")
    return assignments, embedded


def _evaluate(points, assignments, manifest, column: str, space_tag: str, out: str):
    from .dataio import cluster_labels, truth_labels
    from .metrics import evaluate

    style, genre = truth_labels(manifest, points, column)
    report = evaluate(
        points.values,
        cluster_labels(points.ids, assignments),
        space_tag,
        style_truth=style,
        genre_truth=genre,
    )
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
# handlers: load every input, run one stage, return the manifest's path


def _cmd_gap(args) -> str:
    from .dataio import global_average_pool, read_feature_maps, write_features

    with _stage("load"):
        block = read_feature_maps(args.maps)
    with _stage("pool"):
        with _artifact(args.out) as target:
            write_features(global_average_pool(block), target, fmt="binary")
    return args.out + ".manifest.json"


def _cmd_pretrain(args) -> str:
    optimizer = _adam_config(args)
    with _stage("load"):
        features = _read_features(args, args.features)
    with _stage("pretrain"):
        loss_path = args.out_loss_curve or args.out_checkpoint + ".loss.csv"
        _pretrain(args, features, optimizer, args.out_checkpoint, loss_path)
    return args.out_checkpoint + ".manifest.json"


def _cmd_cluster(args) -> str:
    from .neural import load_checkpoint

    config = _dec_config(args)
    with _stage("load"):
        features = _read_features(args, args.features)
        encoder = _encoder_of(load_checkpoint(args.ae_checkpoint))
    with _stage("cluster"):
        history_path = args.out_history or args.out_assignments + ".history.csv"
        _cluster(args, config, features, encoder, args.out_assignments,
                 args.out_checkpoint, history_path, args.out_embedded)
    return args.out_assignments + ".manifest.json"


def _cmd_eval(args) -> str:
    from .dataio import read_assignments

    with _stage("load"):
        points = _read_features(args, args.points)
        assignments = read_assignments(args.assignments)
        manifest = _read_labels(args)
    with _stage("eval"):
        _evaluate(points, assignments, manifest, args.label_column, args.space_tag, args.out)
    return args.out + ".manifest.json"


def _cmd_baseline(args) -> str:
    from .baselines import run_ae_kmeans, run_pca_kmeans
    from .dataio import ClusterAssignments, write_assignments
    from .errors import ConfigError
    from .neural import load_checkpoint

    with _stage("load"):
        features = _read_features(args, args.features)
        manifest = _read_labels(args)
        encoder = None
        if args.strategy == "ae-kmeans":
            if not args.ae_checkpoint:
                raise ConfigError("--ae-checkpoint is required for the ae-kmeans strategy")
            encoder = _encoder_of(load_checkpoint(args.ae_checkpoint))
    with _stage("baseline"):
        if encoder is None:
            run = run_pca_kmeans(
                features, args.k, r=args.r, seed=args.seed, manifest=manifest,
                restarts=args.restarts,
            )
        else:
            run = run_ae_kmeans(
                features, encoder, args.k, seed=args.seed, manifest=manifest,
                restarts=args.restarts,
            )
        _write_text(args.out, run.report.to_json())
        if args.out_assignments:
            with _artifact(args.out_assignments) as target:
                write_assignments(
                    ClusterAssignments(ids=run.ids, hard=run.labels, q=None), target
                )
    return args.out + ".manifest.json"


def _cluster_strata(ids, assignments) -> dict:
    from .dataio import cluster_labels

    return dict(zip(ids, cluster_labels(ids, assignments).tolist()))


def _stratify_labels(args, features):
    from .dataio import read_assignments
    from .errors import DataError

    manifest = _read_labels(args)
    if manifest is not None:
        mapping = manifest.label_map(args.label_column)
        missing = [i for i in features.ids if i not in mapping]
        if missing:
            raise DataError(
                f"cannot stratify: id {missing[0]!r} has no {args.label_column} label"
            )
        return {i: mapping[i] for i in features.ids}
    if args.assignments:
        return _cluster_strata(features.ids, read_assignments(args.assignments))
    return {i: 0 for i in features.ids}  # single stratum: plain sampling


def _cmd_project(args) -> str:
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
    tsne = None
    if args.method == "tsne":
        tsne = TsneConfig(
            perplexity=args.perplexity,
            iterations=args.iterations,
            learning_rate=args.learning_rate,
            early_exaggeration=args.early_exaggeration,
            seed=args.seed,
        )
        tsne.validate()
    with _stage("load"):
        features = _read_features(args, args.features)
        strata = _stratify_labels(args, features) if args.fraction < 1.0 else None
    with _stage("project"):
        _project(features, strata, args.fraction, args.seed, args.out, tsne, pca_dim=args.r)
    return args.out + ".manifest.json"


def _cmd_plot(args) -> str:
    from .dataio import read_assignments, read_xy
    from .plotting import check_layout

    layout = dict(width=args.width, height=args.height, radius=args.radius)
    check_layout(**layout)
    with _stage("load"):
        ids, coords = read_xy(args.xy)
        assignments = read_assignments(args.assignments)
    with _stage("plot"):
        _plot(ids, coords, assignments, args.out, **layout)
    return args.out + ".manifest.json"


def _cmd_run(args) -> str:
    from .projection import TsneConfig

    os.makedirs(args.outdir, exist_ok=True)
    out = lambda name: os.path.join(args.outdir, name)
    config = _dec_config(args)  # fail on bad knobs before any heavy work
    tsne = TsneConfig(perplexity=args.perplexity, iterations=args.tsne_iterations, seed=args.seed)
    tsne.validate()

    with _stage("load"):
        features = _read_features(args, args.features)
        manifest = _read_labels(args)
    with _stage("pretrain"):
        ckpt = _pretrain(args, features, config.optimizer, out("autoencoder.delc"),
                         out("pretrain_loss.csv"))
    with _stage("cluster"):
        assignments, embedded = _cluster(
            args, config, features, _encoder_of(ckpt), out("assignments.csv"),
            out("model.delc"), out("history.csv"), out("embedded.delf"),
        )
    with _stage("eval"):
        _evaluate(embedded, assignments, manifest, "both", "embedded", out("report.json"))
    with _stage("project"):
        strata = _cluster_strata(embedded.ids, assignments)
        ids, coords = _project(embedded, strata, args.fraction, args.seed, out("xy.csv"), tsne)
    with _stage("plot"):
        _plot(ids, coords, assignments, out("scatter.svg"))
    return out("manifest.json")


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
        started = time.monotonic()
        _write_manifest(args.func(args), args, started)
    except DeliusError as exc:
        stage = _stage.name or args.command
        print(f"delius {args.command}: {stage} stage failed: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
