"""Command line behaviour: artifacts, determinism, exit codes."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import delius
from delius import autoencoder
from delius.baselines import run_ae_kmeans, run_pca_kmeans
from delius.cli import _THREAD_ENV_VARS, build_parser, main
from delius.dataio import (
    ClusterAssignments,
    FeatureMapBlock,
    FeatureMatrix,
    global_average_pool,
    labels_for,
    read_assignments,
    read_features,
    read_label_manifest,
    write_assignments,
    write_feature_maps,
    write_features,
)
from delius.metrics import clustering_accuracy, evaluate
from delius.neural import load_checkpoint
from delius.rng import Rng

from oracles import child_memory

K = 3
N_PER = 30
DIM = 8
ENCODER = "6,2"

PRETRAIN_FLAGS = [
    "--encoder-dims", ENCODER,
    "--batch-size", "32",
    "--epochs", "12",
    "--lr", "0.005",
    "--seed", "7",
]

CLUSTER_FLAGS = [
    "--k", str(K),
    "--update-interval", "20",
    "--batch-size", "32",
    "--max-iterations", "400",
    "--seed", "7",
]


def _make_blobs(seed=1):
    rng = Rng(seed)
    directions, _ = np.linalg.qr(rng.normal((DIM, K)))
    centers = 14.0 * directions.T
    x = np.vstack([centers[j] + rng.normal((N_PER, DIM), std=0.5) for j in range(K)])
    ids = tuple(f"art{r:03d}" for r in range(x.shape[0]))
    truth = np.repeat(np.arange(K), N_PER)
    return FeatureMatrix.from_array(x, ids), truth


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Features on disk plus one pretrain and one cluster invocation."""
    root = tmp_path_factory.mktemp("cli")
    fm, truth = _make_blobs()
    features = str(root / "features.delf")
    write_features(fm, features)

    names = ["impr", "cubi", "expr"]
    manifest = root / "labels.csv"
    lines = ["id,style,genre"]
    for i, t in zip(fm.ids, truth):
        lines.append(f"{i},{names[t]},g{t % 2}")
    manifest.write_text("\n".join(lines) + "\n")

    ckpt = str(root / "ae.delc")
    code = main(["pretrain", "--features", features, "--out-checkpoint", ckpt] + PRETRAIN_FLAGS)
    assert code == 0

    assignments = str(root / "assign.csv")
    model = str(root / "model.delc")
    embedded = str(root / "embedded.delf")
    code = main(
        ["cluster", "--features", features, "--ae-checkpoint", ckpt,
         "--out-assignments", assignments, "--out-checkpoint", model,
         "--out-embedded", embedded] + CLUSTER_FLAGS
    )
    assert code == 0
    return {
        "root": root,
        "features": features,
        "manifest": str(manifest),
        "truth": truth,
        "fm": fm,
        "ae": ckpt,
        "assignments": assignments,
        "model": model,
        "embedded": embedded,
    }


# ---------------------------------------------------------------------------
# individual commands


def test_gap_pools_and_writes_manifest(tmp_path):
    rng = Rng(3)
    block = FeatureMapBlock(values=rng.normal((4, 5, 6)), ids=("a", "b", "c", "d"))
    maps = str(tmp_path / "maps.delm")
    write_feature_maps(block, maps)
    out = str(tmp_path / "pooled.delf")
    assert main(["gap", "--maps", maps, "--out", out]) == 0
    pooled = read_features(out)
    assert np.array_equal(pooled.values, global_average_pool(block).values)
    assert pooled.ids == block.ids
    record = json.loads((tmp_path / "pooled.delf.manifest.json").read_text())
    assert record["command"] == "gap"
    assert record["inputs"][maps] == hashlib.sha256(open(maps, "rb").read()).hexdigest()
    assert record["wall_time_s"] >= 0.0


def test_pretrain_artifacts(workspace):
    ckpt = load_checkpoint(workspace["ae"])
    assert ckpt.phase == "pretrain"
    assert ckpt.seed == 7
    assert ckpt.params.dims() == [DIM, 6, 2, 6, DIM]
    assert ckpt.centroids is None
    loss_lines = (workspace["root"] / "ae.delc.loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,loss"
    assert len(loss_lines) == 13
    losses = [float(line.split(",")[1]) for line in loss_lines[1:]]
    assert losses[-1] < losses[0]


def test_cluster_artifacts(workspace):
    assignments = read_assignments(workspace["assignments"])
    assert assignments.q is not None
    assert assignments.q.shape == (K * N_PER, K)
    assert assignments.ids == workspace["fm"].ids
    acc = clustering_accuracy(workspace["truth"], assignments.hard)
    assert acc == 1.0

    model = load_checkpoint(workspace["model"])
    assert model.phase == "dec"
    assert model.centroids.shape == (K, 2)
    assert model.params.dims() == [DIM, 6, 2]

    embedded = read_features(workspace["embedded"])
    assert embedded.values.shape == (K * N_PER, 2)
    assert embedded.ids == workspace["fm"].ids

    history = (workspace["root"] / "assign.csv.history.csv").read_text().splitlines()
    assert history[0] == "refresh_index,iter,kl_full,changed_fraction"
    assert len(history) >= 3


def test_no_partial_files_after_success(workspace):
    leftovers = list(workspace["root"].glob("*.partial*"))
    assert leftovers == []


def test_eval_report(workspace, tmp_path):
    out = str(tmp_path / "report.json")
    code = main(
        ["eval", "--points", workspace["embedded"],
         "--assignments", workspace["assignments"],
         "--labels-manifest", workspace["manifest"],
         "--out", out, "--seed", "7"]
    )
    assert code == 0
    report = json.loads(open(out).read())
    assert report["space_tag"] == "embedded"
    assert report["acc_style"] == 1.0
    assert report["k"] == K
    assert report["n"] == K * N_PER
    assert report["sc"] > 0.8
    assert isinstance(report["chi_infinite"], bool)


def test_eval_space_tag_and_single_column(workspace, tmp_path):
    out = str(tmp_path / "report.json")
    code = main(
        ["eval", "--points", workspace["features"],
         "--assignments", workspace["assignments"],
         "--labels-manifest", workspace["manifest"],
         "--label-column", "genre", "--space-tag", "raw1024",
         "--out", out]
    )
    assert code == 0
    report = json.loads(open(out).read())
    assert report["space_tag"] == "raw1024"
    assert report["acc_style"] is None
    assert report["acc_genre"] is not None


def test_eval_memory_bounded_in_rows(tmp_path):
    # 12,000 points: an n x n distance matrix alone would be 1,152 MB.
    n = 12_000
    points, assignments = tmp_path / "points.delf", tmp_path / "assign.csv"
    ids = tuple(f"p{i}" for i in range(n))
    write_features(FeatureMatrix.from_array(Rng(12).normal((n, 10)), ids), str(points))
    write_assignments(ClusterAssignments(ids=ids, hard=np.arange(n) % 5, q=None),
                      str(assignments))
    argv = ["eval", "--points", str(points), "--assignments", str(assignments),
            "--out", str(tmp_path / "report.json")]
    _, peak = child_memory("from delius.cli import main", f"assert main({argv!r}) == 0")
    assert json.loads((tmp_path / "report.json").read_text())["n"] == n
    assert peak < 300 * 1024 * 1024, f"peak RSS {peak / 2**20:.0f} MB"


def test_baseline_pca(workspace, tmp_path):
    out = str(tmp_path / "baseline.json")
    out_assign = str(tmp_path / "baseline_assign.csv")
    code = main(
        ["baseline", "--strategy", "pca-kmeans",
         "--features", workspace["features"], "--k", str(K), "--r", "3",
         "--labels-manifest", workspace["manifest"],
         "--out", out, "--out-assignments", out_assign, "--seed", "7"]
    )
    assert code == 0
    report = json.loads(open(out).read())
    assert report["space_tag"] == "pca3"
    assert report["acc_style"] == 1.0
    back = read_assignments(out_assign)
    assert back.q is None
    assert clustering_accuracy(workspace["truth"], back.hard) == 1.0


def test_baseline_ae(workspace, tmp_path):
    out = str(tmp_path / "baseline.json")
    code = main(
        ["baseline", "--strategy", "ae-kmeans",
         "--features", workspace["features"], "--k", str(K),
         "--ae-checkpoint", workspace["ae"],
         "--out", out, "--seed", "7"]
    )
    assert code == 0
    report = json.loads(open(out).read())
    assert report["space_tag"] == "embedded"


@pytest.mark.parametrize("strategy", ["pca-kmeans", "ae-kmeans"])
def test_baseline_report_is_the_eval_stage_on_its_points(workspace, tmp_path, strategy):
    fm = workspace["fm"]
    if strategy == "pca-kmeans":
        flags, tag = ["--r", "3"], "pca3"
        points, labels = run_pca_kmeans(fm, K, r=3, seed=7)
    else:
        flags, tag = ["--ae-checkpoint", workspace["ae"]], "embedded"
        encoder = autoencoder.encoder_part(load_checkpoint(workspace["ae"]).params)
        points, labels = run_ae_kmeans(fm, encoder, K, seed=7)
    out = tmp_path / "baseline.json"
    code = main(
        ["baseline", "--strategy", strategy, "--features", workspace["features"],
         "--k", str(K), "--labels-manifest", workspace["manifest"], "--out", str(out),
         "--seed", "7"] + flags
    )
    assert code == 0
    manifest = read_label_manifest(workspace["manifest"])
    style, genre = (labels_for(manifest, fm.ids, column) for column in ("style", "genre"))
    expected = evaluate(points, labels, tag, style_truth=style, genre_truth=genre).to_json()
    assert out.read_text() == expected
    # ... which is what ``eval`` writes for those points and labels
    points_path, assign_path = str(tmp_path / "points.delf"), str(tmp_path / "assign.csv")
    write_features(FeatureMatrix.from_array(points, fm.ids), points_path)
    write_assignments(ClusterAssignments(ids=fm.ids, hard=labels), assign_path)
    code = main(
        ["eval", "--points", points_path, "--assignments", assign_path,
         "--labels-manifest", workspace["manifest"], "--space-tag", tag,
         "--out", str(tmp_path / "eval.json")]
    )
    assert code == 0
    assert (tmp_path / "eval.json").read_text() == expected


def test_baseline_ae_requires_checkpoint(workspace, tmp_path, capsys):
    out = str(tmp_path / "baseline.json")
    code = main(
        ["baseline", "--strategy", "ae-kmeans",
         "--features", workspace["features"], "--k", str(K), "--out", out]
    )
    assert code == 2
    assert "--ae-checkpoint" in capsys.readouterr().err


def test_project_pca(workspace, tmp_path):
    out = str(tmp_path / "xy.csv")
    code = main(
        ["project", "--features", workspace["embedded"], "--method", "pca",
         "--r", "2", "--out", out]
    )
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "id,c_1,c_2"
    assert len(lines) == K * N_PER + 1


def test_project_tsne_stratified(workspace, tmp_path):
    out = str(tmp_path / "xy.csv")
    code = main(
        ["project", "--features", workspace["embedded"], "--method", "tsne",
         "--perplexity", "4", "--iterations", "40",
         "--fraction", "0.5", "--assignments", workspace["assignments"],
         "--out", out, "--seed", "7"]
    )
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "id,x,y"
    sampled_ids = [line.split(",")[0] for line in lines[1:]]
    assert len(sampled_ids) == (K * N_PER) // 2
    # stratification keeps each cluster at half size
    assignments = read_assignments(workspace["assignments"])
    by_id = dict(zip(assignments.ids, assignments.hard))
    counts = {}
    for i in sampled_ids:
        counts[int(by_id[i])] = counts.get(int(by_id[i]), 0) + 1
    assert counts == {j: N_PER // 2 for j in range(K)}


def test_project_stratify_uncovered_id_exit_3(workspace, tmp_path, capsys):
    lines = open(workspace["assignments"]).read().splitlines()
    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(lines[:-1]) + "\n")  # drops the last id
    code = main(
        ["project", "--features", workspace["embedded"], "--method", "pca",
         "--fraction", "0.5", "--assignments", str(partial),
         "--out", str(tmp_path / "xy.csv")]
    )
    assert code == 3
    assert workspace["fm"].ids[-1] in capsys.readouterr().err
    assert not (tmp_path / "xy.csv").exists()


def test_project_stratify_unlabelled_id_exit_3(tmp_path, capsys):
    fm = FeatureMatrix.from_array(Rng(3).normal((20, 4)))
    features = str(tmp_path / "features.delf")
    write_features(fm, features)
    manifest = tmp_path / "labels.csv"
    rows = [f"{i},s{r % 2},g0" for r, i in enumerate(fm.ids[:-1])]  # the last id has no row
    manifest.write_text("id,style,genre\n" + "\n".join(rows) + "\n")
    code = main(
        ["project", "--features", features, "--method", "pca", "--fraction", "0.5",
         "--labels-manifest", str(manifest), "--out", str(tmp_path / "xy.csv")]
    )
    assert code == 3
    assert f"id {fm.ids[-1]!r} has no style label" in capsys.readouterr().err
    assert not (tmp_path / "xy.csv").exists()


def test_plot_renders_svg(workspace, tmp_path):
    xy = str(tmp_path / "xy.csv")
    assert main(
        ["project", "--features", workspace["embedded"], "--method", "pca",
         "--r", "2", "--out", xy]
    ) == 0
    out = str(tmp_path / "scatter.svg")
    code = main(
        ["plot", "--xy", xy, "--assignments", workspace["assignments"], "--out", out]
    )
    assert code == 0
    root = ET.parse(out).getroot()
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == K * N_PER


def _loaded_by(argv, modules):
    """Exit code of ``main(argv)`` in a fresh process, and which of ``modules`` it loaded."""
    probe = (
        "import sys\n"
        "from delius.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, sorted(m for m in sys.modules if m in {tuple(modules)!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(delius.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_plot_process_loads_no_training_modules(workspace, tmp_path):
    xy = tmp_path / "xy.csv"
    xy.write_text(f"id,x,y\n{workspace['fm'].ids[0]},1.0,2.0\n")
    argv = ["plot", "--xy", str(xy), "--assignments", workspace["assignments"],
            "--out", str(tmp_path / "s.svg")]
    training = ("delius.dec", "delius.kmeans", "delius.neural", "delius.autoencoder",
                "delius.rng")
    assert _loaded_by(argv, training) == "0 []"


def test_eval_process_loads_no_masked_arrays(workspace, tmp_path):
    argv = ["eval", "--points", workspace["embedded"], "--assignments", workspace["assignments"],
            "--labels-manifest", workspace["manifest"], "--out", str(tmp_path / "r.json")]
    assert _loaded_by(argv, ("numpy.ma", "delius.rng")) == "0 []"


def _plot_pair(tmp_path, rows):
    """Exit code of ``plot`` on an ``id,x,y`` file of ``rows`` whose ids a and b
    are assigned clusters 0 and 1, and the SVG it wrote, if any."""
    xy, assignments, out = tmp_path / "xy.csv", tmp_path / "a.csv", tmp_path / "s.svg"
    xy.write_text(f"id,x,y\n{rows}\n")
    assignments.write_text("id,cluster\na,0\nb,1\n")
    code = main(["plot", "--xy", str(xy), "--assignments", str(assignments), "--out", str(out)])
    return code, out.read_text() if out.exists() else None


@pytest.mark.parametrize("rows, message", [
    ("a,1,2\na,3,4", "duplicate id 'a'"),
    (",1,2\nb,3,4", "invalid id ''"),
    ('"a\nb",1,2\nb,3,4', "invalid id 'a\\nb'"),
    ("a,nan,2\nb,3,4", "projection coordinates contains a non-finite value at (0, 0)"),
    ("a,1,2\nb,3,1e400", "projection coordinates contains a non-finite value at (1, 1)"),
])
def test_plot_malformed_xy_fails_in_load_stage(tmp_path, capsys, rows, message):
    assert _plot_pair(tmp_path, rows) == (3, None)
    err = capsys.readouterr().err
    assert "plot: load stage failed" in err and message in err


@pytest.mark.parametrize("rows", ["a,1e17,0\nb,1e17,1", "a,-1e308,0\nb,1e308,1"])
def test_plot_places_extreme_finite_coordinates(tmp_path, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, svg = _plot_pair(tmp_path, rows)
    assert code == 0
    for c in ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}circle"):
        assert 0.0 <= float(c.get("cx")) <= 800.0
        assert 0.0 <= float(c.get("cy")) <= 600.0


def test_plot_missing_id_fails_with_data_error(workspace, tmp_path, capsys):
    xy = tmp_path / "xy.csv"
    xy.write_text("id,x,y\nghost,1.0,2.0\n")
    out = str(tmp_path / "scatter.svg")
    code = main(
        ["plot", "--xy", str(xy), "--assignments", workspace["assignments"], "--out", out]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "plot" in err and "ghost" in err
    assert not (tmp_path / "scatter.svg").exists()


# ---------------------------------------------------------------------------
# the one-shot pipeline


def test_run_produces_all_artifacts(workspace, tmp_path):
    outdir = tmp_path / "out"
    code = main(
        ["run", "--features", workspace["features"], "--k", str(K),
         "--labels-manifest", workspace["manifest"],
         "--encoder-dims", ENCODER, "--batch-size", "32", "--epochs", "10",
         "--lr", "0.005", "--update-interval", "20", "--max-iterations", "300",
         "--fraction", "0.5", "--perplexity", "4", "--tsne-iterations", "40",
         "--outdir", str(outdir), "--seed", "21"]
    )
    assert code == 0
    expected = [
        "autoencoder.delc", "pretrain_loss.csv", "assignments.csv", "model.delc",
        "history.csv", "embedded.delf", "report.json", "xy.csv", "scatter.svg",
        "manifest.json",
    ]
    for name in expected:
        assert (outdir / name).exists(), name
    assert list(outdir.glob("*.partial*")) == []

    report = json.loads((outdir / "report.json").read_text())
    assert report["acc_style"] == 1.0
    assert report["space_tag"] == "embedded"

    record = json.loads((outdir / "manifest.json").read_text())
    assert record["command"] == "run"
    assert record["seed"] == 21
    assert workspace["features"] in record["inputs"]

    model = load_checkpoint(str(outdir / "model.delc"))
    assert model.phase == "dec"
    header = (outdir / "xy.csv").read_text().splitlines()[0]
    assert header == "id,x,y"


RUN_ARTIFACTS = (
    "autoencoder.delc", "pretrain_loss.csv", "assignments.csv", "model.delc",
    "history.csv", "embedded.delf", "embedded.delf.ids", "report.json", "xy.csv",
    "scatter.svg",
)


def test_run_equals_chained_subcommands(workspace, tmp_path):
    features, manifest = workspace["features"], workspace["manifest"]
    shared = ["--batch-size", "32", "--lr", "0.005", "--seed", "7"]
    tsne = ["--perplexity", "4", "--fraction", "0.5"]
    run_dir = tmp_path / "run"
    assert main(
        ["run", "--features", features, "--k", str(K), "--labels-manifest", manifest,
         "--encoder-dims", ENCODER, "--epochs", "12", "--update-interval", "20",
         "--max-iterations", "400", "--tsne-iterations", "40", "--outdir", str(run_dir)]
        + shared + tsne
    ) == 0

    chain = lambda name: str(tmp_path / "chain" / name)
    os.makedirs(tmp_path / "chain")
    for argv in (
        ["pretrain", "--features", features, "--encoder-dims", ENCODER, "--epochs", "12",
         "--out-checkpoint", chain("autoencoder.delc"),
         "--out-loss-curve", chain("pretrain_loss.csv")] + shared,
        ["cluster", "--features", features, "--ae-checkpoint", chain("autoencoder.delc"),
         "--k", str(K), "--update-interval", "20", "--max-iterations", "400",
         "--out-assignments", chain("assignments.csv"), "--out-checkpoint", chain("model.delc"),
         "--out-history", chain("history.csv"), "--out-embedded", chain("embedded.delf")]
        + shared,
        ["eval", "--points", chain("embedded.delf"), "--assignments", chain("assignments.csv"),
         "--labels-manifest", manifest, "--out", chain("report.json"), "--seed", "7"],
        ["project", "--features", chain("embedded.delf"), "--method", "tsne",
         "--iterations", "40", "--assignments", chain("assignments.csv"),
         "--out", chain("xy.csv"), "--seed", "7"] + tsne,
        ["plot", "--xy", chain("xy.csv"), "--assignments", chain("assignments.csv"),
         "--out", chain("scatter.svg"), "--seed", "7"],
    ):
        assert main(argv) == 0, argv[0]
    for name in RUN_ARTIFACTS:
        assert _checksum(run_dir / name) == _checksum(chain(name)), name


def _palindromic_pretrain(workspace, tmp_path):
    # --encoder-dims 4,8 on 8-d features mirrors to 8-4-8-4-8, so the
    # encoder 8-4-8 reads the same forwards and backwards.
    ckpt = str(tmp_path / "ae.delc")
    assert main(
        ["pretrain", "--features", workspace["features"], "--out-checkpoint", ckpt,
         "--encoder-dims", "4,8", "--epochs", "2", "--batch-size", "32", "--seed", "7"]
    ) == 0
    return ckpt


def test_run_palindromic_encoder_embeds_through_whole_encoder(workspace, tmp_path):
    outdir = tmp_path / "out"
    assert main(
        ["run", "--features", workspace["features"], "--k", str(K),
         "--encoder-dims", "4,8", "--epochs", "2", "--batch-size", "32",
         "--max-iterations", "40", "--update-interval", "20", "--fraction", "0.5",
         "--perplexity", "4", "--tsne-iterations", "20", "--outdir", str(outdir)]
    ) == 0
    model = load_checkpoint(str(outdir / "model.delc"))
    assert model.params.dims() == [DIM, 4, DIM]
    assert model.centroids.shape == (K, DIM)
    assert read_features(str(outdir / "embedded.delf")).values.shape == (K * N_PER, DIM)


def test_cluster_palindromic_encoder_keeps_chain(workspace, tmp_path):
    ckpt = _palindromic_pretrain(workspace, tmp_path)
    flags = ["--k", str(K), "--max-iterations", "40", "--update-interval", "20",
             "--batch-size", "32", "--seed", "7"]
    for source, name in ((ckpt, "first"), (str(tmp_path / "first.delc"), "second")):
        assert main(
            ["cluster", "--features", workspace["features"], "--ae-checkpoint", source,
             "--out-assignments", str(tmp_path / f"{name}.csv"),
             "--out-checkpoint", str(tmp_path / f"{name}.delc"),
             "--out-embedded", str(tmp_path / f"{name}.delf")] + flags
        ) == 0
        # a pretrain checkpoint gives its encoder half, a joint one its stored chain
        assert load_checkpoint(str(tmp_path / f"{name}.delc")).params.dims() == [DIM, 4, DIM]
        embedded = read_features(str(tmp_path / f"{name}.delf"))
        assert embedded.values.shape == (K * N_PER, DIM)


def test_cluster_embeds_once(workspace, tmp_path, monkeypatch):
    # --out-embedded takes the joint optimiser's final embedding: the only
    # full-data encodes are the joint optimiser's own, one per refresh.
    encode = autoencoder.encode
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(autoencoder, "encode", counted)
    model, embedded = str(tmp_path / "m.delc"), str(tmp_path / "e.delf")
    history = tmp_path / "h.csv"
    assert main(
        ["cluster", "--features", workspace["features"], "--ae-checkpoint", workspace["ae"],
         "--out-assignments", str(tmp_path / "a.csv"), "--out-checkpoint", model,
         "--out-history", str(history), "--out-embedded", embedded] + CLUSTER_FLAGS
    ) == 0
    assert len(calls) == len(history.read_text().splitlines()) - 1  # a header, then refreshes
    expected = encode(load_checkpoint(model).params, workspace["fm"])
    assert read_features(embedded).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "2", "nan", "inf", "half"])
def test_out_of_range_fraction_exit_2_before_load(workspace, tmp_path, capsys, fraction):
    xy, outdir = tmp_path / "xy.csv", tmp_path / "out"
    for argv in (
        ["project", "--features", workspace["embedded"], "--method", "pca", "--out", str(xy)],
        ["run", "--features", workspace["features"], "--k", str(K), "--outdir", str(outdir),
         "--encoder-dims", ENCODER, "--epochs", "1", "--max-iterations", "20"],
    ):
        assert main(argv + ["--fraction", fraction]) == 2
        err = capsys.readouterr().err
        assert f"argument --fraction: must be a number in (0, 1], got {fraction!r}" in err
    assert not xy.exists() and not outdir.exists()


def test_run_rejects_bad_k_before_work(tmp_path, workspace, capsys):
    outdir = tmp_path / "out"
    code = main(
        ["run", "--features", workspace["features"], "--k", "1",
         "--outdir", str(outdir)]
    )
    assert code == 2
    assert "k must be at least 2" in capsys.readouterr().err
    assert not outdir.exists()


def test_run_checks_k_against_rows_in_load_stage(workspace, tmp_path, capsys):
    # The cluster stage would find it too, but only after pretraining had
    # run and written its artifacts.
    outdir = tmp_path / "out"
    n = workspace["fm"].n
    argv = ["run", "--features", workspace["features"], "--k", str(n + 1), "--outdir", str(outdir),
            "--encoder-dims", ENCODER, "--epochs", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"delius run: load stage failed: k = {n + 1} exceeds the number of "
                          f"points n = {n}")
    assert list(outdir.iterdir()) == []


def test_run_checks_tsne_sample_in_load_stage(workspace, tmp_path, capsys):
    # --fraction 0.1 of 90 rows in 3 clusters gives t-SNE at most 10 rows, too
    # few for the default perplexity 30; the project stage would find it only
    # after pretraining, clustering and eval.
    outdir = tmp_path / "out"
    argv = ["run", "--features", workspace["features"], "--k", str(K), "--outdir", str(outdir),
            "--encoder-dims", ENCODER, "--epochs", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "delius run: load stage failed: the t-SNE sample holds at most 10 rows: "
        "perplexity must lie in (1, 3) for n = 10, got 30.0"
    )
    assert list(outdir.iterdir()) == []


# ---------------------------------------------------------------------------
# exit codes and error surfaces


def test_missing_features_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.delf")
    code = main(
        ["pretrain", "--features", missing, "--out-checkpoint", str(tmp_path / "x.delc")]
    )
    assert code == 2
    assert "nope.delf" in capsys.readouterr().err


def test_corrupt_features_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.delf"
    bad.write_bytes(b"XXXX" + bytes(20))
    code = main(
        ["pretrain", "--features", str(bad), "--out-checkpoint", str(tmp_path / "x.delc")]
    )
    assert code == 3
    assert "byte offset 0" in capsys.readouterr().err


def test_nan_features_exit_3(tmp_path):
    bad = tmp_path / "bad.delf"
    payload = struct.pack("<2d", 1.0, float("nan"))
    bad.write_bytes(b"DELF" + struct.pack("<HBBQQ", 1, 1, 0, 1, 2) + payload)
    code = main(
        ["pretrain", "--features", str(bad), "--out-checkpoint", str(tmp_path / "x.delc")]
    )
    assert code == 3


@pytest.mark.parametrize("preamble", [b"{}", b"[]"])
def test_malformed_checkpoint_preamble_exit_3(workspace, tmp_path, capsys, preamble):
    ckpt = tmp_path / "bad.delc"
    ckpt.write_bytes(b"DELC" + struct.pack("<HI", 1, len(preamble)) + preamble)
    code = main(
        ["cluster", "--features", workspace["features"], "--ae-checkpoint", str(ckpt),
         "--out-assignments", str(tmp_path / "a.csv"),
         "--out-checkpoint", str(tmp_path / "m.delc")] + CLUSTER_FLAGS
    )
    assert code == 3
    assert "bad.delc: preamble" in capsys.readouterr().err


def _wrong_dims(preamble, payload):
    preamble["layer_dims"] = [d + 1 for d in preamble["layer_dims"]]
    return preamble, payload


def _nan_weight(preamble, payload):
    return preamble, payload[:8] + struct.pack("<d", float("nan")) + payload[16:]


def _tanh(preamble, payload):
    preamble["activations"][0] = "tanh"
    return preamble, payload


@pytest.mark.parametrize("edit", [_wrong_dims, _nan_weight, _tanh],
                         ids=["layer-dims", "nan-weight", "activation"])
def test_inconsistent_checkpoint_exit_3(workspace, tmp_path, capsys, edit):
    data = open(workspace["ae"], "rb").read()
    (length,) = struct.unpack("<I", data[6:10])
    preamble, payload = edit(json.loads(data[10 : 10 + length]), data[10 + length :])
    raw = json.dumps(preamble).encode("utf-8")
    ckpt = tmp_path / "bad.delc"
    ckpt.write_bytes(data[:6] + struct.pack("<I", len(raw)) + raw + payload)
    code = main(
        ["cluster", "--features", workspace["features"], "--ae-checkpoint", str(ckpt),
         "--out-assignments", str(tmp_path / "a.csv"),
         "--out-checkpoint", str(tmp_path / "m.delc")] + CLUSTER_FLAGS
    )
    assert code == 3
    assert "bad.delc" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("flag", ["--labels-manifest", "--assignments"])
def test_project_stratifier_without_sampling_exit_2(workspace, tmp_path, capsys, flag):
    # --fraction 1 (the default) samples nothing, so the file would go
    # unread; it must not be accepted, malformed or not.
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a\nvalid,file,at all\n")
    out = tmp_path / "xy.csv"
    code = main(["project", "--features", workspace["embedded"], "--method", "pca",
                 flag, str(bad), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{flag} stratifies a sample and needs --fraction below 1" in err
    assert "load stage" not in err
    assert not out.exists() and not (tmp_path / "xy.csv.manifest.json").exists()


def test_project_both_stratifiers_exit_2(workspace, tmp_path, capsys):
    out = tmp_path / "xy.csv"
    code = main(["project", "--features", workspace["embedded"], "--method", "pca",
                 "--fraction", "0.5", "--labels-manifest", workspace["manifest"],
                 "--assignments", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == 2
    assert "give one" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "xy.csv.manifest.json").exists()


def _truncated_maps(workspace, tmp_path):
    maps = tmp_path / "t.delm"
    write_feature_maps(FeatureMapBlock(values=np.ones((2, 3, 4))), str(maps))
    maps.write_bytes(maps.read_bytes()[:7])
    return ["gap", "--maps", str(maps), "--out", str(tmp_path / "p.delf")], 3


def _missing_ae_checkpoint(workspace, tmp_path):
    return ["baseline", "--strategy", "ae-kmeans", "--features", workspace["features"],
            "--k", str(K), "--ae-checkpoint", str(tmp_path / "nope.delc"),
            "--out", str(tmp_path / "b.json")], 2


def _missing_stratify_labels(workspace, tmp_path):
    return ["project", "--features", workspace["embedded"], "--method", "pca",
            "--fraction", "0.5", "--labels-manifest", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "xy.csv")], 2


def _assignments_no_writer_produces(workspace, tmp_path):
    # float() and int() would read '1_0' and ' 0' as 10 and 0.
    (tmp_path / "in").mkdir()
    assignments = tmp_path / "in" / "a.csv"
    assignments.write_text("id,cluster\na,1_0\nb, 0")
    return ["eval", "--points", workspace["embedded"], "--assignments", str(assignments),
            "--out", str(tmp_path / "report.json")], 3


@pytest.mark.parametrize("case", [_truncated_maps, _missing_ae_checkpoint,
                                  _missing_stratify_labels, _assignments_no_writer_produces])
def test_unreadable_input_fails_in_load_stage(workspace, tmp_path, capsys, case):
    argv, exit_code = case(workspace, tmp_path)
    assert main(argv) == exit_code
    assert capsys.readouterr().err.startswith(f"delius {argv[0]}: load stage failed: ")
    assert not [p for p in tmp_path.iterdir() if p.suffix in (".delf", ".json", ".csv")]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numeric_blowup_exit_4(tmp_path, capsys):
    huge = FeatureMatrix.from_array(np.full((8, 4), 1e200))
    path = str(tmp_path / "huge.delf")
    write_features(huge, path)
    code = main(
        ["pretrain", "--features", path, "--out-checkpoint", str(tmp_path / "x.delc"),
         "--encoder-dims", "2", "--epochs", "1", "--batch-size", "8"]
    )
    assert code == 4
    assert "pretrain stage failed" in capsys.readouterr().err
    assert not (tmp_path / "x.delc").exists()


# A value that no run can use exits 2 before any input is read: the
# features and xy file given are unreadable and would exit 3.  A finite
# value that makes t-SNE diverge exits 4 with no layout written.
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("command, flags, code, message", [
    ("project", ["--learning-rate", "inf"], 2, "learning rate must be finite"),
    ("project", ["--learning-rate", "1e300"], 4, "t-SNE layout diverged"),
    ("project", ["--early-exaggeration", "inf"], 2, "early exaggeration must be finite"),
    ("project", ["--perplexity", "inf"], 2, "perplexity must be finite"),
    ("plot", ["--radius", "inf"], 2, "marker radius must be finite"),
    ("pretrain", ["--epsilon", "inf"], 2, "Adam epsilon must be finite"),
    ("pretrain", ["--lr", "inf"], 2, "learning rate must be finite"),
    ("pretrain", ["--epochs", "0"], 2, "epochs must be at least 1"),
    ("pretrain", ["--batch-size", "0"], 2, "batch_size must be at least 1"),
    ("pretrain", ["--encoder-dims", "4,x"], 2, "cannot parse layer sizes from '4,x'"),
    ("pretrain", ["--encoder-dims", "0"], 2, "encoder_dims must be positive"),
    ("run", ["--epochs", "0"], 2, "epochs must be at least 1"),
    ("run", ["--encoder-dims", "4,x"], 2, "cannot parse layer sizes from '4,x'"),
    ("project", ["--method", "pca", "--perplexity", "inf", "--iterations", "0"], 2,
     "--perplexity is read only by the tsne method"),
    ("project", ["--method", "pca", "--iterations", "0"], 2,
     "--perplexity is read only by the tsne method"),
    ("baseline", ["--k", "0"], 2, "k must be at least 1, got 0"),
    ("baseline", ["--restarts", "0"], 2, "restarts must be at least 1, got 0"),
    ("baseline", ["--r", "0"], 2, "r must be at least 1, got 0"),
    ("baseline", ["--strategy", "ae-kmeans"], 2,
     "--ae-checkpoint is required for the ae-kmeans strategy"),
    ("baseline", ["--ae-checkpoint", "ae.delc"], 2,
     "--ae-checkpoint is read only by the ae-kmeans strategy"),
])
def test_unusable_numeric_flag(workspace, tmp_path, capsys, command, flags, code, message):
    bad = tmp_path / "bad.delf"
    bad.write_bytes(b"XXXX" + bytes(20))
    bad_xy = tmp_path / "bad.csv"
    bad_xy.write_text("not an xy file\n")
    features = workspace["embedded"] if code == 4 else str(bad)
    out = tmp_path / "out"
    argv = {
        "project": ["project", "--features", features, "--method", "tsne",
                    "--perplexity", "4", "--iterations", "30", "--out", str(out)],
        "plot": ["plot", "--xy", str(bad_xy), "--assignments", workspace["assignments"],
                 "--out", str(out)],
        "pretrain": ["pretrain", "--features", features, "--out-checkpoint", str(out)],
        "run": ["run", "--features", features, "--k", "3", "--outdir", str(out)],
        "baseline": ["baseline", "--strategy", "pca-kmeans", "--features", features,
                     "--k", "3", "--out", str(out)],
    }[command]
    assert main(argv + flags) == code
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "bad.delf"]


def test_project_pca_needs_two_coordinates_before_load(tmp_path, capsys):
    # One PCA coordinate would write an "id,c_1" file that read_xy, and so
    # plot, rejects; the features given are unreadable and would exit 3.
    bad = tmp_path / "bad.delf"
    bad.write_bytes(b"XXXX" + bytes(20))
    argv = ["project", "--features", str(bad), "--method", "pca", "--r", "1",
            "--out", str(tmp_path / "xy.csv")]
    assert main(argv) == 2
    assert "--r must be at least 2 for a PCA projection, got 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.delf"]


def test_diverging_tsne_stops_with_only_the_error(tmp_path):
    # The layout is checked every iteration, so numpy's overflow warnings
    # from the steps after divergence never reach stderr.
    path = tmp_path / "rows.delf"
    write_features(FeatureMatrix.from_array(Rng(31).normal((60, 4))), str(path))
    argv = ["project", "--features", str(path), "--method", "tsne", "--perplexity", "4",
            "--iterations", "30", "--learning-rate", "1e300", "--out", str(tmp_path / "xy.csv")]
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; from delius.cli import main; sys.exit(main({argv!r}))"],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delius.__file__))),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4, result.stderr
    assert "t-SNE layout diverged" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "xy.csv").exists()


def _delius_process(argv):
    return subprocess.run(
        [sys.executable, "-m", "delius.cli", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delius.__file__))),
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("command", ["project", "run"])
def test_unwritable_output_exit_2(tmp_path, command):
    path = tmp_path / "rows.delf"
    write_features(FeatureMatrix.from_array(Rng(33).normal((20, 4))), str(path))
    if command == "project":  # the output's directory is missing
        out = str(tmp_path / "missing" / "xy.csv")
        argv = ["project", "--features", str(path), "--method", "pca", "--out", out]
    else:  # an output directory below a regular file
        out = str(path / "out")
        argv = ["run", "--features", str(path), "--k", "2", "--outdir", out]
    result = _delius_process(argv)
    assert result.returncode == 2, result.stderr
    assert f"cannot write {out}" in result.stderr
    assert "Traceback" not in result.stderr


def _subparser(command):
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return subparsers.choices[command]


_OUTPUT_CASES = [
    (command, action.option_strings[0])
    for command in ("gap", "pretrain", "cluster", "eval", "baseline", "project", "plot")
    for action in _subparser(command)._actions
    if action.dest.startswith("out")
]


# Every command's inputs as malformed files (each would exit 3 in the load
# stage) and its output flags as writable paths, keyed by flag.
def _malformed_inputs(tmp_path, command):
    def bad(name):
        path = tmp_path / name
        path.write_bytes(b"XXXX" + bytes(20))
        return str(path)

    inputs = {
        "gap": ["--maps", bad("m.delm")],
        "pretrain": ["--features", bad("f.delf")],
        "cluster": ["--features", bad("f.delf"), "--ae-checkpoint", bad("ae.delc"), "--k", "2"],
        "eval": ["--points", bad("p.delf"), "--assignments", bad("a.csv")],
        "baseline": ["--strategy", "pca-kmeans", "--features", bad("f.delf"), "--k", "2"],
        "project": ["--features", bad("f.delf"), "--method", "pca"],
        "plot": ["--xy", bad("xy.csv"), "--assignments", bad("a.csv")],
    }[command]
    flags = [flag for case, flag in _OUTPUT_CASES if case == command]
    return inputs, {flag: str(tmp_path / f"o{i}") for i, flag in enumerate(flags)}


def _argv(command, inputs, outputs):
    return [command, *inputs, *(part for item in outputs.items() for part in item)]


def test_output_cases_cover_every_output_flag():
    assert sorted({flag for _, flag in _OUTPUT_CASES}) == [
        "--out", "--out-assignments", "--out-checkpoint", "--out-embedded",
        "--out-history", "--out-loss-curve",
    ]


@pytest.mark.parametrize("command, flag", _OUTPUT_CASES)
def test_output_in_missing_directory_exit_2_before_load(tmp_path, capsys, command, flag):
    inputs, outputs = _malformed_inputs(tmp_path, command)
    assert main(_argv(command, inputs, outputs)) == 3  # every output writable: load fails
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "file")
    outputs[flag] = missing
    assert main(_argv(command, inputs, outputs)) == 2
    err = capsys.readouterr().err
    assert f"{flag}: cannot write {missing}" in err and "load stage" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["gap", "pretrain", "cluster", "eval", "baseline",
                                     "project", "plot", "run"])
def test_refused_output_exits_2_without_traceback(tmp_path, command):
    if command == "run":  # run makes its --outdir; one below a regular file cannot be made
        inputs, _ = _malformed_inputs(tmp_path, "pretrain")
        out = str(tmp_path / "f.delf" / "out")
        argv = ["run", *inputs, "--k", "2", "--outdir", out]
    else:
        inputs, outputs = _malformed_inputs(tmp_path, command)
        flag = next(iter(outputs))
        out = outputs[flag] = str(tmp_path / "missing" / "file")
        argv = _argv(command, inputs, outputs)
    result = _delius_process(argv)
    assert result.returncode == 2, result.stderr
    assert f"cannot write {out}" in result.stderr
    assert "Traceback" not in result.stderr


def test_output_that_is_a_directory_exit_2(tmp_path, capsys):
    inputs, _ = _malformed_inputs(tmp_path, "project")
    (tmp_path / "xy").mkdir()
    argv = ["project", *inputs, "--out", str(tmp_path / "xy")]
    assert main(argv) == 2
    assert f"--out: cannot write {tmp_path / 'xy'}: it is a directory" in capsys.readouterr().err


def test_two_outputs_naming_one_file_exit_2(tmp_path, capsys, monkeypatch):
    # The second write would replace the first artifact, so the pair is
    # refused, however the two paths spell the file.
    inputs, _ = _malformed_inputs(tmp_path, "cluster")
    monkeypatch.chdir(tmp_path)
    argv = ["cluster", *inputs, "--out-assignments", "a.out",
            "--out-checkpoint", str(tmp_path / "m.delc"), "--out-history", str(tmp_path / "a.out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--out-assignments and --out-history both name" in err
    assert not list(tmp_path.glob("*.out*"))


def _files(directory):
    return {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["eval", "run"])
def test_output_naming_an_input_exit_2_before_load(workspace, tmp_path, capsys, command):
    # The write would replace the input the command read, and the manifest
    # would record the artifact's digest as the input's.
    if command == "eval":
        points = shutil.copyfile(workspace["embedded"], tmp_path / "p.delf")
        target = shutil.copyfile(workspace["assignments"], tmp_path / "a.csv")
        argv, label, flag = ["eval", "--points", str(points), "--assignments", str(target),
                             "--out", str(target)], "--out", "--assignments"
    else:
        (tmp_path / "out").mkdir()
        target = shutil.copyfile(workspace["features"], tmp_path / "out" / "embedded.delf")
        argv, label, flag = ["run", "--features", str(target), "--outdir", str(tmp_path / "out"),
                             *PRETRAIN_FLAGS, *CLUSTER_FLAGS], "--outdir", "--features"
    before = _files(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{label}: {target} is the {flag} input" in err and "load stage" not in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command, outputs, message", [
    ("cluster", ["--out-assignments", "a.csv", "--out-checkpoint", "a.csv.history.csv"],
     "--out-checkpoint and --out-history (default) both name a.csv.history.csv"),
    ("pretrain", ["--out-checkpoint", "ae.delc", "--out-loss-curve", "ae.delc.manifest.json"],
     "--out-loss-curve and the manifest both name ae.delc.manifest.json"),
])
def test_default_output_or_manifest_naming_another_output_exit_2(
    workspace, tmp_path, capsys, monkeypatch, command, outputs, message
):
    # A left-out flag's default path and the manifest are written as well,
    # so they join the check that no two outputs name one file.
    monkeypatch.chdir(tmp_path)
    inputs = ["--features", workspace["features"]]
    if command == "cluster":
        inputs += ["--ae-checkpoint", workspace["ae"], *CLUSTER_FLAGS]
    else:
        inputs += PRETRAIN_FLAGS
    assert main([command, *inputs, *outputs]) == 2
    err = capsys.readouterr().err
    assert message in err and "load stage" not in err
    assert not list(tmp_path.iterdir())


def test_output_naming_an_input_sidecar_exit_2_before_load(tmp_path, capsys):
    # The projection would replace the ids of f.delf's 30 rows, and the
    # next read of f.delf would fail on the sidecar's line count.
    features = tmp_path / "f.delf"
    write_features(FeatureMatrix.from_array(Rng(35).normal((30, 4)),
                                            tuple(f"r{i}" for i in range(30))), str(features))
    before = _files(tmp_path)
    argv = ["project", "--features", str(features), "--method", "pca",
            "--out", str(features) + ".ids"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--out: {features}.ids is the id sidecar of the --features input" in err
    assert "load stage" not in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", ["gap", "cluster", "run"])
def test_binary_output_sidecar_is_an_output(workspace, tmp_path, capsys, monkeypatch, command):
    # A binary output writes its ids beside it, so that sidecar must name
    # neither an input nor another output.
    monkeypatch.chdir(tmp_path)
    if command == "gap":
        maps = tmp_path / "p.delf.ids"
        write_feature_maps(FeatureMapBlock(values=np.ones((2, 3, 4))), str(maps))
        argv = ["gap", "--maps", str(maps), "--out", "p.delf"]
        message = "the id sidecar of --out: p.delf.ids is the --maps input"
    elif command == "cluster":
        argv = ["cluster", "--features", workspace["features"], "--ae-checkpoint", workspace["ae"],
                *CLUSTER_FLAGS, "--out-assignments", "a.csv", "--out-checkpoint", "m.delc",
                "--out-embedded", "e.delf", "--out-history", "e.delf.ids"]
        message = "--out-history and the id sidecar of --out-embedded both name e.delf.ids"
    else:
        (tmp_path / "out").mkdir()
        labels = shutil.copyfile(workspace["manifest"], tmp_path / "out" / "embedded.delf.ids")
        argv = ["run", "--features", workspace["features"], "--labels-manifest", str(labels),
                "--outdir", "out", *PRETRAIN_FLAGS, *CLUSTER_FLAGS]
        message = f"--outdir: out{os.sep}embedded.delf.ids is the --labels-manifest input"
    before = _files(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "load stage" not in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", ["gap", "cluster", "run"])
def test_default_ids_remove_an_old_binary_sidecar(workspace, tmp_path, monkeypatch, command):
    # A file with named rows left its ids beside it; rows written over it
    # with default ids make no sidecar, so the old one must go, or the
    # next read would attach the old names (or fail on their count).
    monkeypatch.chdir(tmp_path)
    if command == "gap":
        write_feature_maps(FeatureMapBlock(values=np.ones((4, 2, 3))), "m.delm")
        out, argv = "e.delf", ["gap", "--maps", "m.delm", "--out", "e.delf"]
    else:
        values = read_features(workspace["features"]).values
        write_features(FeatureMatrix.from_array(values), "f.delf")
        if command == "cluster":
            (tmp_path / "a.csv.ids").write_text("kept\n")  # a CSV output has no sidecar
            out = "e.delf"
            argv = ["cluster", "--features", "f.delf", "--ae-checkpoint", workspace["ae"],
                    *CLUSTER_FLAGS, "--out-assignments", "a.csv", "--out-checkpoint", "m.delc",
                    "--out-embedded", out]
        else:
            (tmp_path / "out").mkdir()
            out = os.path.join("out", "embedded.delf")
            argv = ["run", "--features", "f.delf", "--outdir", "out", *PRETRAIN_FLAGS,
                    *CLUSTER_FLAGS, "--fraction", "0.5", "--perplexity", "4",
                    "--tsne-iterations", "40"]
    named = tuple(f"old{i}" for i in range(6))
    write_features(FeatureMatrix.from_array(Rng(36).normal((6, 3)), named), out)
    assert os.path.exists(out + ".ids")
    assert main(argv) == 0
    assert not os.path.exists(out + ".ids")
    written = read_features(out)
    assert written.ids == tuple(str(i) for i in range(written.n))
    if command == "cluster":
        assert (tmp_path / "a.csv.ids").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["gap", "cluster"])
def test_binary_output_with_csv_name_exit_2_before_load(tmp_path, capsys, command):
    # The readers take a .csv name as CSV, so DELF bytes written under one
    # could not be read back through that name.
    inputs, outputs = _malformed_inputs(tmp_path, command)
    flag = {"gap": "--out", "cluster": "--out-embedded"}[command]
    outputs[flag] = str(tmp_path / "emb.CSV")
    assert main(_argv(command, inputs, outputs)) == 2
    err = capsys.readouterr().err
    assert f"{flag}: {outputs[flag]} would hold binary features under a name read as CSV" in err
    assert "load stage" not in err


@pytest.mark.parametrize("command", ["pretrain", "cluster", "eval", "baseline", "project", "run"])
@pytest.mark.parametrize("fmt", ["auto", "binary"])
def test_header_for_binary_features_exit_2_before_load(tmp_path, capsys, command, fmt):
    # A binary file has no header row to skip, so the flag could not take effect.
    if command == "run":
        inputs, _ = _malformed_inputs(tmp_path, "pretrain")
        argv = ["run", *inputs, "--k", "2", "--outdir", str(tmp_path / "out")]
    else:
        argv = _argv(command, *_malformed_inputs(tmp_path, command))
    if fmt == "binary":  # a .csv name read as binary
        i = argv.index("--points" if command == "eval" else "--features") + 1
        argv[i] = shutil.move(argv[i], argv[i].removesuffix(".delf") + ".csv")
    assert main(argv + ["--format", fmt, "--header"]) == 2
    err = capsys.readouterr().err
    assert "--header skips a CSV header row" in err and "load stage" not in err


def test_checkpoint_that_does_not_fit_features_exit_3_alike(workspace, tmp_path, capsys):
    # cluster and baseline read one checkpoint through the same encoder
    # check, so both report its width mismatch as bad data, in one message.
    narrow = str(tmp_path / "narrow.delf")
    write_features(FeatureMatrix.from_array(Rng(37).normal((60, 5))), narrow)
    common = ["--features", narrow, "--ae-checkpoint", workspace["ae"], "--k", str(K)]
    runs = {
        "cluster": ["cluster", *common, "--out-assignments", str(tmp_path / "a.csv"),
                    "--out-checkpoint", str(tmp_path / "m.delc")],
        "baseline": ["baseline", "--strategy", "ae-kmeans", *common,
                     "--out", str(tmp_path / "b.json")],
    }
    messages = set()
    for stage, argv in runs.items():
        assert main(argv) == 3
        prefix = f"delius {stage}: {stage} stage failed: "
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        messages.add(err[len(prefix):])
    assert messages == {f"input width 5 does not match network fan-in {DIM}\n"}


def test_error_before_any_stage_names_no_stage(workspace, tmp_path, capsys):
    target = shutil.copyfile(workspace["assignments"], tmp_path / "a.csv")
    argv = ["eval", "--points", workspace["embedded"], "--assignments", str(target),
            "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"delius eval: --out: {target} is the --assignments input; give another file"
    )
    blocked = tmp_path / "file"
    blocked.write_bytes(b"")
    argv = ["run", "--features", workspace["features"], "--outdir", str(blocked / "out"),
            *PRETRAIN_FLAGS, *CLUSTER_FLAGS]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"delius run: cannot write {blocked / 'out'}: ")


def test_error_inside_a_stage_names_the_stage(tmp_path, capsys):
    points = tmp_path / "p.delf"
    points.write_bytes(b"XXXX" + bytes(20))
    argv = ["project", "--features", str(points), "--method", "pca",
            "--out", str(tmp_path / "xy.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("delius project: load stage failed: ")
    # The stage belongs to that error: a later call failing before any stage names none.
    argv = ["gap", "--maps", str(points), "--out", str(tmp_path / "missing" / "y.delf")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("delius gap: --out: cannot write ")


def test_unreadable_id_sidecar_exit_2(tmp_path):
    path = tmp_path / "rows.delf"
    write_features(FeatureMatrix.from_array(Rng(34).normal((20, 4))), str(path))
    (tmp_path / "rows.delf.ids").mkdir()
    result = _delius_process(["project", "--features", str(path), "--method", "pca",
                              "--out", str(tmp_path / "xy.csv")])
    assert result.returncode == 2, result.stderr
    assert "load stage failed" in result.stderr and "rows.delf.ids" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "xy.csv").exists()


def test_unknown_flag_exit_2(capsys):
    assert main(["pretrain", "--bogus"]) == 2


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "delius" in capsys.readouterr().out
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert len(commands) == 8
    for command, parser in commands.items():
        assert main([command, "--help"]) == 0, command
        listed = set(re.findall(r"--?[\w-]+", capsys.readouterr().out))
        options = {option for action in parser._actions for option in action.option_strings}
        assert options <= listed, command


def test_bad_threads_env_exit_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DELIUS_THREADS", "many")
    code = main(
        ["gap", "--maps", str(tmp_path / "x.delm"), "--out", str(tmp_path / "y.delf")]
    )
    assert code == 2
    assert "DELIUS_THREADS" in capsys.readouterr().err


def test_threads_flag_overrides_env(monkeypatch, tmp_path):
    monkeypatch.setenv("DELIUS_THREADS", "many")
    rng = Rng(5)
    block = FeatureMapBlock(values=rng.normal((2, 3, 4)))
    maps = str(tmp_path / "m.delm")
    write_feature_maps(block, maps)
    out = str(tmp_path / "p.delf")
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "7")  # inherited caps the flag must replace
    assert main(["gap", "--maps", maps, "--out", out, "--threads", "2"]) == 0
    assert {var: os.environ[var] for var in _THREAD_ENV_VARS} == dict.fromkeys(
        _THREAD_ENV_VARS, "2"
    )


def test_run_byte_deterministic_at_two_threads(tmp_path):
    # The thread cap must precede numpy's import, so each run is its own
    # process.  At this size the paper encoder's GEMMs round differently
    # with two BLAS threads than with one; two runs at two must agree.
    rng = Rng(3)
    centres = 3.0 * rng.normal((4, 64))
    x = centres[np.arange(200) % 4] + rng.normal((200, 64))
    features = str(tmp_path / "features.delf")
    write_features(FeatureMatrix.from_array(x), features)
    digests = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        argv = ["run", "--features", features, "--k", "4", "--epochs", "3",
                "--batch-size", "64", "--update-interval", "5", "--max-iterations", "20",
                "--fraction", "0.2", "--perplexity", "5", "--tsne-iterations", "30",
                "--threads", "2", "--outdir", str(outdir)]
        result = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from delius.cli import main; sys.exit(main({argv!r}))"],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delius.__file__))),
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        digests.append({p.name: _checksum(p) for p in outdir.iterdir()
                        if p.name != "manifest.json"})  # the manifest carries wall time
    assert len(digests[0]) == 9
    assert digests[0] == digests[1]


def test_package_names_resolve_on_first_use():
    for name in delius.__all__:
        module = importlib.import_module(f"delius.{delius._MODULE_OF[name]}")
        assert getattr(delius, name) is getattr(module, name)
    assert delius.metrics is importlib.import_module("delius.metrics")
    with pytest.raises(AttributeError):
        delius.no_such_name


# The names ``import delius`` exports: the README's library example, the
# reader, writer and container of each documented format, the errors, and
# the stage entry points the command line calls, with their configs.
PACKAGE_SURFACE = {
    "AdamConfig", "AutoencoderSpec", "Checkpoint", "ClusterAssignments", "ConfigError",
    "DataError", "DecConfig", "DegenerateCentroidsError", "DeliusError", "FeatureMapBlock",
    "FeatureMatrix", "FormatError", "LabelManifest", "NumericError", "Rng", "ScatterSpec",
    "ShapeError", "TsneConfig", "build", "dec_fit", "encode", "encoder_part", "evaluate",
    "global_average_pool", "load_checkpoint", "pca_fit", "pca_transform", "pretrain",
    "read_assignments", "read_feature_maps", "read_features", "read_label_manifest",
    "read_xy", "render_scatter", "run_ae_kmeans", "run_pca_kmeans", "save_checkpoint",
    "silhouette", "stratified_sample", "tsne_embed", "write_assignments",
    "write_feature_maps", "write_features", "write_label_manifest", "write_xy",
}

# Names deleted because nothing but their own tests called them.
DELETED = {
    "neural": ("numeric_gradient",),
    "projection": ("pca_inverse",),
    "projection.PcaModel": ("r", "explained_variance", "total_variance",
                            "explained_variance_ratio"),
    "rng.Rng": ("spawn", "uniforms"),
    "dataio.FeatureMatrix": ("row_index",),
    "dataio.LabelManifest": ("ids",),
    "dataio.ClusterAssignments": ("k",),
    "metrics.EvalReport": ("from_dict",),
    "autoencoder.AutoencoderSpec": ("latent_dim",),
    "autoencoder.PretrainReport": ("wall_time_s", "seed"),
    "kmeans.KmeansResult": ("max_iters", "tol"),
    "baselines": ("BaselineRun", "_cluster_and_score", "EMBEDDED_SPACE_TAG"),
    "neural.MlpParams": ("copy",),
}


def test_package_surface():
    assert set(delius.__all__) == PACKAGE_SURFACE
    for owner, names in DELETED.items():
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"delius.{module}")
        if cls:
            target = getattr(target, cls)
            assert not set(names) & set(getattr(target, "__dataclass_fields__", ())), owner
        for name in names:
            assert not hasattr(target, name), f"{owner}.{name}"
    from oracles import numeric_gradient  # the finite-difference oracle lives with the tests

    grad = numeric_gradient(lambda v: float(v @ v), np.array([1.0, -2.0]))
    assert np.allclose(grad, [2.0, -4.0], atol=1e-8)


def test_package_import_loads_no_numeric_library():
    src = os.path.dirname(os.path.dirname(delius.__file__))
    probe = (
        "import sys, delius, delius.cli\n"
        "delius.cli.build_parser()\n"
        "cli = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "import delius.metrics\n"
        "print(cli, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[0] == "[] False"


# ---------------------------------------------------------------------------
# the command surface and its manifests

# Each subcommand's minimal argv and every value it parses to, defaults
# included: no flag may be added, removed, renamed or re-defaulted.
SURFACE = {
    "gap": (
        ["--maps", "m", "--out", "o"],
        {"maps": "m", "out": "o", "seed": 0, "threads": None},
    ),
    "pretrain": (
        ["--features", "f", "--out-checkpoint", "c"],
        {"batch_size": 256, "beta1": 0.9, "beta2": 0.999, "encoder_dims": "500,500,2000,10",
         "epochs": 200, "epsilon": 1e-08, "features": "f", "format": "auto", "header": False,
         "lr": 0.001, "out_checkpoint": "c", "out_loss_curve": None, "seed": 0,
         "threads": None},
    ),
    "cluster": (
        ["--features", "f", "--ae-checkpoint", "a", "--k", "3", "--out-assignments", "o",
         "--out-checkpoint", "c"],
        {"ae_checkpoint": "a", "batch_size": 256, "beta1": 0.9, "beta2": 0.999,
         "delta": 0.001, "epsilon": 1e-08, "features": "f", "format": "auto",
         "header": False, "k": 3, "lr": 0.001, "max_iterations": 20000,
         "out_assignments": "o", "out_checkpoint": "c", "out_embedded": None,
         "out_history": None, "restarts": 20, "seed": 0, "threads": None,
         "update_interval": 140},
    ),
    "eval": (
        ["--points", "p", "--assignments", "a", "--out", "o"],
        {"assignments": "a", "format": "auto", "header": False, "label_column": "both",
         "labels_manifest": None, "out": "o", "points": "p", "seed": 0,
         "space_tag": "embedded", "threads": None},
    ),
    "baseline": (
        ["--strategy", "pca-kmeans", "--features", "f", "--k", "3", "--out", "o"],
        {"ae_checkpoint": None, "features": "f", "format": "auto", "header": False, "k": 3,
         "labels_manifest": None, "out": "o", "out_assignments": None, "r": 200,
         "restarts": 20, "seed": 0, "strategy": "pca-kmeans", "threads": None},
    ),
    "project": (
        ["--features", "f", "--method", "pca", "--out", "o"],
        {"assignments": None, "early_exaggeration": 12.0, "features": "f", "format": "auto",
         "fraction": 1.0, "header": False, "iterations": 1000, "label_column": "style",
         "labels_manifest": None, "learning_rate": 200.0, "method": "pca", "out": "o",
         "perplexity": 30.0, "r": 2, "seed": 0, "threads": None},
    ),
    "plot": (
        ["--xy", "x", "--assignments", "a", "--out", "o"],
        {"assignments": "a", "height": 600, "out": "o", "radius": 3.0, "seed": 0,
         "threads": None, "width": 800, "xy": "x"},
    ),
    "run": (
        ["--features", "f", "--k", "3", "--outdir", "d"],
        {"batch_size": 256, "beta1": 0.9, "beta2": 0.999, "delta": 0.001,
         "encoder_dims": "500,500,2000,10", "epochs": 200, "epsilon": 1e-08, "features": "f",
         "format": "auto", "fraction": 0.1, "header": False, "k": 3, "labels_manifest": None,
         "lr": 0.001, "max_iterations": 20000, "outdir": "d", "perplexity": 30.0,
         "restarts": 20, "seed": 0, "threads": None, "tsne_iterations": 1000,
         "update_interval": 140},
    ),
}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_command_surface_pinned(command):
    argv, expected = SURFACE[command]
    parsed = vars(build_parser().parse_args([command] + argv))
    assert callable(parsed.pop("func"))
    assert parsed == dict(expected, command=command)
    assert all(type(parsed[key]) is type(value) for key, value in expected.items())


def test_cli_defaults_are_the_library_defaults():
    # The parser keeps its defaults as literals, so that building it loads
    # no numpy: each must equal the library default it stands for.
    from delius.autoencoder import AutoencoderSpec
    from delius.baselines import DEFAULT_PCA_DIM
    from delius.dec import DecConfig
    from delius.kmeans import DEFAULT_RESTARTS
    from delius.neural import AdamConfig
    from delius.projection import TsneConfig

    adam, spec, dec, tsne = AdamConfig(), AutoencoderSpec(), DecConfig(k=2), TsneConfig()
    training = {"lr": adam.lr, "beta1": adam.beta1, "beta2": adam.beta2,
                "epsilon": adam.epsilon}
    pretraining = {"encoder_dims": ",".join(map(str, spec.encoder_dims)),
                   "epochs": spec.epochs, "batch_size": spec.batch_size}
    clustering = {"update_interval": dec.update_interval, "delta": dec.delta,
                  "max_iterations": dec.max_iterations, "restarts": dec.kmeans_restarts,
                  "batch_size": dec.batch_size}
    library = {
        "pretrain": {**training, **pretraining},
        "cluster": {**training, **clustering},
        "run": {**training, **pretraining, **clustering, "perplexity": tsne.perplexity,
                "tsne_iterations": tsne.iterations},
        "project": {"perplexity": tsne.perplexity, "iterations": tsne.iterations,
                    "learning_rate": tsne.learning_rate,
                    "early_exaggeration": tsne.early_exaggeration},
        "baseline": {"restarts": DEFAULT_RESTARTS, "r": DEFAULT_PCA_DIM},
    }
    for command, expected in library.items():
        parsed = vars(build_parser().parse_args([command] + SURFACE[command][0]))
        assert {key: parsed[key] for key in expected} == expected, command


def _manifest_cases(workspace, tmp_path):
    """(argv, manifest path, input files) for every command, with every
    input flag it has given."""
    w, out = workspace, lambda name: str(tmp_path / name)
    maps = out("m.delm")
    write_feature_maps(FeatureMapBlock(values=np.ones((2, 3, 4))), maps)
    xy = out("xy.csv")
    assert main(["project", "--features", w["embedded"], "--method", "pca", "--out", xy]) == 0
    dec = ["--batch-size", "32", "--max-iterations", "20", "--update-interval", "10"]
    return [
        (["gap", "--maps", maps, "--out", out("p.delf")], out("p.delf.manifest.json"), [maps]),
        (["pretrain", "--features", w["features"], "--out-checkpoint", out("ae.delc"),
          "--encoder-dims", ENCODER, "--epochs", "1"],
         out("ae.delc.manifest.json"), [w["features"]]),
        (["cluster", "--features", w["features"], "--ae-checkpoint", w["ae"], "--k", str(K),
          "--out-assignments", out("a.csv"), "--out-checkpoint", out("c.delc")] + dec,
         out("a.csv.manifest.json"), [w["features"], w["ae"]]),
        (["eval", "--points", w["embedded"], "--assignments", w["assignments"],
          "--labels-manifest", w["manifest"], "--out", out("r.json")],
         out("r.json.manifest.json"), [w["embedded"], w["assignments"], w["manifest"]]),
        (["baseline", "--strategy", "ae-kmeans", "--features", w["features"], "--k", str(K),
          "--ae-checkpoint", w["ae"], "--labels-manifest", w["manifest"],
          "--out", out("b.json"), "--out-assignments", out("b.csv")],
         out("b.json.manifest.json"), [w["features"], w["ae"], w["manifest"]]),
        (["project", "--features", w["embedded"], "--method", "pca", "--fraction", "0.5",
          "--labels-manifest", w["manifest"], "--out", out("xy2.csv")],
         out("xy2.csv.manifest.json"), [w["embedded"], w["manifest"]]),
        (["plot", "--xy", xy, "--assignments", w["assignments"], "--out", out("s.svg")],
         out("s.svg.manifest.json"), [xy, w["assignments"]]),
        (["run", "--features", w["features"], "--k", str(K), "--labels-manifest", w["manifest"],
          "--encoder-dims", ENCODER, "--epochs", "1", "--fraction", "0.5",
          "--perplexity", "4", "--tsne-iterations", "10", "--outdir", out("run")] + dec,
         out("run/manifest.json"), [w["features"], w["manifest"]]),
    ]


def test_manifest_inputs_are_the_input_flags_files(workspace, tmp_path):
    cases = _manifest_cases(workspace, tmp_path)
    assert sorted(argv[0] for argv, _, _ in cases) == sorted(SURFACE)
    for argv, manifest, inputs in cases:
        assert main(argv) == 0, argv[0]
        record = json.loads(open(manifest).read())
        assert record["command"] == argv[0]
        assert record["inputs"] == {p: _checksum(p) for p in inputs}, argv[0]


# Every flag of every command, under each --method or --strategy value, as
# (command, variant, option); all are taken from the parser itself.
_ALL_FLAG_CASES = [
    (command, variant, action.option_strings[0])
    for command in sorted(SURFACE)
    for variant in next((a.choices for a in _subparser(command)._actions
                         if a.dest in ("method", "strategy")), (None,))
    for action in _subparser(command)._actions
    if action.option_strings and action.dest != "help"
]

# The flags whose effect the flag test leaves to other tests, each with its reason.
_PATH = "a file path: the _OUTPUT_CASES tests and the manifest-inputs test cover it"
_EXEMPT = {
    **dict.fromkeys(("--maps", "--features", "--points", "--xy", "--ae-checkpoint",
                     "--assignments", "--labels-manifest", "--out", "--out-checkpoint",
                     "--out-loss-curve", "--out-assignments", "--out-history", "--out-embedded",
                     "--outdir"), _PATH),
    "--seed": "every command takes it, drawing or not (stage-chain gives it to eval and plot); "
              "test_seed_changes_pretrain_output shows it taking effect",
    "--threads": "it caps BLAS threads only in a process that has not loaded numpy yet; "
                 "test_threads_flag_overrides_env shows it taking effect",
    "--format": "a value other than auto either names the format the file's name gives "
                "or makes the read fail",
}

# A valid value of each other flag that differs from its default and from
# the value on its base command line (a store_true flag takes none, and a
# flag with choices takes its first choice other than the default).
_FLAG_VALUES = {
    "--encoder-dims": "4,2", "--epochs": "3", "--batch-size": "16", "--lr": "0.002",
    "--beta1": "0.8", "--beta2": "0.99", "--epsilon": "1e-6", "--k": "2",
    "--update-interval": "7", "--delta": "0.5", "--max-iterations": "5", "--restarts": "1",
    "--r": "3", "--perplexity": "5", "--iterations": "40", "--learning-rate": "100",
    "--early-exaggeration": "4", "--tsne-iterations": "20", "--fraction": "0.4",
    "--space-tag": "pca", "--width": "400", "--height": "300", "--radius": "2",
}


def _base_argv(w, command, variant, out):
    """A small command line on ``w``'s files that the command accepts, writing into ``out``."""
    training = ["--encoder-dims", ENCODER, "--epochs", "2", "--batch-size", "32"]
    clustering = ["--k", str(K), "--update-interval", "10", "--max-iterations", "40",
                  "--batch-size", "32"]
    return [command, *{
        "pretrain": ["--features", w["features"], "--out-checkpoint", f"{out}/ae.delc",
                     *training],
        "cluster": ["--features", w["features"], "--ae-checkpoint", w["ae"], *clustering,
                    "--out-assignments", f"{out}/a.csv", "--out-checkpoint", f"{out}/m.delc"],
        "eval": ["--points", w["embedded"], "--assignments", w["assignments"],
                 "--out", f"{out}/r.json"],
        "baseline": ["--strategy", variant, "--features", w["features"], "--k", str(K),
                     "--out", f"{out}/b.json",
                     *(["--r", "5"] if variant == "pca-kmeans" else ["--ae-checkpoint", w["ae"]])],
        "project": ["--features", w["features"], "--method", variant, "--out", f"{out}/xy.csv",
                    *(["--perplexity", "4", "--iterations", "30"] if variant == "tsne" else [])],
        "plot": ["--xy", w["xy"], "--assignments", w["assignments"], "--out", f"{out}/s.svg"],
        "run": ["--features", w["features"], *training, *clustering, "--fraction", "0.5",
                "--perplexity", "4", "--tsne-iterations", "10", "--outdir", f"{out}/run"],
    }[command]]


@pytest.fixture(scope="module")
def flag_runs(tmp_path_factory):
    """Run a command line in a new directory; return its exit code, its
    stderr and its artifacts, manifests left out.  Results are kept, so each
    base command line runs once.

    The clusters overlap, so refining moves labels and k-means restarts end
    apart: on the workspace's blobs, --delta and --restarts change no byte."""
    root = tmp_path_factory.mktemp("flags")
    w = {key: str(root / name) for key, name in (("features", "f.delf"), ("ae", "ae.delc"),
                                                 ("assignments", "a.csv"),
                                                 ("embedded", "e.delf"), ("xy", "xy.csv"))}
    centres = np.repeat(2.0 * np.eye(K, DIM), N_PER, axis=0)
    write_features(FeatureMatrix.from_array(Rng(41).normal(centres.shape) + centres),
                   w["features"])
    for argv in (
        ["pretrain", "--features", w["features"], "--out-checkpoint", w["ae"],
         "--encoder-dims", ENCODER, "--epochs", "2"],
        ["cluster", "--features", w["features"], "--ae-checkpoint", w["ae"], "--k", str(K),
         "--max-iterations", "40", "--out-assignments", w["assignments"],
         "--out-checkpoint", str(root / "m.delc"), "--out-embedded", w["embedded"]],
        ["project", "--features", w["embedded"], "--method", "pca", "--out", w["xy"]],
    ):
        assert main(argv) == 0
    done = {}

    def run(command, variant, extra=()):
        key = (command, variant, *extra)
        if key not in done:
            out = root / f"case{len(done)}"
            out.mkdir()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(_base_argv(w, command, variant, out) + list(extra))
            files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                     if p.is_file() and not p.name.endswith("manifest.json")}
            done[key] = code, err.getvalue(), files
        return done[key]

    return run


def test_flag_exemptions_name_flags_the_parser_has():
    assert set(_EXEMPT) <= {option for _, _, option in _ALL_FLAG_CASES}


@pytest.mark.parametrize("command, variant, option",
                         [case for case in _ALL_FLAG_CASES if case[2] not in _EXEMPT])
def test_every_flag_takes_effect_or_is_refused(flag_runs, command, variant, option):
    # A flag set away from its default either changes an artifact other
    # than the manifest, whose arguments change with any flag, or exits 2
    # before the load stage, naming the flag and writing nothing.
    code, _, base = flag_runs(command, variant)
    assert code == 0 and base
    action = next(a for a in _subparser(command)._actions if option in a.option_strings)
    if action.dest in ("method", "strategy"):  # the other variant's base command line
        code, err, files = flag_runs(command, next(c for c in action.choices if c != variant))
    else:
        value = ([] if action.nargs == 0
                 else [next(c for c in action.choices if c != action.default)] if action.choices
                 else [_FLAG_VALUES[option]])
        code, err, files = flag_runs(command, variant, (option, *value))
    if code == 2:
        assert err.startswith(f"delius {command}: {option} ") and not files, err
    else:
        assert code == 0, err
        assert files != base


def test_explicit_default_of_an_unread_flag_is_accepted(flag_runs):
    code, err, files = flag_runs("project", "tsne", ("--r", "2"))
    assert code == 0, err
    assert files == flag_runs("project", "tsne")[2]


# ---------------------------------------------------------------------------
# determinism


def _checksum(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_pretrain_byte_deterministic(workspace, tmp_path):
    sums = []
    for attempt in ("a", "b"):
        ckpt = str(tmp_path / f"{attempt}.delc")
        code = main(
            ["pretrain", "--features", workspace["features"], "--out-checkpoint", ckpt]
            + PRETRAIN_FLAGS
        )
        assert code == 0
        sums.append((_checksum(ckpt), _checksum(ckpt + ".loss.csv")))
    assert sums[0] == sums[1]


def test_cluster_byte_deterministic(workspace, tmp_path):
    sums = []
    for attempt in ("a", "b"):
        assignments = str(tmp_path / f"{attempt}_assign.csv")
        model = str(tmp_path / f"{attempt}_model.delc")
        code = main(
            ["cluster", "--features", workspace["features"],
             "--ae-checkpoint", workspace["ae"],
             "--out-assignments", assignments, "--out-checkpoint", model]
            + CLUSTER_FLAGS
        )
        assert code == 0
        sums.append(
            (_checksum(assignments), _checksum(model), _checksum(assignments + ".history.csv"))
        )
    assert sums[0] == sums[1]


def test_seed_changes_pretrain_output(workspace, tmp_path):
    sums = []
    for seed in ("7", "8"):
        ckpt = str(tmp_path / f"s{seed}.delc")
        code = main(
            ["pretrain", "--features", workspace["features"], "--out-checkpoint", ckpt,
             "--encoder-dims", ENCODER, "--batch-size", "32", "--epochs", "3",
             "--seed", seed]
        )
        assert code == 0
        sums.append(_checksum(ckpt))
    assert sums[0] != sums[1]
