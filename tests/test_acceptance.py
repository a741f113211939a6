"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The training-based criteria share one trained
model (`trained_detector` in conftest.py); everything is deterministic, so the
numbers printed here reproduce bit-for-bit across runs.
"""

import time

import numpy as np

from sstgnn import autodiff as ad
from sstgnn import differential, gat, graphs, metrics, model, spectral, synth
from sstgnn.cli import main as cli_main
from sstgnn.rng import stream

from layouts import dense_columns

CROSS_FAMILIES = ("spectral_noise", "temporal_jitter")


def report(name, passed, detail):
    line = f"{name} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def random_video_graph(rng, frames, grid):
    emb = rng.random((frames, grid * grid, 6))
    return graphs.unified_graph(emb, grid, grid, 0.3, 0.3)


def connected_components(support):
    n = support.shape[0]
    seen = np.zeros(n, dtype=bool)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(support[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return count


def test_a1_differential_equivalence_exact():
    t0 = time.perf_counter()
    rng = stream("acceptance", "a1")
    worst = 0.0
    for size in (8, 16):
        for _ in range(100):
            grid = rng.random((size, size))
            passed, non_anchor, _ = differential.theorem1_check(grid, 2)
            assert passed
            worst = max(worst, non_anchor)
    elapsed = time.perf_counter() - t0
    report("A1", worst == 0.0 and elapsed < 5.0,
           f"max non-anchor deviation {worst:.1e} over 200 grids "
           f"in {elapsed:.2f}s (< 5s)")


def test_a2_spectral_identities():
    t0 = time.perf_counter()
    rng = stream("acceptance", "a2")
    checks = {"parseval": 0.0, "allpass": 0.0, "lam_low": 0.0, "lam_high": 0.0,
              "component": 0.0, "dirichlet": 0.0}
    for k in range(50):
        frames = (2, 4)[k % 2]
        grid = (2, 4)[(k // 2) % 2]
        g = random_video_graph(rng, frames, grid)
        lap = spectral.graph_laplacian(g)
        basis = spectral.eigendecompose(lap)
        x = rng.normal(size=(g.node_count, 5))

        coeffs = basis.vectors.T @ x
        checks["parseval"] = max(
            checks["parseval"],
            abs(np.linalg.norm(coeffs) - np.linalg.norm(x)) / np.linalg.norm(x))
        rebuilt = spectral.apply_filter(x, basis, np.ones(g.node_count))
        checks["allpass"] = max(
            checks["allpass"],
            np.linalg.norm(rebuilt - x) / np.linalg.norm(x))
        checks["lam_low"] = min(checks["lam_low"], basis.eigenvalues.min())
        checks["lam_high"] = max(checks["lam_high"], basis.eigenvalues.max())
        support = (g.spatial + np.maximum(g.temporal, 0)) > 0
        n_comp = connected_components(support)
        checks["component"] = max(checks["component"],
                                  basis.eigenvalues[n_comp - 1])
        gains = spectral.FilterPreset("low_pass").gains(basis.eigenvalues)
        filtered = spectral.apply_filter(x, basis, gains)
        rise = (spectral.dirichlet_energy(filtered, lap)
                - spectral.dirichlet_energy(x, lap)).max()
        checks["dirichlet"] = max(checks["dirichlet"], rise)
    elapsed = time.perf_counter() - t0
    ok = (checks["parseval"] <= 1e-9 and checks["allpass"] <= 1e-9
          and checks["lam_low"] >= -1e-8 and checks["lam_high"] <= 2 + 1e-8
          and checks["component"] <= 1e-8 and checks["dirichlet"] <= 1e-9
          and elapsed < 30.0)
    report("A2", ok,
           f"parseval {checks['parseval']:.1e}, all-pass {checks['allpass']:.1e}, "
           f"spectrum [{checks['lam_low']:.1e}, {checks['lam_high']:.6f}], "
           f"component lambda_min {checks['component']:.1e}, "
           f"dirichlet rise {checks['dirichlet']:.1e}, {elapsed:.1f}s (< 30s)")


def test_a3_analytic_spectra():
    lam2 = spectral.eigendecompose(spectral.laplacian_from_adjacency(
        [[0.0, 1.0], [1.0, 0.0]])).eigenvalues
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    lam3 = spectral.eigendecompose(
        spectral.laplacian_from_adjacency(path)).eigenvalues
    dev = max(np.abs(lam2 - [0.0, 2.0]).max(),
              np.abs(lam3 - [0.0, 1.0, 2.0]).max())
    report("A3", dev <= 1e-10,
           f"edge {{0,2}} and path {{0,1,2}} within {dev:.1e} (<= 1e-10)")


def test_a4_end_to_end_gradients():
    t0 = time.perf_counter()
    clip = synth.generate(synth.SynthSpec("real", seed=0, frames=2,
                                          height=4, width=4)).clip
    config = model.preset_config("toy")
    params = model.init_params(config, seed=0, random_head=True)
    _, structure = model.forward([clip], params, config)

    def loss():
        x = model.encode_patches(structure.patches, params, config)
        logits = model.forward_with_structure(structure, x, params, config)
        return ad.cross_entropy(logits, [1])

    worst_name, worst = "", 0.0
    for name, tensor in params.named().items():
        err = ad.finite_diff_check(loss, {name: tensor})
        if err > worst:
            worst_name, worst = name, err
    elapsed = time.perf_counter() - t0
    report("A4", worst <= 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e} ({worst_name}) over all parameters "
           f"in {elapsed:.1f}s (< 60s)")


def test_a5_in_domain_detection(trained_detector):
    pcfg, params, history, elapsed = trained_detector
    acc, auc, _ = metrics.test_cell(pcfg, params, "upsample_artifact")
    ok = auc >= 0.90 and acc >= 0.85 and elapsed <= 600.0
    report("A5", ok,
           f"held-out 32+32 upsample_artifact: auc {auc:.3f} (>= 0.90), "
           f"acc {acc:.3f} (>= 0.85), trained 64+64 in {elapsed:.0f}s "
           f"(<= 600s), final loss {history[-1][2]:.4f}")


def test_a6_cross_domain_and_spectral_ablation(trained_detector):
    pcfg, params, _, _ = trained_detector
    full = {}
    for fam in CROSS_FAMILIES:
        _, auc, _ = metrics.test_cell(pcfg, params, fam)
        full[fam] = auc

    ablated_cfg = metrics.ProtocolConfig(
        train=model.TrainConfig(seed=7, use_spectral=False),
        families=pcfg.families, n_train=pcfg.n_train, n_test=pcfg.n_test,
        seed=pcfg.seed)
    abl_params, _ = metrics.train_on_families(ablated_cfg, ["upsample_artifact"])
    ablated = {}
    for fam in CROSS_FAMILIES:
        _, auc, _ = metrics.test_cell(ablated_cfg, abl_params, fam)
        ablated[fam] = auc

    gap = (np.mean(list(full.values())) - np.mean(list(ablated.values())))
    ok = all(v >= 0.65 for v in full.values()) and gap >= 0.03
    report("A6", ok,
           f"cross-domain auc {{spectral_noise: {full['spectral_noise']:.3f}, "
           f"temporal_jitter: {full['temporal_jitter']:.3f}}} (each >= 0.65); "
           f"full-minus-ablated average gap {gap:+.4f} (>= 0.03)")


def test_a7_gat_properties():
    rng = stream("acceptance", "a7")
    worst_row = 0.0
    worst_perm = 0.0
    for k in range(20):
        n, d = int(rng.integers(3, 9)), 4
        params = gat.GatParams(ad.parameter(rng.normal(size=(d, d))),
                               ad.parameter(rng.normal(size=2 * d)))

        # the attention the model runs, on a layout with twins: with
        # every sign +1, an all-ones column of h comes out as each row's
        # sum of weights, and one-hot columns as the weights themselves
        # (the scores read neither: their attention entries are zero)
        frames = int(rng.integers(2, 4))
        m = frames * n
        layout = rng.random((frames, n, n + 2)) < 0.5
        layout[:, np.arange(n), np.arange(n)] = True
        layout[0, :, n] = layout[-1, :, n + 1] = False
        h = rng.normal(size=(m, d)) @ params.weight.data
        zeros = np.zeros(1 + m)
        a = params.attention.data
        out = ad.frame_attention(
            ad.constant(np.hstack([h, np.ones((m, 1)), np.eye(m)])),
            ad.constant(np.concatenate([a[:d], zeros, a[d:], zeros])),
            layout.astype(float), dense_columns(n)).data
        worst_row = max(worst_row, np.abs(out[:, d] - 1.0).max())
        assert np.all(out[:, d + 1:][~graphs.dense_from_layout(layout)] == 0.0)

        x = rng.normal(size=(n, d))
        support = rng.random((n, n)) < 0.5
        support[np.arange(n), np.arange(n)] = True
        sign = np.where(support,
                        np.where(rng.random((n, n)) < 0.3, -1.0, 1.0), 0.0)
        no_twins = np.zeros((1, 0, n))
        adj = gat.SignedAdjacency(graphs.to_layout(sign, no_twins), dense_columns(n))
        perm = rng.permutation(n)
        base = gat.gat_forward(ad.constant(x), adj, params).data
        permuted = gat.gat_forward(
            ad.constant(x[perm]),
            gat.SignedAdjacency(graphs.to_layout(sign[np.ix_(perm, perm)], no_twins),
                                dense_columns(n)),
            params).data
        denom = max(np.abs(base).max(), 1.0)
        worst_perm = max(worst_perm, np.abs(permuted - base[perm]).max() / denom)
    ok = worst_row <= 1e-12 and worst_perm <= 1e-12
    report("A7", ok,
           f"attention row-sum deviation {worst_row:.1e} (<= 1e-12); "
           f"index-permutation equivariance deviation {worst_perm:.1e} "
           f"over 20 random graphs")


def test_a8_train_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    cli_main(["synth", "--out", str(corpus), "--families",
              "real,upsample_artifact", "--count", "4", "--seed", "100",
              "--frames", "4"])
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = cli_main(["train", "--manifest", str(corpus / "manifest.csv"),
                         "--out", str(out), "--epochs", "3", "--batch-size", "4",
                         "--seed", "7"])
        assert code == 0
        code = cli_main(["eval", "--checkpoint", str(out / "checkpoint.sstg"),
                         "--protocol", "in_domain", "--out", str(out / "eval"),
                         "--families", "upsample_artifact", "--count", "4",
                         "--seed", "300", "--frames", "4"])
        assert code == 0
        outs.append(out)
    ckpt_same = (outs[0] / "checkpoint.sstg").read_bytes() == \
        (outs[1] / "checkpoint.sstg").read_bytes()
    report_same = (outs[0] / "eval" / "report.csv").read_bytes() == \
        (outs[1] / "eval" / "report.csv").read_bytes()
    report("A8", ckpt_same and report_same,
           f"checkpoint bytes identical: {ckpt_same}; "
           f"metric report bytes identical: {report_same}")


def test_a9_parameter_budget():
    desk = model.init_params(model.TrainConfig()).count()
    parity = model.init_params(model.TrainConfig(dim=256)).count()
    ok = desk < 100_000 and parity < 2_050_000
    report("A9", ok,
           f"desk config {desk:,} params (< 100,000); "
           f"parity config d = 256 {parity:,} (< 2,050,000)")
