"""The three workloads, each driven through the program's public API or CLI.

Every workload is a closed loop with one client: `prepare(i)` builds
iteration i's inputs (untimed), `run(inputs)` is the timed call, and
`check(inputs, result)` compares the outputs with the oracles (untimed).
Iteration i always uses a frame or step drawn from (seed, i), so no two
iterations see the same input.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import frames
import oracle

N_SAMPLE = 16384  # the CLI default --n-sample
WARMUP_SAMPLE = 2048  # size of the warm-up call made during set-up
SETUP_FRAME = 1 << 20  # frame index used by set-up, never an iteration index
K = 3  # the CLI default --k
D_OUT = 8  # the CLI default --dout
PROBES = 48  # sampled points whose kNN row and fused row are checked per frame
TRAIN_C_LIDAR = 128  # backbone point channels
TRAIN_D_OUT = 64
TRAIN_FD_ROWS = 2  # rows whose input gradients are checked by central differences


def _cli(argv: list[str]) -> int:
    """cli.main as a user calls it; its stdout report is not part of the measurement."""
    from pacfusion import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def frame_counts(sample: oracle.Sample, fg: np.ndarray) -> dict[str, float]:
    """The generator's point counts, so a change to the frames shows as a count."""
    c = sample.counts
    return {"frame.points_raw": c["raw"], "frame.points_roi": c["roi"],
            "frame.points_frustum": c["frustum"], "frame.points_foreground": int(fg.sum())}


@dataclass
class FrameInputs:
    index: int
    frame: frames.Frame
    paths: dict[str, Path]


class _CliWorkload:
    """Shared set-up for the workloads that call the CLI on written frame files."""

    def __init__(self, seed: int, workdir: Path, n_sample: int = N_SAMPLE):
        self.seed = seed
        self.workdir = workdir
        self.n_sample = n_sample
        self.last_sample: oracle.Sample | None = None

    def prepare(self, i: int) -> FrameInputs:
        frame = frames.make_frame([self.seed, i])
        return FrameInputs(index=i, frame=frame, paths=frames.write_frame(frame, self.workdir))

    def setup(self) -> None:
        self.run(self.prepare(SETUP_FRAME), WARMUP_SAMPLE)

    def setup_failures(self) -> list[str]:
        return []

    def _out(self, name: str) -> str:
        return str(self.workdir / name)

    def _fuse_argv(self, inp: FrameInputs, mode: str, n_sample: int) -> list[str]:
        p = inp.paths
        return ["fuse", str(p["velodyne"]), str(p["calib"]), str(p["featuremap"]),
                "--out", self._out("fused.pacf"), "--mode", mode,
                "--seed", str(inp.index), "--n-sample", str(n_sample)]

    def _sample(self, inp: FrameInputs) -> oracle.Sample:
        self.last_sample = oracle.sample_frame(inp.frame, inp.index, self.n_sample)
        return self.last_sample



class FuseV1(_CliWorkload):
    """`pacfusion fuse --mode v1`: retrieval, per-point kNN and the PACF operator."""

    def run(self, inp: FrameInputs, n_sample: int | None = None) -> list[int]:
        return [_cli(self._fuse_argv(inp, "v1", n_sample or self.n_sample))]

    def check(self, inp: FrameInputs, codes: list[int]):
        from pacfusion import kdtree

        sample = self._sample(inp)
        counts = frame_counts(sample, oracle.foreground(sample.xyz, inp.frame.boxes))
        if codes != [0]:
            return [f"exit codes {codes}"], counts
        probe = self.probe(inp.index)
        tree = kdtree.KdTree(sample.xyz)
        knn = np.array([tree.query(sample.xyz[t], K).indices for t in probe])
        raw = Path(self._out("fused.pacf")).read_bytes()
        return oracle.check_fuse_v1(raw, sample, inp.frame.fmap, inp.index, K, D_OUT, probe, knn), counts

    def probe(self, index: int) -> np.ndarray:
        """Sampled points whose kNN row and fused row are checked for iteration `index`."""
        return np.random.default_rng([self.seed, index, 1]).choice(self.n_sample, PROBES, replace=False)


class V2Maskgen(_CliWorkload):
    """`pacfusion fuse --mode v2`, then `pacfusion maskgen` on the same frame."""

    def run(self, inp: FrameInputs, n_sample: int | None = None) -> list[int]:
        p = inp.paths
        n_sample = n_sample or self.n_sample
        fused = _cli(self._fuse_argv(inp, "v2", n_sample))
        mask = _cli(["maskgen", str(p["velodyne"]), str(p["calib"]), str(p["labels"]),
                     "--height", str(frames.HEIGHT), "--width", str(frames.WIDTH),
                     "--out-mask", self._out("mask.pgm"), "--out-labels", self._out("labels.csv"),
                     "--seed", str(inp.index), "--n-sample", str(n_sample)])
        return [fused, mask]

    def check(self, inp: FrameInputs, codes: list[int]):
        sample = self._sample(inp)
        fg = oracle.foreground(sample.xyz, inp.frame.boxes)
        counts = frame_counts(sample, fg)
        if codes != [0, 0]:
            return [f"exit codes {codes}"], counts
        failures = oracle.check_fuse_v2(Path(self._out("fused.pacf")).read_bytes(), sample, inp.frame.fmap)
        failures += oracle.check_maskgen(
            Path(self._out("mask.pgm")).read_bytes(), Path(self._out("labels.csv")).read_text(),
            sample, fg, inp.frame.boxes,
        )
        return failures, counts


@dataclass
class StepInputs:
    index: int
    features: np.ndarray  # (N, C_lidar) backbone point features
    grad_out: np.ndarray  # (N, 2*D_o + D_i) upstream gradient of the fused features
    predictions: np.ndarray  # (H, W) foreground probabilities of the segmentation head


@dataclass
class StepResult:
    out: np.ndarray
    grad_w: list[np.ndarray]
    grad_b: list[np.ndarray]
    grad_aggr: np.ndarray
    grad_rows: np.ndarray
    loss: float
    grad_pred: np.ndarray


class TrainStep:
    """assemble_neighbors -> pacf_forward -> pacf_backward -> focal_loss at backbone widths.

    Set-up runs the front of the pipeline once through the public API:
    ROI crop, frustum filter, subsample, retrieval, the k-d tree neighbour
    table and the DontCare-aware sparse mask. Each step then draws new
    backbone features, upstream gradients and predictions.
    """

    def __init__(self, seed: int, workdir: Path, n_sample: int = N_SAMPLE):
        self.seed = seed
        self.n_sample = n_sample
        self.last_sample: oracle.Sample | None = None

    def setup(self) -> None:
        from pacfusion import fusion, geometry, kdtree, kitti, losses, types

        frame = frames.make_frame([self.seed, SETUP_FRAME])
        calib = kitti.CalibrationSet(frames.P2, frames.R0_RECT, frames.TR_VELO_TO_CAM)
        fmap = types.FeatureMap(data=frame.fmap)
        size = (frames.HEIGHT, frames.WIDTH)
        cloud, _ = geometry.filter_region(
            types.PointCloud(xyz=frame.xyz, reflectance=frame.reflectance), geometry.RegionOfInterest()
        )
        visible = np.nonzero(geometry.project_points(cloud, calib, size).valid)[0]
        cloud = types.PointCloud(xyz=cloud.xyz[visible], reflectance=cloud.reflectance[visible])
        cloud, _ = geometry.subsample(cloud, self.n_sample, self.seed)
        self.semantic, self.sem_valid = fusion.retrieve_features(
            geometry.project_points(cloud, calib, size), fmap
        )
        tree = kdtree.KdTree(cloud.xyz)
        self.nbr = np.array([tree.query(p, K).indices for p in cloud.xyz])
        boxes = [types.Box3D(x=b.x, y=b.y, z=b.z, h=b.h, w=b.w, l=b.l, ry=b.ry, label=b.label,
                             dontcare=b.label == "DontCare") for b in frame.boxes]
        self.fg = losses.label_points(cloud, boxes, calib)
        self.mask = losses.make_sparse_mask(cloud, self.fg, calib, size,
                                            dontcare_boxes=[b for b in boxes if b.dontcare])
        d_i = fmap.channels + TRAIN_C_LIDAR + 3
        self.params = fusion.init_params(fusion.MlpSpec(widths=(d_i, d_i, TRAIN_D_OUT)), K, seed=self.seed)
        self.params.aggr_weights = np.random.default_rng([self.seed, SETUP_FRAME]).normal(size=K)
        self.frame, self.cloud, self.xyz = frame, cloud, cloud.xyz
        # warm-up: one step on the first rows, neighbour indices folded into them
        m = min(WARMUP_SAMPLE, len(cloud))
        inp = self.prepare(SETUP_FRAME)
        nf = fusion.assemble_neighbors(
            types.PointCloud(xyz=self.xyz[:m], reflectance=cloud.reflectance[:m]),
            self.semantic[:m], self.nbr[:m] % m, self.sem_valid[:m], point_features=inp.features[:m],
        )
        _, cache = fusion.pacf_forward(nf, self.params)
        fusion.pacf_backward(cache, self.params, inp.grad_out[:m])
        losses.focal_loss(inp.predictions, self.mask)

    def setup_failures(self) -> list[str]:
        """Set-up builds the neighbour table and mask every step reads: check them once."""
        from pacfusion import kdtree

        sample = oracle.sample_frame(self.frame, self.seed, self.n_sample)
        self.last_sample = sample
        failures = []
        if not np.array_equal(sample.xyz, self.xyz):
            return ["sampled cloud differs from the reference draw"]
        probe = np.random.default_rng([self.seed, SETUP_FRAME, 1]).choice(self.n_sample, PROBES, replace=False)
        brute = np.array([kdtree.knn_brute(self.xyz, self.xyz[t], K).indices for t in probe])
        if not np.array_equal(brute, self.nbr[probe]):
            failures.append("kNN rows differ from knn_brute")
        r, c = oracle.pixel_index(sample.u, sample.v)
        if not (np.array_equal(self.sem_valid, sample.valid)
                and np.array_equal(self.semantic, self.frame.fmap[r, c])):
            failures.append("retrieved semantics differ from the map")
        fg = oracle.foreground(self.xyz, self.frame.boxes)
        if not np.array_equal(fg, self.fg):
            failures.append("point labels differ from the box reference")
        state = oracle.clear_dontcare(oracle.mask_state(sample, fg), self.frame.boxes)
        if not np.array_equal(state, self.mask.state):
            failures.append("sparse mask differs from the nearest-depth reference")
        self.mask_state = state
        self.counts = frame_counts(sample, fg)
        return failures

    def prepare(self, i: int) -> StepInputs:
        rng = np.random.default_rng([self.seed, i])
        n = len(self.xyz)
        d_i = self.semantic.shape[1] + TRAIN_C_LIDAR + 3
        logits = rng.normal(size=(frames.HEIGHT, frames.WIDTH))
        return StepInputs(
            index=i,
            features=rng.normal(size=(n, TRAIN_C_LIDAR)),
            grad_out=rng.normal(size=(n, 2 * TRAIN_D_OUT + d_i)),
            predictions=1.0 / (1.0 + np.exp(-logits)),
        )

    def run(self, inp: StepInputs) -> StepResult:
        from pacfusion import fusion, losses

        nf = fusion.assemble_neighbors(self.cloud, self.semantic, self.nbr, self.sem_valid,
                                       point_features=inp.features)
        fused, cache = fusion.pacf_forward(nf, self.params)
        grad_w, grad_b, grad_aggr, grad_rows = fusion.pacf_backward(cache, self.params, inp.grad_out)
        loss, grad_pred, _ = losses.focal_loss(inp.predictions, self.mask)
        return StepResult(fused.values, grad_w, grad_b, grad_aggr, grad_rows, loss, grad_pred)

    def check(self, inp: StepInputs, step: StepResult):
        rng = np.random.default_rng([self.seed, inp.index, 2])
        probe = rng.choice(len(self.xyz), PROBES, replace=False)
        fd_rows = rng.choice(len(self.xyz), TRAIN_FD_ROWS, replace=False)
        return oracle.check_train_step(step, inp, self, probe, fd_rows, rng), self.counts


WORKLOADS = {"fuse-v1": FuseV1, "v2-maskgen": V2Maskgen, "train-step": TrainStep}
