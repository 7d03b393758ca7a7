"""Golden output digests: every CLI command on two fixed frames, hashed.

A digest is the sha256 of one command's exit code, stdout, stderr and the
files it writes, run in a subprocess at a given OpenBLAS thread count.
tests/golden_outputs.json holds the digests, written at one thread, with
the numpy version and OpenBLAS configuration they were written under.
tests/test_golden.py compares them at one and at two threads, so the one
file also pins that no output depends on the thread count; `python
tools/golden.py --write` writes the file again.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

from pacfusion import fusion

from conftest import run_cli, write_synthetic_frame

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

# the first Car box of the synthetic frame, as a DontCare line wholly in front of the camera
DONTCARE_FRONT = "DontCare -1 -1 -10 0 0 10 10 1.6 1.7 3.9 -3.0 1.0 15.0 0.3\n"
# camera frame x in [2, 4] m, y in [-1, 1] m and z in [-3, 7] m: the box reaches behind the camera
DONTCARE_BEHIND = "DontCare -1 -1 -10 0 0 10 10 2 10 2 3 1 2 0\n"


def _write_frames(workdir: Path) -> None:
    """small: the synthetic_frame fixture's 1,400 points and a 4-16-8 operator checkpoint for K=4;
    large: 2,600 points, past kdtree's and fusion's blocks."""
    for name, n_background in (("small", 1000), ("large", 2200)):
        (workdir / name).mkdir()
        frame = write_synthetic_frame(workdir / name, n_background=n_background)
        labels = frame["labels_path"].read_text()
        (workdir / name / "labels_front.txt").write_text(labels + DONTCARE_FRONT)
        (workdir / name / "labels_behind.txt").write_text(labels + DONTCARE_BEHIND)
    fusion.save_params(fusion.init_params(fusion.MlpSpec((4, 16, 8)), 4, seed=5), workdir / "small" / "operator.pacw")


def _commands() -> dict[str, tuple[list[str], list[str]]]:
    """name -> (argv relative to the work directory, the files the command writes)."""

    def knn(frame, *flags):
        return ["knn", f"{frame}/frame.bin", *flags], []

    def fuse(frame, mode, *flags):
        out = f"{frame}/fused_{mode}.pacf"
        return ["fuse", f"{frame}/frame.bin", f"{frame}/calib.txt", f"{frame}/semantic.pacf", "--out", out,
                "--mode", mode, *flags], [out]

    def maskgen(frame, labels, *flags):
        mask, csv = f"{frame}/{labels}.pgm", f"{frame}/{labels}.csv"
        return ["maskgen", f"{frame}/frame.bin", f"{frame}/calib.txt", f"{frame}/{labels}.txt", "--height", "64",
                "--width", "192", "--out-mask", mask, "--out-labels", csv, *flags], [mask, csv]

    return {
        "project small": (["project", "small/frame.bin", "small/calib.txt", "--height", "64", "--width", "192"], []),
        "knn small": knn("small"),
        "knn --verify small": knn("small", "--k", "4", "--verify"),
        "knn large": knn("large", "--k", "5", "--dist", "1.5"),
        "knn --verify large": knn("large", "--k", "5", "--dist", "1.5", "--verify"),
        "fuse v1 small": fuse("small", "v1", "--seed", "4"),
        "fuse v2 small": fuse("small", "v2", "--seed", "4"),
        "fuse v1 --params small": fuse("small", "v1", "--params", "small/operator.pacw", "--seed", "4"),
        "fuse v1 large": fuse("large", "v1", "--k", "5", "--dist", "8", "--seed", "2"),
        "fuse v2 large": fuse("large", "v2", "--n-sample", "2000", "--seed", "2"),
        "maskgen small": maskgen("small", "labels", "--n-sample", "900", "--seed", "3"),
        "maskgen small, DontCare in front": maskgen("small", "labels_front", "--n-sample", "900", "--seed", "3"),
        "maskgen small, DontCare reaching behind the camera": maskgen("small", "labels_behind", "--n-sample", "900",
                                                                      "--seed", "3"),
        "maskgen large": maskgen("large", "labels"),
        "bev-render small": (["bev-render", "small/frame.bin", "small/calib.txt", "small/semantic.pacf", "--out",
                              "small/bev.ppm"], ["small/bev.ppm"]),
        "gradcheck --instances 2": (["gradcheck", "--instances", "2"], []),
    }


def digests(workdir: Path, threads: str = "1") -> dict[str, str]:
    """name -> sha256 of each command's exit code, stdout, stderr and written files, the frames written in workdir.

    Each command runs at `threads` OpenBLAS threads.
    """
    _write_frames(workdir)
    result = {}
    for name, (argv, outputs) in _commands().items():
        code, stdout, stderr = run_cli(argv, workdir, threads)
        digest = hashlib.sha256()
        for part in (str(code).encode(), stdout, stderr, *((workdir / path).read_bytes() for path in outputs)):
            digest.update(len(part).to_bytes(8, "little") + part)  # length-prefixed: no two splits hash alike
        result[name] = digest.hexdigest()
    return result


def environment() -> dict[str, str]:
    """numpy's version, its BLAS build and the OpenBLAS kernel set chosen for this CPU, which the digests rest on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('openblas configuration', '')}".strip(),
            "openblas core": core}


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def write(workdir: Path) -> None:
    GOLDEN_PATH.write_text(json.dumps({"environment": environment(), "digests": digests(workdir)}, indent=2) + "\n")
