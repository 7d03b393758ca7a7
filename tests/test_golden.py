import pytest

import golden


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_outputs_match_golden_digests(tmp_path, threads):
    """Every command's exit code, stdout, stderr and written files hash to the recorded digest.

    The digests were written at one OpenBLAS thread; at two threads they must hold unchanged, so no output
    depends on the thread count. They rest on numpy's generator streams and float formatting and on
    OpenBLAS's kernels, so a mismatch names the environment they were written under beside this one.
    """
    recorded = golden.load()
    got = golden.digests(tmp_path, threads)
    changed = sorted(name for name in recorded["digests"].keys() | got.keys()
                     if recorded["digests"].get(name) != got.get(name))
    assert not changed, (f"outputs differ from tests/golden_outputs.json at {threads} OpenBLAS thread(s) for "
                         f"{changed}; the digests were written under {recorded['environment']}, this run has "
                         f"{golden.environment()} (run `python tools/golden.py --write` to rewrite them)")
