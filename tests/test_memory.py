"""Peak memory of the subcommands that run the network over a set of rows.

Each subcommand runs through `cli.main` under tracemalloc, on one worker
thread so that the peak holds one block, with a network of hidden width
512 and one of 4096 over the same rows. The weights are subtracted; the
inputs and the output are the same at both widths. What is left must not
grow with the width beyond what the 128-row floor of a block costs: at
4096 entries the floor gives 128 x 4096 floats, 3 MiB more than the
ENCODE_BLOCK_ENTRIES budget that a 512-wide layer's blocks hold.
"""

import tracemalloc

import pytest

from hadahash import cli, retrieval
from hadahash.data import (make_synthetic_blobs, save_features, save_split,
                           split_protocol)
from hadahash.model import (ENCODE_BLOCK_ENTRIES, ENCODE_BLOCK_MIN_ROWS,
                            NetworkSpec, build_network, save_network)

NARROW, WIDE = 512, 4096
# Allocations beside the blocks that differ between two runs: interpreter
# and numpy bookkeeping.
SLACK = 256 * 1024

COMMANDS = {
    "encode": ["encode", "--out", "{out}/codes.hcbc"],
    "analyze": ["analyze", "--outdir", "{out}/reports"],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Features of 6,000 rows, a split whose database holds most of them,
    and one model file per hidden width."""
    root = tmp_path_factory.mktemp("memory")
    features, labels = make_synthetic_blobs(4, 1500, 16, 0.5, seed=1)
    split = split_protocol(labels, 10, 20, seed=1)
    files = {"features": root / "f.hcfs", "split": root / "s.txt"}
    save_features(features, files["features"])
    save_split(split, files["split"])
    for width in (NARROW, WIDE):
        net = build_network(NetworkSpec(16, (width,), 16, 4), seed=2)
        files[width] = root / f"m{width}.hcmd"
        save_network(net, files[width])
        files[width, "weights"] = sum(p.nbytes for p in net.param_arrays())
    return files


def _peak_beyond_weights(paths, command, width, out):
    argv = [token.format(out=out) for token in COMMANDS[command]]
    argv += ["--model", str(paths[width]),
             "--features", str(paths["features"]),
             "--split", str(paths["split"])]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - paths[width, "weights"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_peak_does_not_grow_with_the_width(paths, tmp_path, monkeypatch,
                                           command):
    monkeypatch.setattr(retrieval, "_worker_count", lambda: 1)
    # A first run makes the one-time allocations of the command.
    _peak_beyond_weights(paths, command, NARROW, tmp_path)
    narrow, wide = (_peak_beyond_weights(paths, command, width, tmp_path)
                    for width in (NARROW, WIDE))
    floor_cost = 8 * (ENCODE_BLOCK_MIN_ROWS * WIDE - ENCODE_BLOCK_ENTRIES)
    assert wide - narrow <= floor_cost + SLACK, (narrow, wide)
