"""Bit-identity gate: sha256 digests of final latents and traces, pinned.

Each case runs the default problem (12 blocks, 64x64 latent, 50 DDIM steps
over T=1000) and hashes

* the final latent's little-endian float32 bytes,
* the canonical JSON (``sort_keys=True``) of ``RunTrace.to_dict()`` without
  ``wall_time_s``,
* for the heavy baseline, the bytes of every stored delta (step by step,
  block by block) and then of every stored model output.

A change that means to keep latents, eval counts and traces identical must
leave every digest here as it is.  A deliberate numerics change re-pins them
and says so.
"""

import hashlib
import json

import numpy as np
import pytest

from sortblock import Polynomial, RatioPolicy, SortblockConfig, inner_window, record_baseline, run_sortblock


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _latent_sha(latent) -> str:
    return _sha(np.ascontiguousarray(latent, dtype="<f4").tobytes())


def _trace_sha(trace) -> str:
    doc = trace.to_dict()
    del doc["wall_time_s"]
    return _sha(json.dumps(doc, sort_keys=True).encode())


# a fixed adaptive ratio curve: beta * (0.1 + 0.5u - 0.3u^2 + 0.2u^3) over [100, 900]
ADAPTIVE = RatioPolicy(poly=Polynomial(3, (0.1, 0.5, -0.3, 0.2)), beta=0.8, t_min=100.0, t_max=900.0)

# case -> (latent sha256, trace sha256)
GOLDEN = {
    "K5-rho0.3-seed0": (
        "c33218eb233e5250f7f8604e1ced7cbefaaa42a5137aba492cb9e257685c0c64",
        "8c752299956a02fb5e23071a1254d293e2628fe17722ed22520a1719e1183a2a",
    ),
    "K5-rho0.3-seed1": (
        "d7f8e303b9995044d8dcf7b6ce308c3339aec45d426d4f9a053faf2a5aaf34f1",
        "54d7e0b129cc0d44626aa18576ce8da848768307e677d65c6d627d086c6ae11f",
    ),
    "K5-rho0.3-seed7": (
        "e727a5bfd4a18b4e59d0d07d629fc41ec8f52cdd5cd877afc0a540fb9c9c3f2a",
        "d12fa9fb0838f1ba38df89b263499560b60717bf27e4dd57965481ef97144a74",
    ),
    "K9-rho0.25-seed0": (
        "c6e152c8615486a69c3452d33b952b32562777804a9e7f358a5ee64fff986f2b",
        "5d7af8973bb209509229631ab8ac31f1f2604097866c404491979ee53786447e",
    ),
    "K9-rho0.25-seed1": (
        "a4b5eda1e5747cef427c1d3ccaf031c8adaf695ff6ebe0c2071119ea5b830304",
        "b3645080e8d363494f8b1dc214be632222fd5dfb63901e5b264e715b5b6c16ca",
    ),
    "K9-rho0.25-seed7": (
        "716209c8e0eb7b89010b56987d9bffb68e38fed0aefbcdc449621b65df58966d",
        "a635d9374096b1531d73097abf47eeea309399151540836392752c2c952214a1",
    ),
    "K3-rho0.7-seed0": (
        "014030295a4367479bf99a859e8e674db5c9cac0fe032f6ecaaaf012c827c8bc",
        "3cbd0c91b6d6972c93da6d6bbd26d99f30de6728cf68ff135d21d8c4dbaf3231",
    ),
    "K3-rho0.7-seed1": (
        "e09f00c4f04d6ad62f9befd7844fc9f22d56795bb407d6d2ef36da79798f27fa",
        "747fc9cb670c5dd4766d2b051582eaaa0392bac17802284506dadafabee0c968",
    ),
    "K3-rho0.7-seed7": (
        "39cc5a6c7ce59becf1b494290b659a1cf02f3bf85e337d481977f623ae35526a",
        "0b100b8cfe856081d69b25dcec137d39c82738c9796b3a11738ba97d63060191",
    ),
    "copy-seed0": (
        "7c260c18c7b0e158b216c72265e8937c740e26a904104fea93a1f75c0c4e9e06",
        "1bc7d8747aa28c364e992e0db99169018193d8d75e0affaa51f04cbe3511f72a",
    ),
    "replay-seed0-flags-on-seed7": (
        "e727a5bfd4a18b4e59d0d07d629fc41ec8f52cdd5cd877afc0a540fb9c9c3f2a",
        "ae7743ee41b57b62a809c7982187b1fa586c3d8f1f94d2e97e8a09f1c9fc0656",
    ),
    "adaptive-seed1": (
        "d7f8e303b9995044d8dcf7b6ce308c3339aec45d426d4f9a053faf2a5aaf34f1",
        "f48d20058e17a8182d1809b0e3950891af89aad30574524ee525512c8cee71eb",
    ),
    "window-from-step0-seed1": (
        "300f9d737dcc36b752d68d6747178727a259e8714d8938f6f2a8807b0f6854c3",
        "21220a7d2b5289966fc3714020eaeba454ee21826c2a3224875e4869df7489db",
    ),
}
HEAVY_BASELINE_SEED0 = (
    "1a87772520260402c7f530e2cf0619d6beb51641036b076e28c78f9bc14fde15",
    "3ff044b68fb6191ae15eb30f10dc4676c1e7cce4915c791d2c329a8e6aa70db4",
    "e8fe2f8cdac6daa9c01c80ff237c61b22c0e8d68819ec61cf195c014d92ff08e",
)  # latent, trace, deltas then outputs


def _cached_run(case, net, sched, run_factory):
    inner = inner_window(run_factory(0).step_list, 0.8)
    if case.startswith("K"):
        k, rho, seed = case.split("-")
        cfg = SortblockConfig(refresh_interval=int(k[1:]), rho=float(rho[3:]), window=inner)
        return run_sortblock(net, run_factory(int(seed[4:])), sched, cfg)
    if case == "copy-seed0":
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=inner, predict_mode="copy")
        return run_sortblock(net, run_factory(0), sched, cfg)
    if case == "replay-seed0-flags-on-seed7":
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=inner)
        _, recorded = run_sortblock(net, run_factory(0), sched, cfg)
        return run_sortblock(net, run_factory(7), sched, cfg, policy_override=recorded.ranked_flag_schedule())
    if case == "adaptive-seed1":
        cfg = SortblockConfig(refresh_interval=5, ratio_mode="adaptive", ratio_policy=ADAPTIVE, window=inner)
        return run_sortblock(net, run_factory(1), sched, cfg)
    if case == "window-from-step0-seed1":
        # the window holds the first step: the first interval predicts from a
        # single computation and serves copies
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=(999, 300))
        return run_sortblock(net, run_factory(1), sched, cfg)
    raise KeyError(case)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cached_run_digests(case, default_net, default_sched, default_run_factory):
    latent, trace = _cached_run(case, default_net, default_sched, default_run_factory)
    assert (_latent_sha(latent), _trace_sha(trace)) == GOLDEN[case]


def test_window_from_step0_serves_degenerate_copies(default_net, default_sched, default_run_factory):
    _, trace = _cached_run("window-from-step0-seed1", default_net, default_sched, default_run_factory)
    assert trace.steps[0].phase == "full" and trace.steps[1].phase == "ranked"
    assert trace.steps[1].degenerate_predictions == default_net.num_blocks


def test_heavy_baseline_digests(default_net, default_sched, default_run_factory):
    trace = record_baseline(default_net, default_run_factory(0), default_sched, heavy=True)
    tensors = hashlib.sha256()
    for per_block in trace.deltas:
        for delta in per_block:
            tensors.update(np.ascontiguousarray(delta, dtype="<f4").tobytes())
    for output in trace.outputs:
        tensors.update(np.ascontiguousarray(output, dtype="<f4").tobytes())
    got = (_latent_sha(trace.final_latent), _trace_sha(trace), tensors.hexdigest())
    assert got == HEAVY_BASELINE_SEED0
