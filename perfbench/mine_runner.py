"""The mining process under test: the paper's Fig. 7 sweep, in one process.

Usage: ``python3 perfbench/mine_runner.py CONFIG_JSON``.  Imports the
program and generates the datasets (set-up), prints ``READY``, then runs
the sweep as many times as the config asks and prints one JSON line with
timings, mined lists and the process's peak RSS.  With ``"setup_only"``
it exits after ``READY``; with ``"trace"`` it runs one sweep with the
mining entry points wrapped (see ``layers.install_mine``) between two
untraced reference sweeps, and writes the span table.

One sweep, over Anime-like and JD-like at the configured scale and every
configured ε: the five Fig. 7 methods through ``MultiClassTopK.mine``,
``estimate_frequencies`` for HEC, PTJ, PTS and PTS-CP, and one
``OnlineTopKSession.run``.  Every call is seeded from the run seed and
its position in the sweep, so repeated sweeps redo identical work.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Fig. 7's method set: (framework, optimized) -> span / result name.
METHODS = {
    ("hec", False): "hec",
    ("ptj", False): "ptj",
    ("ptj", True): "ptj_opt",
    ("pts", False): "pts",
    ("pts", True): "pts_opt",
}
ESTIMATORS = ("hec", "ptj", "pts", "pts-cp")


def _lists(per_class: dict) -> dict:
    return {str(label): [int(i) for i in items] for label, items in per_class.items()}


def generate(config: dict):
    import numpy as np

    from repro.datasets import anime_like, jd_like

    seed = config["seed"]
    datasets = {
        "anime": anime_like(scale=config["scale"], rng=np.random.default_rng([seed, 0])),
        "jd": jd_like(scale=config["scale"], rng=np.random.default_rng([seed, 1])),
    }
    for dataset in datasets.values():
        dataset.pair_counts()  # cached on the dataset; part of generation
    return datasets


def sweep(config: dict, datasets: dict, recorder=None) -> dict:
    """One full sweep; returns per-call timings and every output."""
    import contextlib

    import numpy as np

    from repro.core.frameworks import make_framework
    from repro.core.topk import MultiClassTopK
    from repro.stream import OnlineTopKSession

    def span(name):
        return recorder.span(name) if recorder is not None else contextlib.nullcontext()

    k, seed = config["k"], config["seed"]
    calls, mined, estimates = [], [], []
    start = time.perf_counter()
    for d_index, (name, dataset) in enumerate(datasets.items()):
        c, d, n = dataset.n_classes, dataset.n_items, dataset.n_users
        for e_index, eps in enumerate(config["epsilons"]):
            for m_index, ((framework, optimized), method) in enumerate(METHODS.items()):
                rng = np.random.default_rng([seed, 2, d_index, e_index, m_index])
                t0 = time.perf_counter()
                with span(f"mine.{method}"):
                    scheme = MultiClassTopK.for_framework(
                        framework, k=k, epsilon=eps, n_classes=c, n_items=d,
                        optimized=optimized, rng=rng,
                    )
                    result = scheme.mine(dataset)
                calls.append((time.perf_counter() - t0, n))
                mined.append((name, eps, method, _lists(result)))
            for f_index, framework in enumerate(ESTIMATORS):
                rng = np.random.default_rng([seed, 3, d_index, e_index, f_index])
                t0 = time.perf_counter()
                estimate = make_framework(
                    framework, epsilon=eps, n_classes=c, n_items=d
                ).estimate_frequencies(dataset, rng=rng)
                calls.append((time.perf_counter() - t0, n))
                truth = dataset.pair_counts()
                rmse = float(np.sqrt(np.mean((estimate - truth) ** 2)))
                estimates.append((name, eps, framework, rmse))
            rng = np.random.default_rng([seed, 4, d_index, e_index])
            t0 = time.perf_counter()
            online = OnlineTopKSession(
                k=k, epsilon=eps, n_classes=c, n_items=d, rng=rng
            )
            result = online.run(dataset.labels, dataset.items)
            calls.append((time.perf_counter() - t0, n))
            mined.append((name, eps, "online", _lists(result)))
    return {
        "sweep_s": time.perf_counter() - start,
        "calls": calls,
        "mined": mined,
        "estimates": estimates,
    }


def main(argv) -> int:
    config = json.loads(argv[0])
    import repro.core.topk  # noqa: F401 - set-up: the imports, then the data
    import repro.stream  # noqa: F401

    started = time.perf_counter()
    datasets = generate(config)
    with_setup = {"generate_s": time.perf_counter() - started}
    print("READY", flush=True)
    if config.get("setup_only"):
        return 0
    from common import proc_hwm_mb

    out = {"sweeps": [], **with_setup}
    out["truth"] = {
        name: _lists(dataset.true_topk(config["k"]))
        for name, dataset in datasets.items()
    }
    if config.get("trace"):
        from layers import install_mine
        from tracing import Recorder

        # Untraced sweeps bracket the traced one, so the first sweep's
        # warm-up and host-speed drift both cancel out of the overhead.
        out["sweeps"].append(sweep(config, datasets))
        recorder = Recorder()
        install_mine(recorder)
        window = [time.perf_counter_ns()]
        out["traced"] = sweep(config, datasets, recorder)
        window.append(time.perf_counter_ns())
        recorder.unwrap_all()
        recorder.save(config["spans"])
        out["window_ns"] = window
        out["sweeps"].append(sweep(config, datasets))
    else:
        deadline = time.perf_counter() + config["seconds"]
        while True:
            out["sweeps"].append(sweep(config, datasets))
            last = out["sweeps"][-1]["sweep_s"]
            if time.perf_counter() + last > deadline:
                break
    out["hwm_mb"] = proc_hwm_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
