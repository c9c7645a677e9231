"""Checkpoint files: atomic saves and typed errors for damaged archives."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.stream import OnlineFrameworkSession, make_session
from repro.stream import checkpoint


def _saved_session(path, seed=5):
    session = make_session(
        "ptj", epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(seed)
    )
    rng = np.random.default_rng(seed + 1)
    session.ingest_batch(rng.integers(0, 3, 500), rng.integers(0, 8, 500))
    session.save(path)
    return session, path


@pytest.mark.parametrize(
    "keep",
    [lambda n: 0, lambda n: 10, lambda n: n // 2, lambda n: n - 5],
    ids=["empty", "10-bytes", "half", "all-but-5"],
)
def test_truncated_archive_is_a_configuration_error(tmp_path, keep):
    _session, path = _saved_session(tmp_path / "state.npz")
    data = path.read_bytes()
    path.write_bytes(data[: keep(len(data))])
    with pytest.raises(ConfigurationError, match=str(path)):
        checkpoint.load_state(path)


def test_archive_without_metadata_is_rejected(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, counts=np.zeros(3))
    with pytest.raises(ConfigurationError, match="not a repro streaming checkpoint"):
        checkpoint.load_state(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    session, path = _saved_session(tmp_path / "state.npz")

    def savez_then_crash(handle, **payload):
        handle.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.np, "savez", savez_then_crash)
    with pytest.raises(OSError, match="disk full"):
        session.save(path)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    restored = OnlineFrameworkSession.load(path)
    np.testing.assert_array_equal(restored.estimate(), session.estimate())


def test_save_replaces_existing_checkpoint(tmp_path):
    _first, path = _saved_session(tmp_path / "state.npz", seed=5)
    second, _path = _saved_session(path, seed=9)
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    restored = OnlineFrameworkSession.load(path)
    np.testing.assert_array_equal(restored.estimate(), second.estimate())
