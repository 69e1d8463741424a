"""The traced benchmark run wraps jetinv functions by name; every name it
wraps must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()  # resolves every binding site; a missing name raises
    bound = {(owner, name) for owner, name, _, _ in tracer._swaps}
    for mod, path, *_ in spans.PATCHES:
        owner = sys.modules["jetinv." + mod]
        *cls, name = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert (owner, name) in bound, f"jetinv.{mod}.{path} is not wrapped"
    assert (sys.modules["jetinv.symbasis"], "sym_basis") in bound
