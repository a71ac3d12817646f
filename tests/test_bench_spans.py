"""The benchmark's patch sites: `perfbench/spans.py` times each layer by
patching functions in src/ under the names their callers use, so a rename
there must fail here, not only in a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patch_site_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # an AttributeError here names a patch site that is gone
        patched = [(owner, attr, original, getattr(owner, attr))
                   for owner, attr, original in tracer._patches]
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original, wrapper in patched:
        assert wrapper is not original and wrapper.__wrapped__ is original, (owner, attr)
        assert getattr(owner, attr) is original, (owner, attr)
