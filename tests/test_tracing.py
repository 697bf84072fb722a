"""The benchmark's tracer patches program names by `owner.__dict__[attr]`,
so renaming or deleting one of them breaks every traced benchmark run. This
test installs and removes the tracer, so such a change fails here first."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Tracer, install, uninstall  # noqa: E402


def test_tracer_install_then_uninstall_restores_every_original():
    saved = install(Tracer())
    try:
        wrapped = {(owner, attr): owner.__dict__[attr]
                   for owner, attr, _ in saved}
    finally:
        uninstall(saved)
    assert saved
    for owner, attr, original in saved:
        assert wrapped[(owner, attr)] is not original, attr
        assert owner.__dict__[attr] is original, attr
