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


def test_traced_dare_ties_compose_gives_untraced_bytes():
    from loramem import multimem
    from loramem.adapterio import Adapter, LowRankPair
    from loramem.matcore import Matrix, Rng
    from loramem.merge import MergeMethod, MergeSpec

    rng = Rng(17)
    adapters = [Adapter(name=f"m{i}", targets={multimem.TARGET_ID: LowRankPair(
        a=Matrix(rng.gaussian(4 * 64).reshape(4, 64)),
        b=Matrix(rng.gaussian(20 * 4).reshape(20, 4)), alpha=4.0, rank=4)})
        for i in range(3)]
    spec = MergeSpec(method=MergeMethod.DARE_TIES, density=0.5,
                     drop_rate=0.3, seed=2)
    untraced = multimem.compose(adapters, spec).tobytes()
    saved = install(Tracer())
    try:
        traced = multimem.compose(adapters, spec).tobytes()
    finally:
        uninstall(saved)
    assert traced == untraced
