import pytest

from designest.designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    CustomDesign,
    StratifiedDesign,
)
from designest.network import (
    InterferenceGraph,
    derive_exposure_design,
    standard_binary_exposure_rules,
)


def _custom_sampler(rng):
    arms = rng.integers(0, 3, size=8)
    arms[0] = 0
    return arms


def _ring_graph(n):
    return InterferenceGraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 4), (3, 6)])


DESIGN_KINDS = {
    "bernoulli": lambda: BernoulliDesign(8, [0.2, 0.5, 0.3]),
    "completely_randomized": lambda: CompletelyRandomizedDesign(8, [2, 3, 3]),
    "stratified": lambda: StratifiedDesign(8, [[0, 3, 5], [1, 2, 4, 6, 7]], [[1, 2], [3, 2]]),
    "clustered": lambda: ClusteredDesign(
        8, [0, 0, 1, 1, 2, 3, 3, 3], CompletelyRandomizedDesign(4, [2, 2])
    ),
    "exposure_bernoulli": lambda: derive_exposure_design(
        BernoulliDesign(8, [0.6, 0.4]), _ring_graph(8), standard_binary_exposure_rules()
    ),
    "exposure_crd_undirected": lambda: derive_exposure_design(
        CompletelyRandomizedDesign(8, [4, 4]),
        _ring_graph(8),
        standard_binary_exposure_rules(),
        undirected=True,
    ),
    "custom": lambda: CustomDesign(8, 3, _custom_sampler),
}


@pytest.fixture(params=sorted(DESIGN_KINDS))
def design_of_each_kind(request):
    """One small design of every kind, including exposure designs over an
    independent and a completely randomized base and a custom sampler."""
    return DESIGN_KINDS[request.param]()
