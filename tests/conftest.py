import sys
from pathlib import Path

import pytest

# allow `import naive_kernels` etc. from test modules
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def lenet():
    from nnobf.fixtures import build_fixture
    return build_fixture("lenet", 7)


@pytest.fixture
def empty_graph():
    from nnobf.model_format import ModelGraph
    return ModelGraph(opcodes=(), buffers=(b"",), tensors=(), operators=(),
                      graph_inputs=(), graph_outputs=())


@pytest.fixture
def all_fixtures():
    from nnobf.fixtures import FIXTURE_NAMES, build_fixture
    return {name: build_fixture(name, 7) for name in FIXTURE_NAMES}
