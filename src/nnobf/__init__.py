"""nnobf: obfuscate serialized neural-network models, run them bit-exactly,
and measure how much an attacker can still learn from the public file."""

from .bundle import BundleRecord, KernelBundle, load_bundle, serialize_bundle
from .errors import (
    BadMagic,
    CycleDetected,
    EmptyGraph,
    EmptyZoo,
    IndexOutOfRange,
    InvariantViolation,
    MalformedOptions,
    MalformedPlan,
    MissingBundle,
    NnobfError,
    PlanMismatch,
    ShapeMismatch,
    TruncatedSection,
    UnknownCustomName,
    UnknownFixture,
    UnknownOperator,
    UnsupportedDtype,
)
from .fixtures import FIXTURE_NAMES, FIXTURE_STATS, build_fixture
from .interpreter import ExecutionTrace, run
from .kernels import execute_builtin
from .model_format import (
    Activation,
    BuiltinOp,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    Padding,
    Tensor,
    dump_json,
    parse_model,
    serialize_model,
    validate,
)
from .obfuscator import (
    ALL_STRATEGIES,
    NameGenerator,
    ObfuscationConfig,
    ObfuscationPlan,
    ShapeStrategy,
    Strategy,
    obfuscate,
    plan_from_json,
    plan_to_json,
    reconstruct,
)
from .similarity import (
    LabeledGraph,
    propagation_kernel,
    to_labeled_graph,
)
from .extractor import (
    ConversionStatus,
    ExtractionReport,
    build_default_zoo,
    convert,
    find_surrogate,
    parse_in_buffer,
    recover_weights,
    surrogate_rank,
)
from .bench import BenchRecord, bench, compare_graphs, compare_outputs

__version__ = "0.1.0"
