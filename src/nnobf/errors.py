"""Exception types shared across the toolchain."""


class NnobfError(Exception):
    """Base class for all errors raised by this package."""


# -- model file / bundle file parsing ----------------------------------------

class BadMagic(NnobfError):
    """The byte stream does not start with the expected magic."""


class TruncatedSection(NnobfError):
    """A declared section length exceeds the remaining bytes."""


class IndexOutOfRange(NnobfError):
    """A table index points outside its table."""


class CycleDetected(NnobfError):
    """The operator data-flow graph contains a cycle."""


class InvariantViolation(NnobfError):
    """A graph violates a structural invariant; message carries the field path."""


class MalformedOptions(NnobfError):
    """An operator's option bytes are truncated, overlong or hold a bad enum."""


class UnknownFixture(NnobfError):
    """Requested fixture name is not one of the built-in model builders."""


# -- execution ----------------------------------------------------------------

class ShapeMismatch(NnobfError):
    """Runtime tensor shapes are incompatible with the kernel contract."""


class UnsupportedDtype(NnobfError):
    """A kernel received a dtype it does not implement."""


class MissingBundle(NnobfError):
    """A custom operator was encountered but no kernel bundle was supplied."""


class UnknownCustomName(NnobfError):
    """A custom operator name has no record in the supplied bundle."""


# -- obfuscation --------------------------------------------------------------

class PlanMismatch(NnobfError):
    """An obfuscation plan does not cover the graph it was applied to."""


class MalformedPlan(NnobfError):
    """A plan file is not a well-formed version-3 nnobf plan."""


# -- analysis -----------------------------------------------------------------

class UnknownOperator(NnobfError):
    """Model conversion hit a custom operator it cannot map."""

    def __init__(self, custom_name: str):
        super().__init__(f"cannot convert custom operator {custom_name!r}")
        self.custom_name = custom_name


class EmptyGraph(NnobfError):
    """Graph similarity is undefined for empty graphs."""


class EmptyZoo(NnobfError):
    """Surrogate search needs at least one zoo model."""
