"""Operation counting: a tally of arithmetic operations and an integer
operand that adds its own arithmetic to one.

Counting is a property of the operands, not of the algorithm: run the
real code over :class:`Counted` values and the tally records exactly the
operations that code performed. The rules:

* counted + counted is an addition; adding into a plain ``0`` is free,
  so the first sample landing in zeroed registers costs nothing;
* counted * counted is a general multiplication;
* plain int * counted is a constant multiplication (one fixed,
  precomputable operand).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCount:
    """Tally of general multiplications, constant multiplications, additions.

    General multiplications take two arbitrary operands; constant
    multiplications have one fixed, precomputable operand (realizable with
    shifts and adds in hardware). :class:`Counted` operands mutate the
    fields in place.
    """

    general_mults: int = 0
    constant_mults: int = 0
    additions: int = 0

    def __post_init__(self) -> None:
        if min(self.general_mults, self.constant_mults, self.additions) < 0:
            raise ValueError("operation counts cannot be negative")


class Counted:
    """An integer that records the arithmetic done on it in ``ops``.

    Results are new ``Counted`` values sharing the same tally, so every
    operation downstream of a counted input is counted too.
    """

    __slots__ = ("value", "ops")

    def __init__(self, value: int, ops: OpCount) -> None:
        self.value = value
        self.ops = ops

    def __add__(self, other: "Counted | int") -> "Counted":
        if isinstance(other, Counted):
            other = other.value
        elif other == 0:
            return self
        self.ops.additions += 1
        return Counted(self.value + other, self.ops)

    __radd__ = __add__

    def __mul__(self, other: "Counted | int") -> "Counted":
        if isinstance(other, Counted):
            self.ops.general_mults += 1
            return Counted(self.value * other.value, self.ops)
        self.ops.constant_mults += 1
        return Counted(other * self.value, self.ops)

    __rmul__ = __mul__

    def __int__(self) -> int:
        return self.value
