"""Exceptions shared across the package, and the work guard of the integer
commands."""

# Work is counted in word steps: a big-integer operation costs OP_STEPS plus
# one per 64-bit word of its operands, and printing a number of w words about
# 2 w^2 (decimal conversion is quadratic). A step takes about 4 ns on a 2-vCPU
# x86-64 guest, so the budget is about 8 s; memory counts the numbers held at
# once at 40 bytes plus 8 per word each.
OP_STEPS = 25
WORK_BUDGET = 2e9
MEMORY_BUDGET = 1e9


class ResourceLimitError(RuntimeError):
    """Raised when an exact computation would exceed an explicit size guard.

    The message says which guard fired and, where one exists, what cheaper
    route to try instead.
    """


def check_work(what: str, operations: float, bits: float, held: float, printed: float = 1) -> None:
    """Refuse a computation of `operations` big-integer operations on numbers
    of at most `bits` bits that holds `held` of them at once and prints
    `printed`, if its estimated steps or bytes exceed the budgets."""
    words = bits / 64 + 1
    steps = operations * (OP_STEPS + words) + printed * (OP_STEPS + 2 * words * words)
    memory = held * (40 + 8 * words)
    if steps > WORK_BUDGET or memory > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs an estimated {steps:.3g} word steps and {memory / 1e6:.3g} MB, "
            f"over the budget of {WORK_BUDGET:.3g} steps and {MEMORY_BUDGET / 1e6:.3g} MB"
        )
