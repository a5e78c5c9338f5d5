"""Error kinds shared across modules; PoleAtLevel lives in scalars."""


class ParityError(ValueError):
    """An index combination with odd total weight where even is required."""


class DescentStuck(RuntimeError):
    """Quantum-correction descent could not express a lower-degree residue."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"descent stuck at filtration degree {degree}")


class ResourceError(RuntimeError):
    """A computation exceeds the configured weight budget."""


#: the opt-in named by the budgets that ``allow_large`` lifts
ALLOW_LARGE = "pass allow_large=True (--allow-large on the command line)"


def check_budget(quantity: str, value: int, bound: int, opt_in: str = None,
                 allowed: bool = False):
    """Raise ResourceError when value exceeds bound and the opt-in is not given.

    The message names the quantity, its value, the bound and the opt-in.
    """
    if value > bound and not allowed:
        hint = f"; {opt_in} to go further" if opt_in else ""
        raise ResourceError(f"{quantity} = {value} exceeds the bound {bound}{hint}")
