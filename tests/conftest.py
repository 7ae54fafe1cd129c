import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

COUNTED_OPS = tuple(name for op in ("add", "sub", "mul", "truediv")
                    for name in (f"__{op}__", f"__r{op}__")) + ("__neg__",)


class FractionOps(list):
    """The fraction_ops log; ``tested`` lists every Fraction whose truth
    was tested, that is every zero test that reached Fraction.__bool__."""

    def __init__(self):
        super().__init__()
        self.tested = []


@pytest.fixture
def fraction_ops(monkeypatch):
    """Records (operation, whether an operand was zero) for every Fraction
    + - * / (the reflected forms and negation too) while the test runs,
    and in ``tested`` every Fraction tested for truth."""
    log = FractionOps()
    for name in COUNTED_OPS:
        original = getattr(Fraction, name)

        def counted(*operands, _name=name, _original=original):
            log.append((_name, any(x == 0 for x in operands)))
            return _original(*operands)

        monkeypatch.setattr(Fraction, name, counted)
    truth = Fraction.__bool__

    def tested(x):
        log.tested.append(x)
        return truth(x)

    monkeypatch.setattr(Fraction, "__bool__", tested)
    return log
