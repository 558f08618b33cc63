"""Defect-injection tooling for harness self-tests.

The shared lowering keys its family table by handle function, so a cell
class whose ``handle`` was overridden is (correctly) demoted to the
generic-call opcode — both kernels then agree on the patched behaviour
and nothing diverges.  :func:`inline_defect` therefore patches *both* the
handle and the family table: the reference loop runs the modified
handler while the compiled kernels keep the stock inline opcode.  That
is exactly the bug class the kernel-differential oracle exists for — a
compiled opcode whose semantics drift from the reference implementation.
"""

import contextlib

from repro.pulsesim import lowering


@contextlib.contextmanager
def inline_defect(cell_cls, handler):
    """Run with ``cell_cls.handle = handler`` while the compiled kernels
    still lower the cell to its stock inline opcode."""
    table = lowering.families()
    stock = cell_cls.handle
    family = table[stock]
    cell_cls.handle = handler
    table[handler] = family
    try:
        yield
    finally:
        cell_cls.handle = stock
        del table[handler]
