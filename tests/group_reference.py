"""An independent oracle for the elements of the group the two CNOTs generate.

It multiplies image tables one element at a time and shares no code with the
search's keys or births, so tests that need every group element draw them
from here rather than from the code under test.
"""

from cnotswap.gates import cnot1_perm, cnot2_perm
from cnotswap.perm import Perm


def reference_elements(d):
    """Independent oracle: the group in one-at-a-time breadth-first insertion
    order over image tables, CNOT1 before CNOT2."""
    gens = [cnot1_perm(d), cnot2_perm(d)]
    elems = [Perm.identity(d * d)]
    seen = set(elems)
    for parent in elems:  # the list grows behind the loop: a queue
        for gate in gens:
            child = gate * parent
            if child not in seen:
                seen.add(child)
                elems.append(child)
    return elems
