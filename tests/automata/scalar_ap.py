"""The per-symbol AP loop: the oracle for the batched stepping kernel.

This is how ``GenericAPModel.run`` stepped a stream before every run went
through ``batched_matrix_steps``, kept verbatim in behaviour: one Python
iteration per symbol through the model's Eq. 3 and Eq. 4 methods
(``next_active``, which reads Eqs. 1 and 2, and ``accept_value``), each
counting its own kernel reads, and Eq. 4 read on the start vector for an
empty stream.  It shares only those per-equation methods and the trace
record with the package.  Every stepping path -- ``run`` and
``run_batch`` of the generic model and of the hardware processor's matrix
backend -- must reproduce its traces and kernel counts exactly.
"""

from __future__ import annotations

import numpy as np

from repro.automata.generic_ap import APTrace, GenericAPModel


def run(model: GenericAPModel, sequence, unanchored: bool = False) -> APTrace:
    """Step ``sequence`` through ``model`` one symbol at a time."""
    symbols = list(sequence)
    active = model.start.copy()
    trace = np.zeros((len(symbols) + 1, model.n_states), dtype=bool)
    trace[0] = active
    accepts = np.zeros(len(symbols), dtype=bool)
    for t, symbol in enumerate(symbols):
        source = active | model.start if unanchored else active
        active = model.next_active(source, symbol)
        trace[t + 1] = active
        accepts[t] = model.accept_value(active)
    return APTrace(
        active=trace,
        accept_per_step=accepts,
        accepted=bool(accepts[-1]) if len(symbols) else
        model.accept_value(active),
    )


def model_of(processor) -> GenericAPModel:
    """The generic model a hardware processor configures: its (possibly
    fault-corrupted) STE matrix, the full routing matrix, start and
    accept vectors."""
    return GenericAPModel(
        processor.alphabet,
        ste=processor.ste_matrix,
        routing=processor.routing.routing,
        start=processor.start,
        accept=processor.accept,
    )
