"""The grounding mutations still reach the pipeline's certified queries.

``test_pipeline_certify.py`` injects grounding mutations into a query on
the small policy and expects certification to demote the verdict.  That
only means something while the mutation actually fires there: grounding
inheritance axioms over the entities that can use them leaves many with a
single instance, which a mutation that skipped lone instances never
touched.  These checks fail loudly if a grounding change makes one inert.
"""

import pytest

from repro import PolicyPipeline, Verdict
from repro.core.verify import is_certification_failure
from repro.solver import faults

QUESTION = "Acme collects the email address."


@pytest.mark.parametrize("name", ["drop-ground-instance", "swap-ground-connective"])
def test_grounding_mutation_fires_on_the_certified_pipeline_query(
    small_policy_text, name
):
    # A private model: a mutated query poisons the verification cache.
    model = PolicyPipeline().process(small_policy_text)
    mutation = next(m for m in faults.soundness_mutations() if m.name == name)
    with faults.installed(mutation):
        outcome = PolicyPipeline().query(model, QUESTION)
    assert mutation.fires > 0, f"{name} never fired on the certified query"
    assert outcome.verdict is Verdict.UNKNOWN
    assert is_certification_failure(outcome.verification)
