"""A pytest plugin for mutants/run.py: the profile `mutant` stops a hypothesis
test at its first failing example, without shrinking it, since the runner
only asks whether the test fails."""

from hypothesis import Phase, settings

settings.register_profile("mutant", phases=[Phase.explicit, Phase.reuse, Phase.generate])
