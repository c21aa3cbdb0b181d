"""Normal forms and freeness certificates for multiple HNN extensions of
free groups by basis-conjugating embeddings, with a pure-braid layer.
Every name is imported from its module: the root binds only the names the
benchmark under perfbench/ reads from it (tests/test_benchmark_api.py)."""

from .presentation import gn, p2, parse_presentation
from .rewrite import RuleSystem, nf_ints, normal_form
from .words import format_word
