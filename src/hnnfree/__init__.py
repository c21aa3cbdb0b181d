"""Normal forms and freeness certificates for multiple HNN extensions of
free groups by basis-conjugating embeddings, with a pure-braid layer."""

from .words import (
    OUTER,
    Alphabet,
    CapExceeded,
    GeneratorMap,
    Inconclusive,
    Word,
    base_gen,
    commutator,
    conjugate,
    exp_sum,
    exp_sums,
    free_reduce,
    image,
    invert,
    parse_word,
    format_word,
    stable_gen,
)
from .presentation import (
    Association,
    HnnPresentation,
    RewriteRule,
    SemidirectExtension,
    compile_rules,
    gn,
    p2,
    parse_presentation,
    validate,
)
from .rewrite import (
    RuleSystem,
    check_local_confluence,
    critical_pairs,
    equal,
    nf,
    nf_ints,
    nf_steps,
    normal_form,
    nu,
    nu_less,
    random_confluence_probe,
)
from .pingpong import (
    Bounds,
    Certificate,
    Condition,
    OracleReport,
    SubgroupSpec,
    bounded_intersection_probe,
    descends_to_identity,
    free_product_certificate,
    free_product_oracle,
    orbit_evidence,
    orbit_intersection_certificate,
    support_check,
)
from .braid import (
    BraidSplitting,
    Group,
    SemidirectElement,
    SplitNormalForm,
    braid_equal,
    braid_freeness_check,
    braid_trivial,
    free_factor_probe,
    phi_power,
    resolve_braid_names,
    semidirect_nf,
    split_nf,
    verify_braid_relations,
    verify_extension,
)

__version__ = "0.1.0"
