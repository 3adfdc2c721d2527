"""Evidence-based trust opinions with a fuzzy representational layer.

The package models trust in a proposition as an opinion triple
``(average rating, certainty, initial expectation)`` derived from positive
and negative evidence, combines opinions over propositional system
topologies (AND/OR/NOT), and represents the result through a trust
percentage, a behavioral probability and Mamdani fuzzy classification.
"""

from .errors import (
    CertainTrustError,
    ConfigError,
    DomainError,
    EvaluationError,
    FormulaSyntaxError,
    ScenarioError,
    UnbalancedParenthesesError,
    UnboundComponentError,
)
from .fuzzy import (
    FamClass,
    FamTable,
    FuzzyLabel,
    FuzzySet,
    LinguisticVariable,
    MamdaniEngine,
    Rule,
    RuleBase,
    aggregate,
    build_default_rulebase,
    build_default_variables,
    classify_trust,
    defuzzify_centroid,
    fam_people20,
    fam_people100,
    fuzzify,
    gaussian_mf,
    implicate,
    infer_trust,
    rule_strength,
)
from .opinions import (
    BehaviorClass,
    Direction,
    EvidenceRecord,
    NotMode,
    Opinion,
    TrustAssessment,
    average_rating,
    behavioral_probability,
    certainty,
    derive_opinion,
    expectation,
    op_and,
    op_not,
    op_or,
    quantized_certainty,
    scaled_rating,
    trust_percent,
)
from .topology import (
    And,
    Formula,
    Leaf,
    NodeAssessment,
    Not,
    Or,
    Readout,
    Scenario,
    ScenarioDefaults,
    SystemReport,
    assess_system,
    evaluate_formula,
    free_variables,
    load_scenario,
    parse_formula,
    scenario_from_dict,
    unparse,
)

__version__ = "0.1.0"
