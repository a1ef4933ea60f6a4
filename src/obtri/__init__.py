"""Obtuse random triangles: exact bounds, extremal constructions, Monte Carlo.

A triangle is drawn by sampling three points independently from a probability
distribution on R^d.  This package computes lower bounds on the probability
that such a triangle is obtuse (exact big-integer recursions and their closed
forms), evaluates the uniform-on-a-sphere case by quadrature, samples the
planar three-arc and self-similar spherical-cap constructions that push the
obtuse probability down toward its known ceiling, and searches point
configurations that minimise non-acute triangle counts.
"""

__version__ = "0.1.0"

from obtri.geometry import TriangleClass, Configuration, classify_triangle, count_classes, count_nonacute
from obtri.bounds import (
    recursion_step,
    closed_form_2d,
    closed_form_3d,
    limit_bound,
    asymptotic_bound,
    naive_bound,
)
from obtri.sphere import obtuse_given_angle, obtuse_prob_sphere, asymptotic_sphere, laplace_sphere, sample_sphere
from obtri.constructions import (
    ArcTripleParams,
    DistributionSpec,
    SelfSimilarParams,
    arc_triple_pattern_report,
    build_sampler,
    fixed_point_acute,
    maximize_acute,
    mc_self_similar,
)
from obtri.mc import Estimate, estimate, wilson_interval

__all__ = [
    "TriangleClass",
    "Configuration",
    "classify_triangle",
    "count_classes",
    "count_nonacute",
    "recursion_step",
    "closed_form_2d",
    "closed_form_3d",
    "limit_bound",
    "asymptotic_bound",
    "naive_bound",
    "obtuse_given_angle",
    "obtuse_prob_sphere",
    "asymptotic_sphere",
    "laplace_sphere",
    "sample_sphere",
    "ArcTripleParams",
    "DistributionSpec",
    "SelfSimilarParams",
    "arc_triple_pattern_report",
    "build_sampler",
    "fixed_point_acute",
    "maximize_acute",
    "mc_self_similar",
    "Estimate",
    "estimate",
    "wilson_interval",
]
