"""Workload names, inputs and sizes shared by the benchmark's modules.

Imports only the standard library at module level: ``run.py --setup-probe``
imports this module before it starts timing the import of numpy and obtri.
"""

WORKLOADS = ("montecarlo", "exact", "probe")

# Pinned outputs in pinned/ were made at this seed (see pin.py).
DEFAULT_SEED = 1

# Distribution specs of the ``mc`` commands, written to spec files at set-up.
MC_SPECS = {
    "sphere_d3": {"kind": "sphere", "params": {"d": 3}},
    "sphere_d10": {"kind": "sphere", "params": {"d": 10}},
    "arc_triple": {"kind": "arc_triple", "params": {"alpha": 1e-4, "delta": 8e-6, "eps": 0.05}},
}
SELF_SIMILAR_P = 0.805187

# Samplers the set-up builds, by workload (exact and probe use none).
SETUP_SAMPLERS = {"montecarlo": ("sphere_d3", "sphere_d10", "arc_triple", "self_similar")}

# "full" is what the benchmark command runs; "smoke" runs every code path at tiny sizes.
SIZES = {
    "full": {
        "mc_samples": 1 << 19,       # triples per mc/selfsimilar command
        "bound_n_max": 200_000,      # n_max of table and bound
        "search": ((7, 2000, 1), (20, 1500, 1)),  # (n, iterations, restarts), d = 2
        "sphere_dims": (3, 10, 80),
        "config_points": 150,        # count_classes input, R^3
        "setup_repeats": 11,
        "warmup": True,
        # Layer suite (fixed inputs, outside the workloads).
        "suite_triples": 1 << 16,
        "suite_n_max": 100_000,
        "suite_search_iterations": 200,
        "suite_config_points": 100,
        "suite_estimate_samples": 1 << 18,
        "suite_estimate_shard": 1 << 16,
        "suite_reps": 3,
    },
    "smoke": {
        "mc_samples": 1 << 12,
        "bound_n_max": 2_000,
        "search": ((7, 40, 1), (20, 20, 1)),
        "sphere_dims": (3, 10, 80),
        "config_points": 30,
        "setup_repeats": 1,
        "warmup": False,
        "suite_triples": 1 << 10,
        "suite_n_max": 2_000,
        "suite_search_iterations": 10,
        "suite_config_points": 20,
        "suite_estimate_samples": 1 << 12,
        "suite_estimate_shard": 1 << 11,
        "suite_reps": 1,
    },
}


def build_samplers(keys):
    """The samplers named by ``keys`` (MC_SPECS keys or "self_similar")."""
    from obtri import constructions
    out = {}
    for key in keys:
        if key == "self_similar":
            params = constructions.SelfSimilarParams(p=SELF_SIMILAR_P)
            out[key] = constructions.SelfSimilarSampler(params)
        else:
            out[key] = constructions.build_sampler(constructions.DistributionSpec(**MC_SPECS[key]))
    return out
