"""Experiment harness: one module per reproduced claim (see DESIGN.md §3)."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "common": ("ExperimentRun", "QdiscSpec", "three_class_queues"),
    "e1_scalability": ("mpls_census", "overlay_census", "run_e1"),
    "e2_qos": ("run_e2",),
    "e3_forwarding": ("run_e3",),
    "e4_ipsec": ("run_e4",),
    "e5_sla": ("run_e5",),
    "e6_te": ("run_e6",),
    "e7_isolation": ("run_e7",),
    "e8_mixed": ("run_e8",),
    "e9_ablations": (
        "run_e9", "run_e9a_schedulers", "run_e9b_aqm", "run_e9c_exp_php",
        "run_e9d_stack_overhead", "run_e9e_ibgp",
    ),
    "e10_interas": ("run_e10",),
    "e11_resilience": ("run_e11",),
    "e12_elastic": ("run_e12", "run_e12a_aqm", "run_e12b_voice_vs_elastic"),
    "e13_tiers": ("run_e13",),
    "e14_intserv": ("run_e14",),
    "e15_churn": ("run_e15",),
    "hybrid": ("run_hybrid_demo", "run_scale"),
})
