"""DiffServ QoS: codepoints, classifiers, meters, schedulers, AQM."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cbq": ("CbqClass", "CbqScheduler"),
    "classifier": (
        "FlowMatch", "MultiFieldClassifier", "ba_classifier", "exp_classifier",
        "llsp_classifier", "mpls_aware_classifier",
    ),
    "dscp": (
        "DEFAULT_CLASS_ORDER", "DSCP", "PHB_OF_DSCP", "ServiceClass",
        "dscp_to_class", "dscp_to_exp", "exp_to_class",
    ),
    "meter": (
        "Color", "SrTCM", "TokenBucket", "TrTCM",
        "dscp_marker", "exp_from_dscp_marker", "policer", "srtcm_remarker",
    ),
    "intserv": ("RSVP_REFRESH_S", "IntServ", "Reservation", "intserv_classifier"),
    "shaper": ("TokenBucketShaper",),
    "queues": (
        "DeficitRoundRobin", "DropTailFifo", "FairQueueing", "PriorityScheduler",
        "QueueDiscipline", "WeightedRoundRobin",
    ),
    "red": ("RedParams", "RedQueueManager", "WredQueueManager", "standard_wred"),
})
