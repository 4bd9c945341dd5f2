"""DiffServ QoS: codepoints, classifiers, meters, schedulers, AQM."""

from repro.qos.cbq import CbqClass, CbqScheduler
from repro.qos.classifier import (
    FlowMatch,
    MultiFieldClassifier,
    ba_classifier,
    exp_classifier,
    llsp_classifier,
    mpls_aware_classifier,
)
from repro.qos.dscp import (
    DEFAULT_CLASS_ORDER,
    DSCP,
    PHB_OF_DSCP,
    ServiceClass,
    dscp_to_class,
    dscp_to_exp,
    exp_to_class,
)
from repro.qos.meter import (
    Color,
    SrTCM,
    TokenBucket,
    TrTCM,
    dscp_marker,
    exp_from_dscp_marker,
    policer,
    srtcm_remarker,
)
from repro.qos.intserv import RSVP_REFRESH_S, IntServ, Reservation, intserv_classifier
from repro.qos.shaper import TokenBucketShaper
from repro.qos.queues import (
    DeficitRoundRobin,
    DropTailFifo,
    FairQueueing,
    PriorityScheduler,
    QueueDiscipline,
    WeightedRoundRobin,
)
from repro.qos.red import RedParams, RedQueueManager, WredQueueManager, standard_wred

__all__ = [
    "CbqClass", "CbqScheduler",
    "FlowMatch", "MultiFieldClassifier", "ba_classifier", "exp_classifier",
    "mpls_aware_classifier", "llsp_classifier",
    "RSVP_REFRESH_S", "IntServ", "Reservation", "intserv_classifier",
    "DEFAULT_CLASS_ORDER", "DSCP", "PHB_OF_DSCP", "ServiceClass",
    "dscp_to_class", "dscp_to_exp", "exp_to_class",
    "Color", "SrTCM", "TokenBucket", "TrTCM", "TokenBucketShaper",
    "dscp_marker", "exp_from_dscp_marker",
    "policer", "srtcm_remarker",
    "DeficitRoundRobin", "DropTailFifo",
    "FairQueueing", "PriorityScheduler", "QueueDiscipline", "WeightedRoundRobin",
    "RedParams", "RedQueueManager", "WredQueueManager", "standard_wred",
]
