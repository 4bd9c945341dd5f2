"""Tests for DSCP/PHB mappings, classifiers, and RED/WRED."""

import numpy as np
import pytest

from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, Packet, PacketError
from repro.qos.classifier import (
    FlowMatch,
    MultiFieldClassifier,
    ba_classifier,
    exp_classifier,
    mpls_aware_classifier,
)
from repro.qos.dscp import (
    CLASS_OF_DSCP,
    CLASS_OF_EXP,
    DEFAULT_CLASS_ORDER,
    DSCP,
    EXP_OF_DSCP,
    CLASS_NAME_OF_DSCP,
    PHB_OF_DSCP,
    dscp_to_class,
    dscp_to_exp,
    exp_to_class,
)
from repro.qos.meter import (
    SrTCM,
    TrTCM,
    dscp_marker,
    exp_from_dscp_marker,
    srtcm_remarker,
)
from repro.qos.red import RedParams, RedQueueManager, WredQueueManager, standard_wred


def pkt(dscp=0, src="10.0.0.1", dst="10.0.0.2", proto="udp", sport=0, dport=0):
    return Packet(ip=IPHeader(IPv4Address.parse(src), IPv4Address.parse(dst),
                              dscp=dscp, proto=proto, src_port=sport, dst_port=dport),
                  payload_bytes=80)


class TestDscpMappings:
    def test_class_order(self):
        assert DEFAULT_CLASS_ORDER == ("EF", "AF", "BE")

    def test_ef_maps_to_class_0(self):
        assert dscp_to_class(int(DSCP.EF)) == 0
        assert CLASS_NAME_OF_DSCP[int(DSCP.EF)] == "EF"

    def test_af_maps_to_class_1(self):
        for d in (DSCP.AF11, DSCP.AF22, DSCP.AF33, DSCP.AF41):
            assert dscp_to_class(int(d)) == 1

    def test_be_and_unknown_map_to_class_2(self):
        assert dscp_to_class(int(DSCP.BE)) == 2
        assert dscp_to_class(63) == 2  # unknown codepoint

    def test_exp_mapping_ef(self):
        assert dscp_to_exp(int(DSCP.EF)) == 5

    def test_exp_mapping_af_drop_precedence(self):
        assert dscp_to_exp(int(DSCP.AF11)) == 4
        assert dscp_to_exp(int(DSCP.AF12)) == 3
        assert dscp_to_exp(int(DSCP.AF13)) == 2

    def test_exp_mapping_be(self):
        assert dscp_to_exp(int(DSCP.BE)) == 0

    def test_exp_to_class_inverse_consistent(self):
        for d in (DSCP.EF, DSCP.AF11, DSCP.AF13, DSCP.BE):
            assert exp_to_class(dscp_to_exp(int(d))) == dscp_to_class(int(d))


# The mapping spelled out, independent of how ``repro.qos.dscp`` derives it:
# codepoint -> (class index, EXP).  Everything not listed is best effort.
_EF, _AF, _BE = 0, 1, 2
SPELLED_OUT = {
    46: (_EF, 5), 40: (_EF, 5),
    10: (_AF, 4), 12: (_AF, 3), 14: (_AF, 2),
    18: (_AF, 4), 20: (_AF, 3), 22: (_AF, 2),
    26: (_AF, 4), 28: (_AF, 3), 30: (_AF, 2),
    34: (_AF, 4), 36: (_AF, 3), 38: (_AF, 2),
    0: (_BE, 0), 8: (_BE, 0),
}
EXP_CLASSES = (_BE, _AF, _AF, _AF, _AF, _EF, _EF, _EF)


class TestClassificationTables:
    def test_spelled_out_mapping_covers_phb_table(self):
        assert set(SPELLED_OUT) == set(PHB_OF_DSCP)

    def test_all_64_dscps(self):
        assert len(CLASS_OF_DSCP) == len(EXP_OF_DSCP) == 64
        for d in range(64):
            cls, exp = SPELLED_OUT.get(d, (_BE, 0))
            assert CLASS_OF_DSCP[d] == dscp_to_class(d) == cls, d
            assert EXP_OF_DSCP[d] == dscp_to_exp(d) == exp, d
            assert DEFAULT_CLASS_ORDER[cls] == CLASS_NAME_OF_DSCP[d]

    def test_all_8_exps(self):
        assert CLASS_OF_EXP == EXP_CLASSES
        for e in range(8):
            assert exp_to_class(e) == EXP_CLASSES[e]
        # Round trip: every EXP the edge can write classifies like the
        # DSCP it came from.
        for d in range(64):
            assert CLASS_OF_EXP[EXP_OF_DSCP[d]] == CLASS_OF_DSCP[d]

    def test_out_of_range_public_lookups_are_best_effort(self):
        for bad in (-1, 64, 255, 10_000):
            assert dscp_to_class(bad) == _BE
            assert dscp_to_exp(bad) == 0
        assert exp_to_class(-1) == _BE
        assert exp_to_class(9) == _EF  # ">= 5 is EF", as before the tables

    def test_classifiers_read_the_tables(self):
        assert mpls_aware_classifier is exp_classifier
        for d in range(64):
            cls, exp = SPELLED_OUT.get(d, (_BE, 0))
            unlabeled = pkt(dscp=d)
            assert ba_classifier(unlabeled) == exp_classifier(unlabeled) == cls
            # Encrypted envelope: only the outer DSCP counts (claim C3).
            outer = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=d),
                           inner=pkt(dscp=int(DSCP.EF)), encrypted=True)
            assert ba_classifier(outer) == exp_classifier(outer) == cls
        for e in range(8):
            labeled = pkt(dscp=int(DSCP.EF))
            labeled.push_label(17, exp=0)   # VPN label below, ignored
            labeled.push_label(100, exp=e)
            assert exp_classifier(labeled) == EXP_CLASSES[e]
            assert ba_classifier(labeled) == _EF  # BA never reads labels

    def test_edge_marker_writes_table_exp(self):
        mark = exp_from_dscp_marker()
        for d in range(64):
            p = pkt(dscp=d)
            assert mark(p, 0.0) is p and not p.mpls_stack  # unlabeled: no-op
            p.push_label(100)
            mark(p, 0.0)
            assert p.top_label.exp == SPELLED_OUT.get(d, (_BE, 0))[1]


class TestDscpRange:
    """The tables are indexed with whatever a header holds, so a codepoint
    outside 0..63 is refused where it would enter one."""

    @pytest.mark.parametrize("bad", [-1, 64, 255])
    def test_header_rejects_out_of_range_dscp(self, bad):
        with pytest.raises(PacketError, match="DSCP"):
            IPHeader(IPv4Address(1), IPv4Address(2), dscp=bad)

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_marker_builders_reject_out_of_range_dscp(self, bad):
        meter = SrTCM(1e6, 1000, 1000)
        with pytest.raises(ValueError, match="DSCP"):
            dscp_marker(bad)
        with pytest.raises(ValueError, match="DSCP"):
            srtcm_remarker(meter, green_dscp=bad, yellow_dscp=0)
        with pytest.raises(ValueError, match="DSCP"):
            srtcm_remarker(TrTCM(1e6, 1000, 2e6, 1000), green_dscp=0, yellow_dscp=bad)
        with pytest.raises(ValueError, match="DSCP"):
            srtcm_remarker(meter, 0, 0, red_action="remark", red_dscp=bad)


class TestClassifiers:
    def test_ba_uses_outer_dscp(self):
        inner = pkt(dscp=int(DSCP.EF))
        outer = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=0),
                       inner=inner, encrypted=True)
        assert ba_classifier(inner) == 0
        assert ba_classifier(outer) == 2  # encrypted tunnel hides EF

    def test_exp_classifier_prefers_label(self):
        p = pkt(dscp=int(DSCP.BE))
        p.push_label(100, exp=5)
        assert exp_classifier(p) == 0   # EXP says EF despite BE DSCP

    def test_exp_classifier_falls_back_to_dscp(self):
        assert exp_classifier(pkt(dscp=int(DSCP.EF))) == 0
        assert exp_classifier(pkt(dscp=int(DSCP.BE))) == 2

    def test_multifield_first_match_wins(self):
        mf = MultiFieldClassifier(default_class=2)
        mf.add_rule(FlowMatch(dst_port=5004), 0)
        mf.add_rule(FlowMatch(proto="tcp"), 1)
        assert mf(pkt(dport=5004, proto="tcp")) == 0
        assert mf(pkt(proto="tcp")) == 1
        assert mf(pkt()) == 2
        assert len(mf) == 2

    def test_multifield_prefix_match(self):
        mf = MultiFieldClassifier()
        mf.add_rule(FlowMatch(dst=Prefix.parse("10.2.0.0/16")), 1)
        assert mf(pkt(dst="10.2.3.4")) == 1
        assert mf(pkt(dst="10.3.0.1")) == 0

    def test_flowmatch_all_fields(self):
        m = FlowMatch(src=Prefix.parse("10.1.0.0/16"), dst=Prefix.parse("10.2.0.0/16"),
                      proto="udp", src_port=10, dst_port=20, dscp=46)
        good = pkt(dscp=46, src="10.1.0.1", dst="10.2.0.1", sport=10, dport=20)
        assert m.matches(good)
        for field, bad in [
            ("src", pkt(dscp=46, src="10.9.0.1", dst="10.2.0.1", sport=10, dport=20)),
            ("dst", pkt(dscp=46, src="10.1.0.1", dst="10.9.0.1", sport=10, dport=20)),
            ("proto", pkt(dscp=46, src="10.1.0.1", dst="10.2.0.1", proto="tcp", sport=10, dport=20)),
            ("sport", pkt(dscp=46, src="10.1.0.1", dst="10.2.0.1", sport=11, dport=20)),
            ("dport", pkt(dscp=46, src="10.1.0.1", dst="10.2.0.1", sport=10, dport=21)),
            ("dscp", pkt(dscp=0, src="10.1.0.1", dst="10.2.0.1", sport=10, dport=20)),
        ]:
            assert not m.matches(bad), field


class TestRed:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            RedParams(min_th=0, max_th=10)
        with pytest.raises(ValueError):
            RedParams(min_th=10, max_th=5)
        with pytest.raises(ValueError):
            RedParams(min_th=1, max_th=2, max_p=0.0)

    def test_no_drops_below_min_threshold(self):
        rng = np.random.default_rng(0)
        red = RedQueueManager(RedParams(min_th=1000, max_th=2000), rng)
        for _ in range(200):
            assert not red.should_drop(pkt(), backlog_bytes=100, now=0.0)

    def test_forced_drop_above_max_threshold(self):
        rng = np.random.default_rng(0)
        red = RedQueueManager(RedParams(min_th=100, max_th=200, weight=1.0), rng)
        assert red.should_drop(pkt(), backlog_bytes=500, now=0.0)
        assert red.forced_drops == 1

    def test_probabilistic_region_drops_some(self):
        rng = np.random.default_rng(0)
        red = RedQueueManager(RedParams(min_th=100, max_th=1000, max_p=0.5, weight=1.0), rng)
        decisions = [red.should_drop(pkt(), backlog_bytes=800, now=0.0) for _ in range(500)]
        dropped = sum(decisions)
        assert 0 < dropped < 500
        assert red.random_drops == dropped

    def test_drop_probability_monotone_in_avg(self):
        def rate(backlog):
            rng = np.random.default_rng(7)
            red = RedQueueManager(
                RedParams(min_th=100, max_th=1000, max_p=0.3, weight=1.0), rng
            )
            return sum(
                red.should_drop(pkt(), backlog_bytes=backlog, now=0.0)
                for _ in range(800)
            )
        assert rate(200) < rate(600) < rate(950)

    def test_ewma_smooths(self):
        rng = np.random.default_rng(0)
        red = RedQueueManager(RedParams(min_th=100, max_th=200, weight=0.01), rng)
        # One huge instantaneous backlog barely moves the slow average.
        red.should_drop(pkt(), backlog_bytes=10_000, now=0.0)
        assert red.avg < 150


class TestWred:
    def test_precedence_ordering(self):
        """AF13 (prec 2) must drop no less than AF11 (prec 0) at equal load."""
        def drops(dscp):
            rng = np.random.default_rng(3)
            wred = standard_wred(10_000, rng)
            return sum(
                wred.should_drop(pkt(dscp=dscp), backlog_bytes=4_000, now=0.0)
                for _ in range(600)
            )
        d11, d13 = drops(int(DSCP.AF11)), drops(int(DSCP.AF13))
        assert d13 > d11

    def test_empty_curves_rejected(self):
        with pytest.raises(ValueError):
            WredQueueManager({}, np.random.default_rng(0))

    def test_unknown_precedence_uses_most_aggressive(self):
        rng = np.random.default_rng(0)
        wred = WredQueueManager(
            {0: RedParams(min_th=5000, max_th=9000, weight=1.0)}, rng
        )
        # BE has precedence 0 here; just ensure dispatch works and counts.
        assert not wred.should_drop(pkt(dscp=0), backlog_bytes=100, now=0.0)
        assert wred.total_drops == 0
