"""Tests for repro.cluster machines, network, and event kernel."""

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.cluster.network import Network, SharedEthernet
from repro.workload.traces import Trace


class TestMachine:
    def test_benchmark_time(self):
        m = Machine("m", 4.0)
        assert m.benchmark_time == 0.25

    def test_compute_finish_dedicated(self):
        m = Machine("m", 10.0)
        assert m.compute_finish(50.0, 2.0) == pytest.approx(7.0)

    def test_compute_finish_with_load(self):
        m = Machine("m", 10.0, availability=Trace.constant(0.5))
        assert m.compute_finish(50.0, 0.0) == pytest.approx(10.0)

    def test_with_availability(self):
        m = Machine("m", 10.0)
        m2 = m.with_availability(Trace.constant(0.25))
        assert m2.compute_finish(10.0, 0.0) == pytest.approx(4.0)
        assert m.compute_finish(10.0, 0.0) == pytest.approx(1.0)

    def test_dedicated_copy(self):
        m = Machine("m", 10.0, availability=Trace.constant(0.5))
        assert m.dedicated().compute_finish(10.0, 0.0) == pytest.approx(1.0)

    def test_memory_check(self):
        m = Machine("m", 10.0, memory_elements=100.0)
        assert m.fits_in_memory(100.0)
        assert not m.fits_in_memory(101.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Machine("m", 0.0)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            Machine("m", 1.0, memory_elements=0.0)


class TestSharedEthernet:
    def test_transfer_time(self):
        seg = SharedEthernet(dedicated_bytes_per_sec=1000.0, latency=0.01)
        assert seg.transfer_finish(500.0, 1.0) == pytest.approx(1.51)

    def test_zero_bytes_latency_only(self):
        seg = SharedEthernet(dedicated_bytes_per_sec=1000.0, latency=0.01)
        assert seg.transfer_finish(0.0, 1.0) == pytest.approx(1.01)

    def test_availability_scales_time(self):
        seg = SharedEthernet(
            dedicated_bytes_per_sec=1000.0, availability=Trace.constant(0.5), latency=0.0
        )
        assert seg.transfer_finish(500.0, 0.0) == pytest.approx(1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            SharedEthernet().transfer_finish(-1.0, 0.0)

    def test_with_availability(self):
        seg = SharedEthernet(dedicated_bytes_per_sec=1000.0, latency=0.0)
        seg2 = seg.with_availability(Trace.constant(0.25))
        assert seg2.transfer_finish(250.0, 0.0) == pytest.approx(1.0)


class TestNetwork:
    def test_default_segment_everywhere(self):
        net = Network(SharedEthernet(dedicated_bytes_per_sec=2000.0))
        assert net.dedicated_bandwidth("a", "b") == 2000.0
        assert net.dedicated_bandwidth("x", "y") == 2000.0

    def test_override_is_symmetric(self):
        net = Network()
        fast = SharedEthernet(dedicated_bytes_per_sec=1e9)
        net.set_link("a", "b", fast)
        assert net.link("a", "b") is fast
        assert net.link("b", "a") is fast
        assert net.link("a", "c") is net.default_segment

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Network().link("a", "a")

    def test_transfer_finish_delegates(self):
        net = Network(SharedEthernet(dedicated_bytes_per_sec=100.0, latency=0.0))
        assert net.transfer_finish("a", "b", 50.0, 0.0) == pytest.approx(0.5)
