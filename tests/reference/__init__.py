"""Frozen pre-fast-path implementations the parity suites compare against.

``routing`` holds the straight-line SPF / LDP control plane
(``tests/test_spf_parity.py``), ``sim`` the one-heap event engine
(``tests/test_engine_parity.py``, ``tests/test_link_driver.py``).  They
live with the tests because nothing a run uses imports them.
"""
