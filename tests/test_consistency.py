"""Cross-module consistency: one quantity computed by two independent routes.

Each pair agrees to ~1e-15; the 1e-12 tolerances leave room for rounding only.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from mwkit import matching, network as net, tline


def _one_point_component(el, f, z0):
    """The network component equal to one Richards-Kuroda element at f."""
    one = np.array([f])
    if el.kind == "unit_element":
        return net.component_sparams(
            "ideal_line", {"z0_line": el.z, "theta_at_f0": el.theta0, "f0": el.f0}, one, z0)
    assert el.kind == "shunt_open_stub"
    return net.component_sparams("shunt_y", {"y": 1j * math.tan(el.theta(f)) / el.z}, one, z0)


@given(g1=st.floats(0.3, 3.0), g2=st.floats(0.3, 3.0), fc=st.floats(1e8, 1e10),
       z0=st.floats(20.0, 120.0))
@settings(max_examples=15, deadline=None)
def test_richards_kuroda_response_equals_component_cascade(g1, g2, fc, z0):
    proto = matching.LowpassPrototype(g=(1.0, g1, g2, g1, 1.0))
    filt = matching.richard_kuroda_lowpass(proto, fc, z0)
    freqs = np.linspace(0.01 * fc, 3.0 * fc, 50)
    resp = matching.filter_response(filt, freqs)
    for fi, f in enumerate(freqs):
        parts = [_one_point_component(el, f, z0) for el in filt.elements]
        s = functools.reduce(net.cascade, parts).matrices[0]
        assert abs(s[0, 0] - resp["s11"][fi]) <= 1e-12
        assert abs(s[1, 0] - resp["s21"][fi]) <= 1e-12


@given(zline=st.floats(20.0, 150.0), theta0=st.floats(0.05, 3.0), z0=st.floats(25.0, 100.0),
       rl=st.floats(1.0, 300.0), xl=st.floats(-200.0, 200.0))
@settings(max_examples=25, deadline=None)
def test_ideal_line_input_reflection_equals_tline_input_impedance(zline, theta0, z0, rl, xl):
    f0 = 1e9
    freqs = np.linspace(0.05 * f0, 2.0 * f0, 50)
    line = net.component_sparams("ideal_line", {"z0_line": zline, "theta_at_f0": theta0,
                                                "f0": f0}, freqs, z0)
    zl = complex(rl, xl)
    term = net.PortTermination.from_impedances(z0, zl, z0)
    for fi, f in enumerate(freqs):
        gamma_in = net.two_port_gammas(line.matrices[fi], term)["gamma_in"]
        # a unit-length lossless line with beta = theta(f)
        spec = tline.TLineSpec(gamma=1j * theta0 * f / f0, z0=zline)
        z_in = tline.input_impedance(spec, tline.Termination(zl), 1.0)
        assert abs(gamma_in - (z_in - z0) / (z_in + z0)) <= 1e-12
