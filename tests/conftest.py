import os

import numpy as np
import pytest

import mwkit
from mwkit import radiator


def polar(mag, deg):
    return mag * np.exp(1j * np.deg2rad(deg))


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports this mwkit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mwkit.__file__)))
    return dict(os.environ, PYTHONPATH=src)


@pytest.fixture
def bfu730f():
    """BFU730F S-parameters at 400 MHz (datasheet magnitude/angle)."""
    return np.array([
        [polar(0.87, -28), polar(0.01, 76)],
        [polar(26.73, 159), polar(0.96, -16)],
    ])


@pytest.fixture
def bfu730f_s2p(tmp_path, bfu730f):
    """Touchstone file carrying the BFU730F point at 0.4 GHz."""
    s = bfu730f
    def ma(c):
        return f"{abs(c):.10g} {np.degrees(np.angle(c)):.10g}"
    text = "! BFU730F bias point\n# GHZ S MA R 50\n" \
        f"0.4 {ma(s[0,0])} {ma(s[1,0])} {ma(s[0,1])} {ma(s[1,1])}\n"
    path = tmp_path / "bfu730f.s2p"
    path.write_text(text)
    return str(path)


def mirrored_cut(model, freq, theta_max, n, phi=0.0):
    """Symmetric pattern cut through broadside, in degrees, for metrics."""
    th = np.linspace(1e-7, theta_max, n)
    pat = radiator.normalized_pattern(model, freq, th, phi=phi)
    theta_deg = np.degrees(np.concatenate([-th[::-1], th[1:]]))
    f_db = np.concatenate([pat["f_db"][::-1], pat["f_db"][1:]])
    return theta_deg, f_db
