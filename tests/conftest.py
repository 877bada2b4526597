import importlib.util
import sys
from pathlib import Path

import pytest

from lmg_adiabat import _kernels
from lmg_adiabat.model import FullModelParams


def _record_kernel_calls(monkeypatch, name, record):
    """Wrap the kernel ``name`` so that ``record(terms, ctab)`` sees every call."""
    get_kernels = _kernels.get_kernels

    def recording(backend=None):
        kern = get_kernels(backend)
        kernel = getattr(kern, name)

        def wrapped(terms, ctab, *args):
            record(terms, ctab)
            return kernel(terms, ctab, *args)

        return kern._replace(**{name: wrapped})

    monkeypatch.setattr(_kernels, "get_kernels", recording)


@pytest.fixture
def lindblad_calls(monkeypatch):
    """Shape of the coefficient table of every Lindblad kernel call, in order."""
    shapes = []
    _record_kernel_calls(monkeypatch, "lindblad_cf4",
                         lambda terms, ctab: shapes.append(ctab.shape))
    return shapes


@pytest.fixture
def lindblad_terms(monkeypatch):
    """Shape of the term stack of every Lindblad kernel call, in order."""
    shapes = []
    _record_kernel_calls(monkeypatch, "lindblad_cf4",
                         lambda terms, ctab: shapes.append(terms.shape))
    return shapes


@pytest.fixture
def schrodinger_calls(monkeypatch):
    """Dimension of every pure-state (RK4) kernel call, in order."""
    dims = []
    _record_kernel_calls(monkeypatch, "schrodinger_rk4",
                         lambda terms, ctab: dims.append(terms.shape[1]))
    return dims


@pytest.fixture(params=[
    (1, 3, 1.1, 0.3, 0.0),
    (1, 4, -1.1, 0.0, 0.25),
    (2, 5, -1.1, 0.2, 0.0),
    (2, 6, 1.1, 0.0, 0.15),
], ids=lambda p: f"N{p[0]}-c{p[1]}-d{p[2]:+}-{'omega1' if p[3] else 'omega2'}")
def single_tone_params(request):
    """Full-model inputs with one drive tone, so that a rotating frame exists."""
    n, cutoff, delta, omega1, omega2 = request.param
    return FullModelParams(n_spins=n, fock_cutoff=cutoff, eta=0.3, delta=delta,
                           omega1=omega1, omega2=omega2)


@pytest.fixture
def perfbench_tracing(monkeypatch):
    """``perfbench/tracing.py``, loaded by path: it rebinds names of the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing
