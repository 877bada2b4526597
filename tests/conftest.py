import pytest

from lmg_adiabat import _kernels


@pytest.fixture
def lindblad_calls(monkeypatch):
    """Shape of the coefficient table of every Lindblad kernel call, in order."""
    shapes = []
    get_kernels = _kernels.get_kernels

    def recording(backend=None):
        kern = get_kernels(backend)

        def lindblad_rk4(terms, ctab, *args):
            shapes.append(ctab.shape)
            return kern.lindblad_rk4(terms, ctab, *args)

        return kern._replace(lindblad_rk4=lindblad_rk4)

    monkeypatch.setattr(_kernels, "get_kernels", recording)
    return shapes
