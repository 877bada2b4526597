import pytest

from lmg_adiabat import _kernels


def _record_lindblad_calls(monkeypatch, record):
    """Wrap the master-equation kernel so that ``record(terms, ctab)`` sees every call."""
    get_kernels = _kernels.get_kernels

    def recording(backend=None):
        kern = get_kernels(backend)

        def lindblad_cf4(terms, ctab, *args):
            record(terms, ctab)
            return kern.lindblad_cf4(terms, ctab, *args)

        return kern._replace(lindblad_cf4=lindblad_cf4)

    monkeypatch.setattr(_kernels, "get_kernels", recording)


@pytest.fixture
def lindblad_calls(monkeypatch):
    """Shape of the coefficient table of every Lindblad kernel call, in order."""
    shapes = []
    _record_lindblad_calls(monkeypatch, lambda terms, ctab: shapes.append(ctab.shape))
    return shapes


@pytest.fixture
def lindblad_terms(monkeypatch):
    """Shape of the term stack of every Lindblad kernel call, in order."""
    shapes = []
    _record_lindblad_calls(monkeypatch, lambda terms, ctab: shapes.append(terms.shape))
    return shapes
