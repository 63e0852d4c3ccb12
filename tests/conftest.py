import pytest

from sl4cube import specialfn, tensorspace


@pytest.fixture
def fresh_spectral_numerators():
    """Empty the cached integer spectral sums before and after a test that
    patches ``Cube.idempotent_numerators``: no sum cached from the real
    numerators hides the patch, and no patched sum outlives the test."""
    tensorspace._spectral_table.cache_clear()
    yield
    tensorspace._spectral_table.cache_clear()


@pytest.fixture
def fresh_krawtchouk():
    """Empty the cached Krawtchouk families before and after a test that
    patches a name that ``specialfn.krawtchouk`` reads: no family cached from
    the real names hides the patch, and none built from the patch outlives the
    test."""
    specialfn.krawtchouk.cache_clear()
    yield
    specialfn.krawtchouk.cache_clear()
