import pytest

from sl4cube import tensorspace


@pytest.fixture
def fresh_spectral_numerators():
    """Empty the cached integer spectral sums before and after a test that
    patches ``Cube.idempotent_numerators``: no sum cached from the real
    numerators hides the patch, and no patched sum outlives the test."""
    tensorspace._spectral_table.cache_clear()
    yield
    tensorspace._spectral_table.cache_clear()
